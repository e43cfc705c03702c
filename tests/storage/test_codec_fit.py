"""Codec fit: each landed or checkpointed payload is deflated the way its
bytes pay for (see :mod:`repro.storage.compression`).

The stand-in JPEG payload is quantised noise and is stored (level 0); a
``preproc/`` blob and the checkpoint journal's pixels, stacked into one
array, are split into byte planes with only the sign/exponent plane
Huffman-coded; model weights keep level 9.  Each check compares against
that codec spelled out with ``zlib`` directly, so a payload routed
through the wrong codec fails by name, and against the encodes the
landing and checkpoint paths used before, which must never be smaller.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import PipeStore, StoredPhoto
from repro.data import DriftingPhotoWorld, WorldConfig
from repro.durability.checkpoint import pack_arrays, read_frame
from repro.models.registry import tiny_model
from repro.storage.compression import (
    compress_array,
    decompress_array,
    inflate,
)
from repro.storage.imageformat import (
    _HEADER_FMT,
    decode_photo,
    encode_photo,
    encode_preprocessed,
    preprocess,
)
from tests.storage.test_plane_codec import plane_frame

PHOTO_HEADER = struct.calcsize(_HEADER_FMT)


def run_length_frame(data: bytes) -> bytes:
    """A ``preproc/`` blob as the landing path wrote it before the byte
    planes (``Z_RLE`` over the interleaved float bytes)."""
    packer = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS,
                              zlib.DEF_MEM_LEVEL, zlib.Z_RLE)
    return b"NDPZ" + packer.compress(data) + packer.flush()


def level_6_frame(data: bytes) -> bytes:
    """A ``preproc/`` blob as the landing path wrote it before that."""
    return b"NDPZ" + zlib.compress(data, 6)


def quantised(pixels: np.ndarray) -> np.ndarray:
    return (np.clip(pixels, 0.0, 1.0) * 255).astype(np.uint8)


@pytest.fixture(scope="module")
def sample():
    x, _ = DriftingPhotoWorld(WorldConfig()).sample(
        256, 0, rng=np.random.default_rng(0))
    return x


def uploads(pixels):
    return [StoredPhoto(photo_id=f"p{i}", pixels=p, preprocessed=preprocess(p))
            for i, p in enumerate(pixels)]


class TestStandInJpeg:
    def test_stored_payload_is_as_long_as_a_level_6_encode(self, sample):
        for pixels in sample:
            noise = quantised(pixels).tobytes()
            blob = encode_photo(pixels)
            assert blob[PHOTO_HEADER:] == zlib.compress(noise, 0)
            assert len(blob) == PHOTO_HEADER + len(zlib.compress(noise, 6))

    def test_decode_returns_the_quantised_pixels(self, sample):
        for pixels in sample:
            np.testing.assert_array_equal(
                decode_photo(encode_photo(pixels, pad_to_bytes=8192)),
                quantised(pixels) / 255.0)


class TestPreprocessedBlob:
    def test_byte_planes_inflate_bit_exactly_and_never_cost_bytes(
            self, sample):
        ours = run_length = 0
        for photo in uploads(sample):
            raw = encode_preprocessed(photo.preprocessed)
            blob = photo.preprocessed_blob()
            assert blob == plane_frame(raw, 4)
            assert inflate(blob) == raw
            assert len(blob) <= len(run_length_frame(raw))
            assert len(blob) <= len(level_6_frame(raw))
            ours += len(blob)
            run_length += len(run_length_frame(raw))
        assert ours < run_length

    def test_a_level_6_blob_written_before_still_loads(self, sample):
        """And a ``Z_RLE`` one: both earlier ``NDPZ`` encodes."""
        photos = uploads(sample[:4])
        store = PipeStore("s", nominal_raw_bytes=2048)
        for photo in photos:
            store.store_photo(photo)
        # the first row of a batch loads through load_preprocessed, the
        # rest decode into the batch in place: cover both
        for photo, before in zip(photos, (level_6_frame, run_length_frame,
                                          level_6_frame, run_length_frame)):
            store.objects.put(
                store.objects.preproc_key(photo.photo_id),
                before(encode_preprocessed(photo.preprocessed)))
        for photo in photos:
            np.testing.assert_array_equal(
                store.load_preprocessed(photo.photo_id), photo.preprocessed)
        np.testing.assert_array_equal(
            store._load_batch([photo.photo_id for photo in photos]),
            np.stack([photo.preprocessed for photo in photos]))


class TestCheckpointTables:
    def test_stacked_journal_and_model_table_keep_their_codecs(self, sample):
        def build():
            return NDPipeCluster(
                lambda: tiny_model("ResNet50", num_classes=8, width=8,
                                   seed=5),
                ClusterConfig(num_stores=2, nominal_raw_bytes=2048))

        cluster = build()
        labels = np.arange(32) % 8
        cluster.ingest(sample[:32], train_labels=labels)
        blob = cluster.checkpoint()
        manifest, blobs = read_frame(blob)
        journal = cluster.control.journal
        assert list(manifest["journal"]["labels"]) == list(journal)
        stack = np.stack([pixels for pixels, _ in journal.values()])
        header = f"{stack.dtype.str}|{','.join(map(str, stack.shape))}|"
        table = bytes(blobs[manifest["journal"]["pixels_blob"]])
        assert table == plane_frame(header.encode() + stack.tobytes(),
                                    stack.itemsize)
        np.testing.assert_array_equal(decompress_array(table), stack)
        # never larger than the per-entry table at level 9 it replaced
        per_entry = pack_arrays(
            {pid: pixels for pid, (pixels, _) in journal.items()})
        assert len(table) <= len(b"NDPZ" + zlib.compress(per_entry, 9))
        model = pack_arrays(cluster.tuner.model.state_dict())
        assert bytes(blobs[manifest["tuner"]["model_blob"]]) == (
            b"NDPZ" + zlib.compress(model, 9))

        restored = build()
        restored.restore(blob)
        assert list(restored.control.journal) == list(journal)
        for pid, (pixels, label) in journal.items():
            got, got_label = restored.control.journal[pid]
            assert got.dtype == pixels.dtype and got.shape == pixels.shape
            assert got.tobytes() == pixels.tobytes()
            assert got_label == label

    def test_stacked_journal_never_costs_bytes_on_the_sample(self, sample):
        """All 256 photos: the stacked plane table against the level-9
        per-entry table."""
        stack = np.asarray(sample)
        stacked = compress_array(stack)
        per_entry = b"NDPZ" + zlib.compress(pack_arrays(
            {f"acme/photo-{i:08d}": p for i, p in enumerate(stack)}), 9)
        assert len(stacked) < len(per_entry)
        assert decompress_array(stacked).tobytes() == stack.tobytes()
