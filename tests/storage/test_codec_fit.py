"""Codec fit: each landed or checkpointed payload is deflated the way its
bytes pay for (see :mod:`repro.storage.compression`).

The stand-in JPEG payload is quantised noise and is stored (level 0); a
``preproc/`` blob goes run-length (``Z_RLE``); array tables — model
weights and the checkpoint journal's pixel table — keep level 9.  Each
check compares against that codec spelled out with ``zlib`` directly, so
a payload routed through the wrong codec fails by name, and against the
level-6 encode the landing path used before, which must never be smaller.
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
from repro.storage.compression import inflate
from repro.storage.imageformat import (
    _HEADER_FMT,
    decode_photo,
    encode_photo,
    encode_preprocessed,
    preprocess,
)

PHOTO_HEADER = struct.calcsize(_HEADER_FMT)


def run_length(data: bytes) -> bytes:
    packer = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS,
                              zlib.DEF_MEM_LEVEL, zlib.Z_RLE)
    return packer.compress(data) + packer.flush()


def level_6_frame(data: bytes) -> bytes:
    """A ``preproc/`` blob as the landing path wrote it before."""
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
    def test_run_length_inflates_bit_exactly_and_never_costs_bytes(
            self, sample):
        ours = before = 0
        for photo in uploads(sample):
            raw = encode_preprocessed(photo.preprocessed)
            blob = photo.preprocessed_blob()
            assert blob == b"NDPZ" + run_length(raw)
            assert inflate(blob) == raw
            assert len(blob) <= len(level_6_frame(raw))
            ours += len(blob)
            before += len(level_6_frame(raw))
        assert ours < before

    def test_a_level_6_blob_written_before_still_loads(self, sample):
        photos = uploads(sample[:4])
        store = PipeStore("s", nominal_raw_bytes=2048)
        for photo in photos:
            store.store_photo(photo)
        # the first row of a batch loads through load_preprocessed, the
        # rest decode into the batch in place: cover both
        for photo in photos[:2]:
            store.objects.put(
                store.objects.preproc_key(photo.photo_id),
                level_6_frame(encode_preprocessed(photo.preprocessed)))
        for photo in photos:
            np.testing.assert_array_equal(
                store.load_preprocessed(photo.photo_id), photo.preprocessed)
        np.testing.assert_array_equal(
            store._load_batch([photo.photo_id for photo in photos]),
            np.stack([photo.preprocessed for photo in photos]))


class TestCheckpointTables:
    def test_journal_round_trips_and_array_tables_keep_level_9(self, sample):
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
        tables = {
            "journal": pack_arrays(
                {pid: pixels for pid, (pixels, _) in journal.items()}),
            "model": pack_arrays(cluster.tuner.model.state_dict()),
        }
        indices = {"journal": manifest["journal"]["pixels_blob"],
                   "model": manifest["tuner"]["model_blob"]}
        for name, table in tables.items():
            assert bytes(blobs[indices[name]]) == (
                b"NDPZ" + zlib.compress(table, 9)), name

        restored = build()
        restored.restore(blob)
        assert restored.control.journal.keys() == journal.keys()
        for pid, (pixels, label) in journal.items():
            got, got_label = restored.control.journal[pid]
            assert got.dtype == pixels.dtype and got.shape == pixels.shape
            assert got.tobytes() == pixels.tobytes()
            assert got_label == label
