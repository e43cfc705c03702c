"""Codec fit: each landed or checkpointed payload is deflated the way its
bytes pay for (see :mod:`repro.storage.compression`).

Every payload derives from the upload's 8-bit codes.  The stand-in JPEG
payload is those codes, quantised noise, and is stored (level 0); a
``preproc/`` blob is the codes behind the preprocessed binary's header
and a CRC32, inflating to the fp32 binary; the checkpoint journal's
codes, stacked into one array, are one stored stream (a Huffman-only
pass kept well under 1 % of them); a store snapshot's ``feat/`` segment
is one ``Z_RLE`` stream; model weights keep level 9.  Each check
compares against that codec spelled out with ``zlib`` directly, so a
payload routed through the wrong codec fails by name, and states in
bytes what it gives up against the encode it replaced.  A checkpoint
written with the earlier codecs restores to the same state and
re-checkpoints to the current bytes.
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
    quantise,
)
from repro.storage import compression, persistence
from repro.storage.compression import Codec
from repro.storage.persistence import dump_object_store, squeezed_segment
from tests.storage.test_plane_codec import huffman_only, spelled_out, stored

PHOTO_HEADER = struct.calcsize(_HEADER_FMT)


def run_length_frame(data: bytes) -> bytes:
    """A ``preproc/`` blob as an earlier landing path wrote it
    (``Z_RLE`` over the interleaved float bytes)."""
    packer = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS,
                              zlib.DEF_MEM_LEVEL, zlib.Z_RLE)
    return b"NDPZ" + packer.compress(data) + packer.flush()


def level_6_frame(data: bytes) -> bytes:
    """A ``preproc/`` blob as the first landing path wrote it."""
    return b"NDPZ" + zlib.compress(data, 6)


def quantised(pixels: np.ndarray) -> np.ndarray:
    """The front door spelled out: clip, scale, round to nearest."""
    return np.rint(np.clip(pixels, 0.0, 1.0) * 255).astype(np.uint8)


def derived(codes: np.ndarray) -> np.ndarray:
    """The model input of ``codes``, computed rather than looked up."""
    return preprocess(codes / 255)


def codes_frame(codes: np.ndarray) -> bytes:
    """The ``preproc/`` blob of ``codes``: magic, CRC32 of what follows,
    the preprocessed binary's header, one byte per code."""
    body = struct.pack(">4sBHH", b"NDPP", *codes.shape) + codes.tobytes()
    return b"NDPC" + struct.pack(">I", zlib.crc32(body)) + body


@pytest.fixture(scope="module")
def sample():
    x, _ = DriftingPhotoWorld(WorldConfig()).sample(
        256, 0, rng=np.random.default_rng(0))
    return x


def uploads(pixels):
    return [StoredPhoto(photo_id=f"p{i}", codes=quantise(p))
            for i, p in enumerate(pixels)]


class TestStandInJpeg:
    def test_stored_payload_is_as_long_as_a_level_6_encode(self, sample):
        for pixels in sample:
            noise = quantised(pixels).tobytes()
            blob = encode_photo(quantise(pixels))
            assert blob[PHOTO_HEADER:] == zlib.compress(noise, 0)
            assert len(blob) == PHOTO_HEADER + len(zlib.compress(noise, 6))

    def test_decode_returns_the_quantised_pixels(self, sample):
        for pixels in sample:
            np.testing.assert_array_equal(
                decode_photo(encode_photo(quantise(pixels))
                             .ljust(8192, b"\0")),
                quantised(pixels) / 255.0)


class TestPreprocessedBlob:
    def test_codes_inflate_exactly_and_never_cost_bytes(self, sample):
        """Against level 6 over the fp32 binary the codes derive."""
        ours = level_6 = 0
        for photo in uploads(sample):
            raw = encode_preprocessed(derived(photo.codes))
            blob = photo.preprocessed_blob()
            assert blob == codes_frame(
                quantised(decode_photo(photo.raw_payload())))
            assert inflate(blob) == raw
            assert len(blob) <= len(level_6_frame(raw))
            ours += len(blob)
            level_6 += len(level_6_frame(raw))
        assert ours < level_6 / 2

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
                before(encode_preprocessed(derived(photo.codes))))
        for photo in photos:
            np.testing.assert_array_equal(
                store.load_preprocessed(photo.photo_id), derived(photo.codes))
        np.testing.assert_array_equal(
            store._load_batch([photo.photo_id for photo in photos]),
            np.stack([derived(photo.codes) for photo in photos]))


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
        stack = np.stack([codes for codes, _ in journal.values()])
        np.testing.assert_array_equal(stack, quantised(sample[:32]))
        header = f"{stack.dtype.str}|{','.join(map(str, stack.shape))}|"
        table = bytes(blobs[manifest["journal"]["codes_blob"]])
        raw = header.encode() + stack.tobytes()
        assert table == b"NDPZ" + stored(raw)
        # 4 B frame magic, 2 B zlib head, 5 B a stored block, 4 B adler32
        assert len(table) == len(raw) + 4 + 2 + 5 + 4
        np.testing.assert_array_equal(decompress_array(table), stack)
        # never larger than the per-entry table at level 9 it replaced
        per_entry = pack_arrays(
            {pid: codes for pid, (codes, _) in journal.items()})
        assert len(table) <= len(b"NDPZ" + zlib.compress(per_entry, 9))
        model = pack_arrays(cluster.tuner.model.state_dict())
        assert bytes(blobs[manifest["tuner"]["model_blob"]]) == (
            b"NDPZ" + zlib.compress(model, 9))

        restored = build()
        restored.restore(blob)
        assert list(restored.control.journal) == list(journal)
        for pid, (codes, label) in journal.items():
            got, got_label = restored.control.journal[pid]
            assert got.dtype == codes.dtype and got.shape == codes.shape
            assert got.tobytes() == codes.tobytes()
            assert got_label == label

    def test_stacked_journal_never_costs_bytes_on_the_sample(self, sample):
        """All 256 photos' codes: the stacked table against the level-9
        per-entry table, and against the Huffman-only stream it was,
        which kept under 1 % of the bytes."""
        stack = quantise(np.asarray(sample))
        stacked = compress_array(stack)
        per_entry = b"NDPZ" + zlib.compress(pack_arrays(
            {f"acme/photo-{i:08d}": p for i, p in enumerate(stack)}), 9)
        assert len(stacked) < len(per_entry)
        assert decompress_array(stacked).tobytes() == stack.tobytes()
        raw = inflate(stacked)
        assert len(b"NDPZ" + huffman_only(raw)) > 0.99 * len(stacked)


def run_length(data: bytes) -> bytes:
    return spelled_out(data, 1, zlib.Z_RLE)


def build_cluster():
    return NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=5),
        ClusterConfig(num_stores=2, nominal_raw_bytes=2048))


@pytest.fixture(scope="module")
def featured(sample):
    """A cluster whose stores hold ``feat/`` rows."""
    cluster = build_cluster()
    cluster.ingest(sample[:48], train_labels=np.arange(48) % 8)
    cluster.finetune(epochs=1)
    assert all(store.objects.keys("feat/") for store in cluster.stores)
    return cluster


class TestFeatureSegment:
    def test_the_segment_is_one_run_length_stream(self, featured):
        for store in featured.stores:
            segment = squeezed_segment(dump_object_store(store.objects))
            rows = inflate(segment)
            assert segment == b"NDPZ" + run_length(rows)
            # bytes kept against the level-1 stream it replaced: most of
            # the saving, none of the LZ77 search
            level_1 = len(b"NDPZ" + zlib.compress(rows, 1))
            assert level_1 < len(segment) < len(rows)
            assert len(rows) - len(segment) > 0.8 * (len(rows) - level_1)

    def test_a_checkpoint_in_the_earlier_codecs_restores(
            self, featured, monkeypatch):
        """Written with the ``feat/`` segment at level 1 and the journal
        Huffman-only, a checkpoint restores to the same state, and that
        state checkpoints to the current bytes."""
        current = featured.checkpoint()
        with monkeypatch.context() as patch:
            patch.setattr(persistence, "FEATURE_ROWS", Codec(1))
            patch.setattr(compression, "NOISE",
                          Codec(6, zlib.Z_HUFFMAN_ONLY))
            earlier = featured.checkpoint()
        assert len(earlier) < len(current)
        manifest, blobs = read_frame(earlier)
        table = bytes(blobs[manifest["journal"]["codes_blob"]])
        assert table == b"NDPZ" + huffman_only(inflate(table))
        segment = squeezed_segment(bytes(blobs[
            manifest["stores"][0]["objects_blob"]]))
        assert segment == b"NDPZ" + zlib.compress(inflate(segment), 1)

        restored = build_cluster()
        restored.restore(earlier)
        assert restored.checkpoint() == current
        for ours, theirs in zip(restored.stores, featured.stores):
            assert ours.objects.keys() == theirs.objects.keys()
            for key in theirs.objects.keys():
                assert ours.objects.peek(key) == theirs.objects.peek(key)
                assert (ours.objects.stored_crc(key)
                        == theirs.objects.stored_crc(key))


class TestDerivedOnce:
    """Replicas share their ``raw/`` payloads, so a pass over every store
    (checkpoint, restore, scrub) derives each photo's ``preproc/`` blob
    once and the bytes it writes are those of deriving it per store."""

    @pytest.fixture(scope="class")
    def replicated(self, sample):
        cluster = NDPipeCluster(
            lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=5),
            ClusterConfig(num_stores=3, replication=3,
                          nominal_raw_bytes=2048))
        cluster.ingest(sample[:24], train_labels=np.arange(24) % 8)
        return cluster

    def test_each_pass_derives_a_photo_once(self, replicated, monkeypatch):
        from repro.storage import objectstore

        calls = []
        real = objectstore.derive_preprocessed

        def counted(*held):
            calls.append(held)
            return real(*held)

        monkeypatch.setattr(objectstore, "derive_preprocessed", counted)
        blob = replicated.checkpoint()
        assert len(calls) == 24
        calls.clear()
        restored = NDPipeCluster(
            lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=5),
            ClusterConfig(num_stores=3, replication=3,
                          nominal_raw_bytes=2048))
        restored.restore(blob)
        assert len(calls) == 24
        calls.clear()
        report = restored.scrub_and_repair()
        assert report.corrupt_found == 0 and len(calls) == 24
        assert restored.checkpoint() == blob

    def test_a_shared_memo_writes_the_same_bytes(self, replicated):
        memo = {}
        for store in replicated.stores:
            alone = dump_object_store(store.objects)
            assert dump_object_store(store.objects, memo) == alone
        assert len(memo) == 24
