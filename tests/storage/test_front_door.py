"""The front door: each upload is rounded to 8-bit codes once, and every
form the system keeps derives from those codes.

- the ``preproc/`` frame (``NDPC | CRC32 | NDPP header | codes``) holds
  all 256 codes and inflates, bit for bit, to the fp32 binary of
  ``preprocess(codes / 255)``; any damaged byte is refused;
- on every landing path — ingest, ``serve_uploads`` miss and hit,
  journal re-ingest, restore — a stored ``preproc/`` blob decodes to
  ``preprocess(decode_photo(raw))`` and to the tensor the model saw;
- the scrub checks that law: a ``preproc/`` blob whose own CRC holds but
  that disagrees with its store's ``raw/`` blob is reported and
  re-derived in place, moving no bytes;
- a store snapshot holds a ``preproc/`` blob that obeys the law as its
  key and CRC alone, and re-derives it on load; any other travels
  verbatim.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.core import dataplane
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import PipeStore, StoredPhoto
from repro.models.registry import tiny_model
from repro.serving import ServingConfig
from repro.serving.cache import content_key
from repro.serving.dispatcher import ReplicaDispatcher
from repro.storage.compression import CODES, deflate, inflate
from repro.storage.imageformat import (
    CODE_TABLE,
    decode_photo,
    decode_preprocessed,
    encode_codes,
    encode_preprocessed,
    model_input,
    preprocess,
    quantise,
)
from repro.storage.persistence import (
    SnapshotError,
    dump_object_store,
    load_object_store,
)
from repro.workloads.continuous import open_loop_requests


def every_code(shape) -> np.ndarray:
    """Codes of ``shape`` holding each of the 256 values, shuffled."""
    size = int(np.prod(shape))
    codes = np.arange(size) % 256
    return np.random.default_rng(size).permutation(codes).astype(
        np.uint8).reshape(shape)


def frame(codes: np.ndarray) -> bytes:
    return deflate(encode_codes(codes), CODES)


class TestQuantise:
    def test_rounds_to_the_nearest_code_after_clipping(self):
        pixels = np.array([-0.5, 0.0, 0.4 / 255, 0.6 / 255, 127.5 / 255,
                           254.49 / 255, 1.0, 3.0]).reshape(1, 2, 4)
        np.testing.assert_array_equal(
            quantise(pixels).ravel(), [0, 0, 0, 1, 128, 254, 255, 255])
        assert quantise(pixels).dtype == np.uint8

    def test_a_batch_rounds_as_its_photos_do(self):
        batch = np.random.default_rng(3).random((5, 3, 8, 8),
                                                dtype=np.float32)
        np.testing.assert_array_equal(
            quantise(batch), np.stack([quantise(p) for p in batch]))

    def test_the_table_is_preprocess_of_each_code(self):
        np.testing.assert_array_equal(
            CODE_TABLE, preprocess(np.arange(256) / 255.0))
        assert CODE_TABLE.dtype == np.float32
        assert not CODE_TABLE.flags.writeable
        codes = every_code((2, 3, 4, 4))
        np.testing.assert_array_equal(model_input(codes),
                                      preprocess(codes / 255))


class TestCodesFrame:
    @pytest.mark.parametrize("shape", [(3, 16, 16), (3, 32, 32)])
    def test_every_code_round_trips_bit_exactly(self, shape):
        codes = every_code(shape)
        assert set(np.unique(codes)) == set(range(256))
        blob = frame(codes)
        header = struct.pack(">4sBHH", b"NDPP", *shape)
        body = header + codes.tobytes()
        assert blob == b"NDPC" + struct.pack(">I", zlib.crc32(body)) + body
        expected = preprocess(codes / 255)
        assert inflate(blob) == encode_preprocessed(expected)
        assert inflate(memoryview(b"__" + blob)[2:]) == inflate(blob)
        decoded = decode_preprocessed(inflate(blob))
        assert decoded.tobytes() == expected.tobytes()

    def test_any_single_flipped_byte_is_refused(self):
        blob = frame(every_code((3, 4, 4)))
        for where in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[where] ^= mask
                with pytest.raises(ValueError):
                    inflate(bytes(damaged))

    def test_any_truncation_is_refused(self):
        blob = frame(every_code((3, 4, 4)))
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                inflate(blob[:cut])

    def test_a_resealed_frame_whose_codes_do_not_fit_its_header_is_refused(
            self):
        body = encode_codes(every_code((3, 4, 4)))[:-1]
        lying = b"NDPC" + struct.pack(">I", zlib.crc32(body)) + body
        with pytest.raises(ValueError, match="preprocessed payload"):
            inflate(lying)


# -- landing paths -------------------------------------------------------------
def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def build(replication=1):
    return NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, replication=replication))


@pytest.fixture
def seen(monkeypatch):
    """Every fp32 row a model saw, by the content of its codes."""
    rows = {}

    def remember(batch):
        for row in batch:
            rows[quantise_back(row)] = row.copy()

    real_classify = dataplane.InferenceServer.classify_preprocessed
    monkeypatch.setattr(
        dataplane.InferenceServer, "classify_preprocessed",
        lambda self, batch, **kw: remember(batch) or real_classify(
            self, batch, **kw))
    real_dispatch = ReplicaDispatcher.dispatch

    def dispatch(self, index, misses, *rest):
        if misses is not None:
            # a serving miss crosses as codes; the replica's pooled front
            # reads them through the table
            remember(model_input(misses))
        return real_dispatch(self, index, misses, *rest)

    monkeypatch.setattr(ReplicaDispatcher, "dispatch", dispatch)
    return rows


def quantise_back(row: np.ndarray) -> bytes:
    """The codes an fp32 model input was read from (the table is strictly
    increasing)."""
    codes = np.searchsorted(CODE_TABLE, row).astype(np.uint8)
    np.testing.assert_array_equal(CODE_TABLE[codes], row)
    return codes.tobytes()


def assert_landed_by_the_law(cluster, photo_ids, seen):
    """Each holder's ``preproc/`` decodes to ``preprocess`` of its own
    ``raw/`` blob, and to the row the model saw for those codes."""
    assert photo_ids
    for pid in photo_ids:
        for holder in cluster.replicas.holders(pid):
            objects = cluster.stores[holder].objects
            raw = objects.peek(objects.raw_key(pid))
            tensor = decode_preprocessed(inflate(
                objects.peek(objects.preproc_key(pid))))
            from_raw = preprocess(decode_photo(raw))
            assert tensor.tobytes() == from_raw.tobytes(), (holder, pid)
            np.testing.assert_array_equal(
                tensor, seen[quantise(decode_photo(raw)).tobytes()])


class TestLandingPaths:
    def test_ingest(self, small_world, seen):
        cluster = build(replication=2)
        x, y = small_world.sample(20, 0, rng=np.random.default_rng(1))
        assert_landed_by_the_law(cluster, cluster.ingest(x, train_labels=y),
                                 seen)

    def test_serve_uploads_miss_and_hit(self, seen):
        cluster = build(replication=2)
        trace = open_loop_requests(40, 2000.0, seed=2, pool_size=6)
        report, ids = cluster.serve_uploads(trace, ServingConfig())
        hits = [pid for pid, outcome in zip(ids, report.completed_requests)
                if outcome.cache_hit]
        misses = [pid for pid, outcome in zip(ids, report.completed_requests)
                  if not outcome.cache_hit]
        assert hits and misses
        assert_landed_by_the_law(cluster, misses, seen)
        assert_landed_by_the_law(cluster, hits, seen)
        # a hit lands the blob its photo's miss landed
        by_photo = {}
        for pid, outcome in zip(ids, report.completed_requests):
            store = cluster.stores[cluster.database.lookup(pid).location]
            by_photo.setdefault(content_key(outcome.request.pixels), set()).add(
                store.objects.peek(store.objects.preproc_key(pid)))
        assert all(len(blobs) == 1 for blobs in by_photo.values())

    def test_journal_reingest(self, small_world, seen):
        cluster = build()
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(4))
        cluster.ingest(x, train_labels=y)
        victim = cluster.stores[0]
        victim.fail()
        moved = cluster.reingest_orphans(victim.store_id)
        codes, _label = cluster.control.journal[moved[0]]
        assert codes.dtype == np.uint8
        assert_landed_by_the_law(cluster, moved, seen)

    def test_restore(self, small_world, seen):
        cluster = build(replication=2)
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(5))
        ids = cluster.ingest(x, train_labels=y)
        restored = build(replication=2)
        restored.restore(cluster.checkpoint())
        assert_landed_by_the_law(restored, ids, seen)
        for pid in ids:
            np.testing.assert_array_equal(
                restored.control.journal[pid][0],
                cluster.control.journal[pid][0])


# -- the scrub checks the derived law ------------------------------------------
class TestScrubChecksTheDerivedLaw:
    def test_a_healthy_fleet_reports_nothing(self, small_world):
        cluster = build(replication=2)
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(6))
        cluster.ingest(x, train_labels=y)
        report = cluster.scrub_and_repair()
        assert report.clean and report.corrupt_found == 0
        assert report.rederived == []

    def test_a_crc_clean_disagreeing_blob_is_rederived_at_zero_bytes(
            self, small_world):
        cluster = build(replication=2)
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(7))
        ids = cluster.ingest(x, train_labels=y)
        store = cluster.stores[cluster.database.lookup(ids[3]).location]
        key = store.objects.preproc_key(ids[3])
        healthy = store.objects.peek(key)
        # a valid frame of other codes, planted with its own valid CRC: a
        # CRC scrub alone sees nothing wrong
        planted = frame(quantise(x[5]))
        store.objects.restore_object(key, planted, zlib.crc32(planted))
        assert store.objects.verify(key)
        before = cluster.network.total_bytes
        report = cluster.scrub_and_repair()
        assert report.rederived == [(store.store_id, key)]
        assert report.corrupt_found == 1 and not report.clean
        assert report.repaired == [] and report.unrecoverable == []
        assert cluster.network.total_bytes == before
        assert store.objects.peek(key) == healthy
        assert store.objects.verify(key)
        assert cluster.scrub_and_repair().clean

    def test_a_lost_blob_is_rederived_from_its_raw_at_zero_bytes(
            self, small_world):
        cluster = build(replication=2)
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(9))
        ids = cluster.ingest(x, train_labels=y)
        store = cluster.stores[cluster.database.lookup(ids[4]).location]
        key = store.objects.preproc_key(ids[4])
        crc = store.objects.stored_crc(key)
        store.objects.delete(key)
        kinds = cluster.network.kinds()
        report = cluster.scrub_and_repair()
        assert report.restored == [(store.store_id, key)]
        assert report.unrecoverable == []
        assert cluster.network.kinds() == kinds  # no repair bytes
        assert store.objects.peek(key) == store.objects.derived_preproc(ids[4])
        assert store.objects.stored_crc(key) == crc
        assert cluster.scrub_and_repair().clean

    @pytest.mark.parametrize("raw", ["lost", "rotten"])
    def test_a_blob_whose_raw_is_lost_or_rotten_comes_from_a_donor(
            self, small_world, raw):
        cluster = build(replication=2)
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(10))
        ids = cluster.ingest(x, train_labels=y)
        store = cluster.stores[cluster.database.lookup(ids[4]).location]
        raw_key = store.objects.raw_key(ids[4])
        key = store.objects.preproc_key(ids[4])
        store.objects.delete(key)
        if raw == "lost":
            store.objects.delete(raw_key)
        else:
            # rotten and still rotten when the lost blob is restored:
            # only its own repair runs before that, and it finds no donor
            blob = bytearray(store.objects.peek(raw_key))
            blob[10] ^= 0xFF
            store.objects.corrupt_object(raw_key, bytes(blob))
            for holder in cluster.replicas.holders(ids[4]):
                if holder != store.store_id:
                    cluster.stores[holder].fail()
        report = cluster.scrub_and_repair()
        if raw == "lost":
            assert report.restored == [(store.store_id, raw_key),
                                       (store.store_id, key)]
            assert cluster.network.kinds()["repair"] > 0
            assert store.objects.peek(key) == store.objects.derived_preproc(
                ids[4])
        else:
            assert (store.store_id, key) in report.unrecoverable
            assert not store.objects.exists(key)


# -- snapshots hold what they cannot derive ------------------------------------
class TestSnapshotsDeriveTheBlob:
    @pytest.fixture
    def store(self, small_world):
        cluster = build()
        x, y = small_world.sample(6, 0, rng=np.random.default_rng(8))
        cluster.ingest(x, train_labels=y)
        return cluster.stores[0].objects

    def test_a_derived_blob_is_its_key_and_crc(self, store):
        keys = store.keys("preproc/")
        blob = dump_object_store(store)
        assert keys and all(store.peek(key) not in blob for key in keys)
        payloads = {}
        first = load_object_store(blob, payloads=payloads)
        second = load_object_store(blob, payloads=payloads)
        for key in store.keys():
            assert first.peek(key) == store.peek(key)
            assert first.stored_crc(key) == store.stored_crc(key)
        for key in keys:  # replicas restored together share one payload
            assert first.peek_payload(key)[0] is second.peek_payload(key)[0]
        assert dump_object_store(first) == blob

    def test_a_raw_blob_ending_in_zeros_derives_after_a_restore(self):
        """A restored payload's zero tail is a length: the derivation
        reads the full content, on load and in the scrub after it."""
        rng = np.random.default_rng(0)
        while True:
            photo = StoredPhoto("p", quantise(rng.random((3, 16, 16))))
            if photo.raw_payload().endswith(b"\0"):
                break
        source = PipeStore("s", nominal_raw_bytes=2048)
        source.store_photo(photo)
        restored = PipeStore("s", nominal_raw_bytes=2048)
        restored.objects = load_object_store(
            dump_object_store(source.objects))
        assert len(restored.objects.peek_payload("raw/p")[0]) < len(
            photo.raw_payload())
        assert restored.objects.peek("preproc/p") == photo.preprocessed_blob()
        assert restored.scrub().clean

    def test_a_rotten_or_foreign_blob_travels_verbatim(self, store):
        rotten, foreign = store.keys("preproc/")[:2]
        damaged = bytearray(store.peek(rotten))
        damaged[-1] ^= 0x01
        store.corrupt_object(rotten, bytes(damaged))
        older = b"NDPZ" + zlib.compress(
            encode_preprocessed(preprocess(np.zeros((3, 16, 16)))))
        store.put(foreign, older)
        blob = dump_object_store(store)
        assert bytes(damaged) in blob and older in blob
        restored = load_object_store(blob)
        assert not restored.verify(rotten)
        assert restored.peek(foreign) == older

    def test_a_record_that_does_not_derive_is_refused(self, store):
        key = store.keys("preproc/")[0]
        blob = bytearray(dump_object_store(store)[:-4])
        crc = struct.pack(">I", store.stored_crc(key))
        at = blob.index(crc + key.encode())
        blob[at] ^= 0x01  # the recorded CRC
        resealed = bytes(blob) + struct.pack(">I", zlib.crc32(blob))
        with pytest.raises(SnapshotError, match="does not match"):
            load_object_store(resealed)
