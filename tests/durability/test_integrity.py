"""Integrity layer: write-time CRCs, verified reads, corruption events,
scrub detection, and unaccounted maintenance IO."""

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.faults import BitRot, FaultInjector, TornWrite
from repro.models.registry import tiny_model
from repro.storage.objectstore import CorruptObjectError, ObjectStore


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def fresh_cluster(**kwargs):
    kwargs.setdefault("num_stores", 3)
    kwargs.setdefault("nominal_raw_bytes", 2048)
    return NDPipeCluster(factory, ClusterConfig(**kwargs))


class TestObjectStoreCRC:
    def test_get_verifies_crc(self):
        store = ObjectStore(name="s")
        store.put("raw/a", b"hello world")
        assert store.get("raw/a") == b"hello world"
        store.corrupt_object("raw/a", b"hellp world")
        with pytest.raises(CorruptObjectError) as info:
            store.get("raw/a")
        assert info.value.store == "s"
        assert info.value.key == "raw/a"

    def test_single_bit_flip_always_detected(self):
        blob = bytes(np.random.default_rng(0).integers(0, 256, 64,
                                                       dtype=np.uint8))
        for pos in range(0, len(blob), 7):
            for bit in range(8):
                store = ObjectStore()
                store.put("k", blob)
                damaged = bytearray(blob)
                damaged[pos] ^= 1 << bit
                store.corrupt_object("k", bytes(damaged))
                assert not store.verify("k")

    def test_peek_is_unaccounted_and_unverified(self):
        store = ObjectStore()
        store.put("k", b"payload")
        store.corrupt_object("k", b"pAyload")
        before = store.bytes_read
        assert store.peek("k") == b"pAyload"  # no CRC complaint
        assert store.bytes_read == before
        with pytest.raises(CorruptObjectError):
            store.peek("k", verify=True)

    def test_rewrite_refreshes_crc(self):
        store = ObjectStore()
        store.put("k", b"old")
        store.corrupt_object("k", b"bad")
        store.put("k", b"new")
        assert store.verify("k")
        assert store.get("k") == b"new"

    def test_iter_items_does_not_count_reads(self):
        store = ObjectStore()
        store.put("a", b"x" * 100)
        store.put("b", b"y" * 100)
        _ = store.get("a")
        before = store.bytes_read
        assert dict(store.iter_items()) == {"a": b"x" * 100, "b": b"y" * 100}
        assert store.bytes_read == before


class TestCorruptionEvents:
    def _loaded(self, small_world):
        cluster = fresh_cluster()
        x, y = small_world.sample(15, 0, rng=np.random.default_rng(3))
        ids = cluster.ingest(x, train_labels=y)
        return cluster, ids

    def test_bit_rot_fires_and_scrub_detects(self, small_world):
        cluster, _ = self._loaded(small_world)
        injector = FaultInjector([
            BitRot(at=1, store_id="pipestore-0", num_objects=2, seed=9),
        ]).attach(cluster)
        # any transfer advances the clock past tick 1
        cluster.network.send("a", "b", 1, "tick")
        assert len(injector.corrupted) == 2
        report = cluster.stores[0].scrub()
        assert sorted(report.corrupt_keys) == sorted(
            key for _sid, key in injector.corrupted)
        assert not cluster.stores[1].scrub().corrupt_keys
        injector.detach()

    def test_torn_write_truncates_and_is_detected(self, small_world):
        cluster, ids = self._loaded(small_world)
        store = cluster.stores[0]
        key = store.objects.raw_key(
            cluster.database.ids_at("pipestore-0")[0])
        original_len = store.objects.size_of(key)
        injector = FaultInjector([
            TornWrite(at=1, store_id="pipestore-0", key=key,
                      keep_fraction=0.5),
        ]).attach(cluster)
        cluster.network.send("a", "b", 1, "tick")
        assert injector.corrupted == [("pipestore-0", key)]
        assert store.objects.size_of(key) == original_len // 2
        assert not store.objects.verify(key)
        injector.detach()

    def test_corruption_schedule_is_deterministic(self, small_world):
        def run():
            cluster, _ = self._loaded(small_world)
            injector = FaultInjector([
                BitRot(at=1, store_id="pipestore-1", num_objects=3, seed=4),
            ]).attach(cluster)
            cluster.network.send("a", "b", 1, "tick")
            corrupted = list(injector.corrupted)
            injector.detach()
            return corrupted

        assert run() == run()

    def test_workload_read_of_rotten_object_raises(self, small_world):
        cluster, _ = self._loaded(small_world)
        pid = cluster.database.ids_at("pipestore-0")[0]
        store = cluster.stores[0]
        key = store.objects.preproc_key(pid)
        blob = bytearray(store.objects.peek(key))
        blob[len(blob) // 2] ^= 0x40
        store.objects.corrupt_object(key, bytes(blob))
        with pytest.raises(CorruptObjectError):
            store.load_preprocessed(pid)


class TestScrubMetrics:
    def test_scrub_counts_into_metrics(self, small_world):
        cluster = fresh_cluster()
        x, y = small_world.sample(9, 0, rng=np.random.default_rng(1))
        cluster.ingest(x, train_labels=y)
        store = cluster.stores[0]
        key = store.objects.keys("raw/")[0]
        store.objects.corrupt_object(key, b"\x00" * 8)
        report = store.scrub()
        assert report.objects_checked == len(store.objects)
        assert report.corrupt_keys == [key]
        assert not report.clean
        scrubbed = cluster.metrics.get("pipestore_objects_scrubbed_total")
        assert scrubbed.value(store="pipestore-0") == report.objects_checked
        corrupt = cluster.metrics.get("pipestore_corrupt_objects_total")
        assert corrupt.value(store="pipestore-0") == 1

    def test_scrub_never_touches_io_accounting(self, small_world):
        cluster = fresh_cluster()
        x, y = small_world.sample(6, 0, rng=np.random.default_rng(1))
        cluster.ingest(x, train_labels=y)
        for store in cluster.stores:
            before = store.objects.bytes_read
            store.scrub()
            assert store.objects.bytes_read == before
