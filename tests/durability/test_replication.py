"""k-way replication: placement, promotion, and scrub-and-repair.

Includes the issue's acceptance scenario: injected bit-rot on one replica
is detected by a scrub and repaired from another replica, with zero
photos lost — deterministic under a fixed injector seed."""

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.durability.replication import ReplicaMap
from repro.faults import BitRot, FaultInjector, StoreCrash
from repro.models.registry import tiny_model

NUM_PHOTOS = 18


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def fresh_cluster(**kwargs):
    kwargs.setdefault("num_stores", 3)
    kwargs.setdefault("nominal_raw_bytes", 2048)
    kwargs.setdefault("replication", 2)
    return NDPipeCluster(factory, ClusterConfig(**kwargs))


def loaded_cluster(small_world, seed=3, **kwargs):
    cluster = fresh_cluster(**kwargs)
    x, y = small_world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(seed))
    ids = cluster.ingest(x, train_labels=y)
    return cluster, ids


class TestReplicaMap:
    def test_place_and_lookup(self):
        rmap = ReplicaMap()
        rmap.place("p", ["a", "b"])
        assert rmap.primary("p") == "a"
        assert rmap.holders("p") == ["a", "b"]
        assert rmap.is_holder("p", "b")
        assert not rmap.is_holder("p", "c")
        assert "p" in rmap and len(rmap) == 1

    def test_place_rejects_bad_holder_lists(self):
        rmap = ReplicaMap()
        with pytest.raises(ValueError):
            rmap.place("p", [])
        with pytest.raises(ValueError):
            rmap.place("p", ["a", "a"])

    def test_remove_holder_drops_empty_entries(self):
        rmap = ReplicaMap()
        rmap.place("p", ["a", "b"])
        rmap.remove_holder("p", "a")
        assert rmap.holders("p") == ["b"]
        rmap.remove_holder("p", "b")
        assert "p" not in rmap

    def test_underreplicated_and_photos_on(self):
        rmap = ReplicaMap()
        rmap.place("p1", ["a", "b"])
        rmap.place("p2", ["a"])
        assert rmap.underreplicated(2) == ["p2"]
        assert rmap.photos_on("a") == ["p1", "p2"]
        assert rmap.photos_on("b") == ["p1"]

    def test_round_trips_through_dict(self):
        rmap = ReplicaMap()
        rmap.place("p1", ["a", "b"])
        rmap.place("p2", ["c"])
        clone = ReplicaMap.from_dict(rmap.to_dict())
        assert clone.to_dict() == rmap.to_dict()


class TestPlacement:
    def test_every_photo_gets_k_distinct_holders(self, small_world):
        cluster, ids = loaded_cluster(small_world)
        for pid in ids:
            holders = cluster.replicas.holders(pid)
            assert len(holders) == 2
            assert len(set(holders)) == 2
            assert holders[0] == cluster.database.lookup(pid).location
            for sid in holders:
                store = next(s for s in cluster.stores if s.store_id == sid)
                assert store.objects.exists(store.objects.raw_key(pid))
                assert store.objects.exists(store.objects.preproc_key(pid))
                assert store.has_train_label(pid)

    def test_replica_traffic_is_accounted(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        transfers = cluster.metrics.get("fabric_transfers_total")
        assert transfers.value(kind="replicate") == NUM_PHOTOS
        assert cluster.traffic_summary()["replicate"] > 0

    def test_replication_must_fit_fleet(self):
        with pytest.raises(ValueError):
            fresh_cluster(num_stores=2, replication=3)
        with pytest.raises(ValueError):
            fresh_cluster(replication=0)

    def test_degraded_fleet_underreplicates_not_fails(self, small_world):
        cluster = fresh_cluster()
        cluster.stores[1].fail()
        cluster.stores[2].fail()
        x, y = small_world.sample(4, 0, rng=np.random.default_rng(0))
        ids = cluster.ingest(x, train_labels=y)
        assert len(ids) == 4
        for pid in ids:
            assert cluster.replicas.holders(pid) == ["pipestore-0"]
        counter = cluster.metrics.get("durability_underreplicated_total")
        assert counter.value() == 4

    def test_reconcile_keeps_replica_copies(self, small_world):
        cluster, ids = loaded_cluster(small_world)
        for store in cluster.stores:
            assert cluster.reconcile(store) == []


class TestScrubAndRepairAcceptance:
    """Bit-rot on one replica: detected, repaired from another, 0 lost."""

    def _damage(self, cluster, seed):
        injector = FaultInjector([
            BitRot(at=1, store_id="pipestore-0", num_objects=4,
                   flips_per_object=3, seed=seed),
        ]).attach(cluster)
        cluster.network.send("probe-src", "probe-dst", 1, "tick")
        corrupted = list(injector.corrupted)
        injector.detach()
        return corrupted

    def test_rot_is_repaired_from_replica_zero_photos_lost(self, small_world):
        cluster, ids = loaded_cluster(small_world)
        corrupted = self._damage(cluster, seed=11)
        assert len(corrupted) == 4

        report = cluster.scrub_and_repair()
        assert sorted(key for _s, key in report.repaired) == sorted(
            key for _s, key in corrupted)
        assert report.corrupt_found == 4
        assert not report.unrecoverable

        # zero photos lost: every object on every holder verifies again
        clean = cluster.scrub_and_repair()
        assert clean.clean
        assert len(cluster.database) == NUM_PHOTOS
        for pid in ids:
            for sid in cluster.replicas.holders(pid):
                store = next(s for s in cluster.stores if s.store_id == sid)
                assert store.objects.verify(store.objects.raw_key(pid))
                assert store.objects.verify(store.objects.preproc_key(pid))
        repaired = cluster.metrics.get("durability_objects_repaired_total")
        assert repaired.value(store="pipestore-0") == 4
        transfers = cluster.metrics.get("fabric_transfers_total")
        assert transfers.value(kind="repair") == 4

    def test_repair_is_deterministic_under_fixed_seed(self, small_world):
        def run():
            cluster, _ = loaded_cluster(small_world)
            corrupted = self._damage(cluster, seed=23)
            report = cluster.scrub_and_repair()
            return corrupted, sorted(report.repaired), sorted(
                report.unrecoverable)

        assert run() == run()

    def test_unreplicated_rot_is_unrecoverable_not_silent(self, small_world):
        cluster = fresh_cluster(replication=1)
        x, y = small_world.sample(6, 0, rng=np.random.default_rng(2))
        cluster.ingest(x, train_labels=y)
        store = cluster.stores[0]
        key = store.objects.keys("raw/")[0]
        store.objects.corrupt_object(key, b"\xff" * 16)
        report = cluster.scrub_and_repair()
        assert report.unrecoverable == [("pipestore-0", key)]
        assert not report.repaired
        unrec = cluster.metrics.get("durability_objects_unrecoverable_total")
        assert unrec.value(store="pipestore-0") == 1

    def test_scrub_skips_down_stores(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        cluster.stores[2].fail()
        report = cluster.scrub_and_repair()
        assert report.stores_skipped == ["pipestore-2"]
        assert {s.store_id for s in report.scrubs} == {
            "pipestore-0", "pipestore-1"}


class TestCrashRecoveryWithReplicas:
    def test_primary_loss_promotes_replica_without_data_motion(
            self, small_world):
        cluster, ids = loaded_cluster(small_world)
        victims = cluster.database.ids_at("pipestore-0")
        bytes_before = cluster.network.total_bytes
        injector = FaultInjector([
            StoreCrash(at=1, store_id="pipestore-0")]).attach(cluster)
        cluster.network.send("probe-src", "probe-dst", 1, "tick")

        moved = cluster.reingest_orphans("pipestore-0")
        assert sorted(moved) == sorted(victims)
        for pid in victims:
            record = cluster.database.lookup(pid)
            assert record.location != "pipestore-0"
            assert cluster.replicas.primary(pid) == record.location
            # the crashed store keeps its (surviving) copy for later
            assert cluster.replicas.is_holder(pid, "pipestore-0")
        promoted = cluster.metrics.get("durability_replicas_promoted_total")
        assert promoted.value() == len(victims)
        # promotion changed pointers, not bytes: only the probe moved
        assert cluster.network.total_bytes == bytes_before + 1

        injector.detach()
        cluster.recover("pipestore-0")
        # the recovered store still replicates its old photos
        store = cluster.stores[0]
        for pid in victims:
            assert store.objects.exists(store.objects.raw_key(pid))
        assert cluster.scrub_and_repair().clean

    def test_crash_lost_media_is_restored_by_scrub(self, small_world):
        cluster, ids = loaded_cluster(small_world)
        store = cluster.stores[1]
        lost = cluster.replicas.photos_on("pipestore-1")[:3]
        for pid in lost:
            store.evict_photo(pid)  # media wiped, replica map still expects it
        report = cluster.scrub_and_repair()
        restored_keys = {key for _s, key in report.restored}
        assert restored_keys == {
            k for pid in lost
            for k in (store.objects.raw_key(pid),
                      store.objects.preproc_key(pid))
        }
        for pid in lost:
            assert store.objects.verify(store.objects.raw_key(pid))
            assert store.has_train_label(pid)
        assert cluster.scrub_and_repair().clean

    def test_finetune_trains_full_dataset_after_promotion(self, small_world):
        cluster, ids = loaded_cluster(small_world)
        cluster.stores[0].fail()
        cluster.reingest_orphans("pipestore-0")
        report = cluster.finetune(epochs=1)
        assert report.images_extracted == NUM_PHOTOS
        assert report.photos_deferred == 0
