"""Copy-first live migration and its exact ledger.

The MigrationLedger law is unit-tested first, then the rebalancer runs
against a real replicated fleet: a clean join converges, a dead
destination defers (never loses) photos, and a nemesis schedule that
drops rebalance traffic / crashes a shard mid-pass still leaves the
books balanced and every photo recoverable.
"""

import numpy as np
import pytest

from repro.faults import DropMessages, FaultInjector, StoreCrash
from repro.models.registry import tiny_model
from repro.placement import MigrationLedger, ShardConfig, ShardedCluster


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=11)


def make_fleet(num_shards=4, replication=2, photos=24, seed=3):
    fleet = ShardedCluster(
        factory, ShardConfig(num_shards=num_shards, vnodes=16,
                             replication=replication, ring_seed=seed))
    rng = np.random.default_rng(seed)
    shape = fleet.cluster.tuner.model.input_shape
    images = rng.random((photos,) + tuple(shape)).astype(np.float32)
    labels = rng.integers(0, 8, size=photos)
    ids, rejections = fleet.ingest(images, train_labels=labels)
    assert rejections == []
    return fleet, ids


class TestMigrationLedger:
    def test_begin_commit_balances(self):
        ledger = MigrationLedger()
        ledger.begin()
        ledger.commit()
        ledger.begin()
        ledger.abort()
        ledger.check()
        assert ledger.objects_moved == 2
        assert ledger.objects_received == 1
        assert ledger.objects_failed == 1
        assert ledger.objects_inflight == 0

    def test_commit_without_begin_is_loud(self):
        ledger = MigrationLedger()
        with pytest.raises(RuntimeError, match="without a begin"):
            ledger.commit()

    def test_abort_without_begin_is_loud(self):
        ledger = MigrationLedger()
        with pytest.raises(RuntimeError, match="without a begin"):
            ledger.abort()

    def test_tampering_is_caught(self):
        ledger = MigrationLedger()
        ledger.begin()
        ledger.objects_received += 1  # commit bookkeeping skipped
        with pytest.raises(RuntimeError,
                           match="MigrationLedger conservation violated"):
            ledger.check()

    def test_to_dict_snapshot(self):
        ledger = MigrationLedger()
        ledger.begin()
        ledger.commit()
        ledger.bytes_received += 512
        snapshot = ledger.to_dict()
        assert snapshot["objects_moved"] == 1
        assert snapshot["objects_received"] == 1
        assert snapshot["objects_inflight"] == 0
        assert snapshot["bytes_received"] == 512


class TestCleanJoin:
    def test_join_converges_and_balances(self):
        fleet, ids = make_fleet()
        summary = fleet.join_shard()
        ledger = fleet.ledger()
        assert summary["event"] == "join"
        assert ledger.objects_moved == ledger.objects_received
        assert ledger.objects_inflight == 0
        assert ledger.objects_failed == 0
        # converged: the ring and the holder sets agree on every photo
        assert fleet.rebalancer.plan().photos_affected == 0
        assert fleet.rebalancer.deferred == []
        # every photo is still recoverable at full replication
        scrub = fleet.scrub_and_repair()
        assert scrub.unrecoverable == []
        # the newcomer actually owns a slice of the keyspace
        holders = {h for pid in ids
                   for h in fleet.cluster.replicas.holders(pid)}
        assert summary["shard"] in holders

    def test_leave_drains_the_shard_completely(self):
        fleet, ids = make_fleet()
        leaver = fleet.cluster.stores[1].store_id
        summary = fleet.leave_shard(leaver)
        assert summary["event"] == "leave"
        assert leaver not in fleet.ring
        assert leaver not in [s.store_id for s in fleet.cluster.stores]
        for pid in ids:
            holders = fleet.cluster.replicas.holders(pid)
            assert leaver not in holders
            assert len(holders) == fleet.cluster.replication
        assert fleet.scrub_and_repair().unrecoverable == []

    def test_move_plan_counts(self):
        fleet, ids = make_fleet()
        fleet.ring.add_shard("late-shard")  # ring changed, fleet not yet
        plan = fleet.rebalancer.plan()
        assert plan.photos_affected == len(plan.moves)
        copies = sum(len(add) for add, _drop, _order in plan.moves.values())
        assert copies >= plan.photos_affected or plan.photos_affected == 0
        fleet.ring.remove_shard("late-shard")


class TestDeferral:
    def test_dead_destination_defers_instead_of_losing(self):
        fleet, ids = make_fleet()
        # stage the join by hand so the newcomer can be crashed before
        # the rebalance pass runs
        store = fleet.cluster.join_store("pipestore-late")
        fleet.ring.add_shard("pipestore-late")
        store.fail()
        fleet.rebalancer.rebalance()
        ledger = fleet.ledger()
        # nothing was even attempted onto the dead shard: copy-first
        # means the sources stay authoritative and the photos defer
        assert fleet.rebalancer.deferred != []
        assert ledger.objects_inflight == 0
        for pid in ids:
            assert fleet.cluster.replicas.holders(pid)
        # repair + a later pass converges with zero loss
        store.repair()
        fleet.rebalancer.rebalance()
        assert fleet.rebalancer.plan().photos_affected == 0
        assert fleet.scrub_and_repair().unrecoverable == []


class TestNemesis:
    def test_dropped_rebalance_traffic_keeps_books_balanced(self):
        fleet, ids = make_fleet()
        injector = FaultInjector([
            DropMessages(at=1, count=200, kind="rebalance"),
        ]).attach_fabric(fleet.cluster.network)
        fleet.join_shard()
        ledger = fleet.ledger()
        # every failed copy was aborted, none left inflight or lost
        assert ledger.objects_failed > 0
        assert ledger.objects_inflight == 0
        assert ledger.objects_moved == (ledger.objects_received
                                        + ledger.objects_failed)
        assert int(fleet.metrics.move_failures.value()) \
            == ledger.objects_failed
        injector.detach()
        # once the network heals, the deferred slice migrates cleanly
        fleet.rebalancer.rebalance()
        assert fleet.rebalancer.plan().photos_affected == 0
        assert fleet.scrub_and_repair().unrecoverable == []

    def test_shard_evicted_mid_rebalance_converges_after_repair(self):
        fleet, ids = make_fleet(photos=32)
        victim = fleet.cluster.stores[0].store_id
        # the crash fires on a fabric tick partway through the migration
        # pass, so the victim dies while acting as donor/destination
        injector = FaultInjector([
            StoreCrash(at=6, store_id=victim),
        ]).attach(fleet.cluster)
        fleet.join_shard()
        ledger = fleet.ledger()
        assert ledger.objects_inflight == 0
        ledger.check()
        injector.detach()
        fleet.cluster.stores[victim].repair()
        fleet.rebalancer.rebalance()
        assert fleet.rebalancer.plan().photos_affected == 0
        scrub = fleet.scrub_and_repair()
        assert scrub.unrecoverable == []
        for pid in ids:
            assert len(fleet.cluster.replicas.holders(pid)) \
                == fleet.cluster.replication
