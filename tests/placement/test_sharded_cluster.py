"""ShardedCluster end-to-end: the fleet behind the familiar cluster API.

Covers the façade's own surface (multi-tenant ingest, fan-out
distribution, membership) plus the two regressions the ISSUE calls out:
fresh ingest routes around a store whose link went slow (the
``_next_available_store`` queue-depth fix, driven by an ``AddLatency``
budget pinned to one destination), and the ``repro.placement`` package
no longer serves the data-plane aliases it once deprecated.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.core.pipestore import StoreUnavailableError
from repro.durability.checkpoint import read_frame
from repro.faults import AddLatency, FaultInjector
from repro.models.registry import tiny_model
from repro.placement import (
    ShardConfig,
    ShardedCluster,
    TenantConfig,
    UnknownTenantError,
)

SEED = 5


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


def make_fleet(num_shards=4, replication=1, tenants=(), **shard_kwargs):
    return ShardedCluster(
        factory,
        ShardConfig(num_shards=num_shards, vnodes=16,
                    replication=replication, ring_seed=SEED,
                    **shard_kwargs),
        tenants=tenants)


def images_of(n, fleet, seed=SEED):
    rng = np.random.default_rng(seed)
    shape = tuple(fleet.cluster.tuner.model.input_shape)
    return (rng.random((n,) + shape).astype(np.float32),
            rng.integers(0, 8, size=n))



def placement_summary(fleet):
    """Photos per shard, from the authoritative database."""
    counts = {store.store_id: 0 for store in fleet.cluster.stores}
    for pid in fleet.cluster.database.snapshot_labels():
        location = fleet.cluster.database.lookup(pid).location
        counts[location] = counts.get(location, 0) + 1
    return counts


class TestMultiTenantIngest:
    def test_ids_are_tenant_qualified(self):
        fleet = make_fleet(tenants=[TenantConfig(name="acme")])
        images, labels = images_of(6, fleet)
        ids, rejections = fleet.ingest(images, tenant="acme",
                                       train_labels=labels)
        assert rejections == []
        assert len(ids) == 6
        for pid in ids:
            assert pid.startswith("acme/")
            assert fleet.cluster.database.lookup(pid).location \
                in fleet.ring.shards

    def test_each_upload_is_preprocessed_once_and_labelled_the_same(
            self, monkeypatch):
        """ingest classifies the tensor it stores: one pass through the
        front door (``quantise``) and one forward per ``batch_size``
        chunk, labels equal to ``classify(pixels)``, confidences within
        the batched-vs-single tolerance of ``tests/test_equivalence.py``,
        and the stored tensor ``preprocess`` of the rounded pixels."""
        from repro.core import dataplane
        from repro.storage.imageformat import preprocess

        calls = []
        real = dataplane.quantise
        monkeypatch.setattr(
            dataplane, "quantise",
            lambda pixels: calls.append(len(pixels)) or real(pixels))
        fleet = make_fleet(replication=2)
        chunk = fleet.cluster.config.batch_size
        images, labels = images_of(chunk + 5, fleet)
        ids, _ = fleet.ingest(images, train_labels=labels)
        assert calls == [chunk, 5]
        calls.clear()
        server = fleet.cluster.inference_server
        for pid, pixels in zip(ids, images):
            record = fleet.cluster.database.lookup(pid)
            label, confidence = server.classify(pixels)
            assert record.label == label
            np.testing.assert_allclose(record.confidence, confidence,
                                       rtol=1e-9, atol=1e-12)
            store = fleet.cluster.stores[record.location]
            np.testing.assert_array_equal(
                store.load_preprocessed(pid),
                preprocess(dataplane.quantise(pixels) / 255))

    def test_one_call_equals_fifty_one_photo_calls(self):
        """Chunking is scheduling: against 50 one-photo calls the ids,
        locations, holders, rejections and every traffic byte agree
        exactly and only the confidences move (by GEMM reduction order).
        ``acme``'s byte quota fills in the middle of the chunk."""
        images, labels = images_of(50, make_fleet())
        tenants = [TenantConfig(name="acme",
                                byte_quota=30 * int(images[0].nbytes))]
        chunked = make_fleet(replication=2, tenants=tenants)
        ids, rejections = chunked.ingest(images, tenant="acme",
                                         train_labels=labels)
        single = make_fleet(replication=2, tenants=tenants)
        single_ids, single_rejections = [], []
        for i in range(len(images)):
            got, refused = single.ingest(images[i:i + 1], tenant="acme",
                                         train_labels=labels[i:i + 1])
            single_ids += got
            single_rejections += refused
        assert ids == single_ids and len(ids) == 30
        assert rejections == single_rejections == ["byte-quota"] * 20
        for pid in ids:
            a = single.cluster.database.lookup(pid)
            b = chunked.cluster.database.lookup(pid)
            assert (a.label, a.location) == (b.label, b.location), pid
            assert single.cluster.replicas.holders(pid) \
                == chunked.cluster.replicas.holders(pid), pid
            np.testing.assert_allclose(a.confidence, b.confidence,
                                       rtol=1e-9, atol=1e-12)
        assert single.traffic_summary() == chunked.traffic_summary()
        assert single.tenants.to_dict() == chunked.tenants.to_dict()
        assert single.cluster.dataplane.loads() \
            == chunked.cluster.dataplane.loads()

    def test_failed_landing_releases_the_unlanded_quota_charge(self):
        """Regression: a photo admitted but never landed stayed charged
        against its tenant's byte quota with nothing resident."""
        images, labels = images_of(12, make_fleet())
        per_image = int(images[0].nbytes)
        fleet = make_fleet(tenants=[
            TenantConfig(name="acme", byte_quota=12 * per_image)])
        plane = fleet.cluster.dataplane
        land = plane.land_upload

        def land_then_lose_the_fleet(*args, **kwargs):
            if plane.ingest_counter == 5:  # mid-chunk
                for store in fleet.cluster.stores:
                    store.fail()
            return land(*args, **kwargs)

        plane.land_upload = land_then_lose_the_fleet
        with pytest.raises(StoreUnavailableError):
            fleet.ingest(images, tenant="acme", train_labels=labels)
        books = fleet.tenants.to_dict()["acme"]
        assert books["admitted"] == 12
        assert books["charged"] == books["resident"] + books["released"]
        assert books["resident"] == len(fleet.cluster.database) == 5
        assert books["resident_bytes"] == 5 * per_image
        # the freed quota is usable again once a store is back
        fleet.cluster.stores[0].repair()
        ids, rejections = fleet.ingest(images[:7], tenant="acme")
        assert len(ids) == 7 and rejections == []

    def test_quota_rejections_do_not_consume_ids(self):
        images, _ = images_of(4, make_fleet())
        per_image = int(images[0].nbytes)
        fleet = make_fleet(tenants=[
            TenantConfig(name="acme", byte_quota=2 * per_image)])
        ids, rejections = fleet.ingest(images, tenant="acme")
        assert len(ids) == 2
        assert rejections == ["byte-quota", "byte-quota"]
        assert len(fleet.cluster.database) == 2
        books = fleet.tenants.to_dict()["acme"]
        assert books["offered"] == 4
        assert books["admitted"] == 2
        assert books["rejected"] == 2

    def test_unknown_tenant_is_loud(self):
        fleet = make_fleet(tenants=[TenantConfig(name="acme")])
        images, _ = images_of(1, fleet)
        with pytest.raises(UnknownTenantError):
            fleet.ingest(images, tenant="globex")

    def test_bad_shapes_rejected(self):
        fleet = make_fleet()
        with pytest.raises(ValueError, match="expected"):
            fleet.ingest(np.zeros((3, 16, 16), dtype=np.float32))
        images, _ = images_of(2, fleet)
        with pytest.raises(ValueError, match="train_labels"):
            fleet.ingest(images, train_labels=[1])

    def test_placement_summary_accounts_every_photo(self):
        fleet = make_fleet()
        images, labels = images_of(20, fleet)
        ids, _ = fleet.ingest(images, train_labels=labels)
        summary = placement_summary(fleet)
        assert sum(summary.values()) == len(ids)
        assert int(fleet.metrics.placements.total()) == len(ids)


class TestFanoutDistribution:
    def test_fanout_moves_fewer_tuner_bytes_at_equal_freshness(self):
        egress, versions = {}, {}
        for strategy in ("unicast", "fanout"):
            fleet = make_fleet(num_shards=8)
            images, labels = images_of(16, fleet)
            fleet.ingest(images, train_labels=labels)
            net, tuner = fleet.cluster.network, fleet.cluster.tuner.name
            before = sum(net.bytes_between(tuner, s.store_id)
                         for s in fleet.cluster.stores)
            fleet.finetune(epochs=1, num_runs=1,
                           fanout=(strategy == "fanout"))
            egress[strategy] = sum(
                net.bytes_between(tuner, s.store_id)
                for s in fleet.cluster.stores) - before
            versions[strategy] = sorted(
                {s.model_version for s in fleet.cluster.stores})
        assert egress["fanout"] < egress["unicast"]
        assert versions["fanout"] == versions["unicast"]
        assert len(versions["fanout"]) == 1

    def test_fanout_metrics_split_uplink_and_relay(self):
        fleet = make_fleet(num_shards=8, fanout=2)
        images, labels = images_of(16, fleet)
        fleet.ingest(images, train_labels=labels)
        fleet.finetune(epochs=1, num_runs=1)
        uplinks = int(fleet.metrics.fanout_sends.value(hop="uplink"))
        relays = int(fleet.metrics.fanout_sends.value(hop="relay"))
        assert uplinks == 2  # the Tuner pays min(fanout, N) sends
        assert uplinks + relays == len(fleet.cluster.stores)
        assert int(fleet.metrics.fanout_rounds.value()) == 1

    def test_unicast_fallback_is_plain_distribute(self):
        fleet = make_fleet(num_shards=3)
        images, labels = images_of(6, fleet)
        fleet.ingest(images, train_labels=labels)
        fleet.finetune(epochs=1, num_runs=1, fanout=False)
        assert int(fleet.metrics.fanout_rounds.value()) == 0
        assert {s.model_version for s in fleet.cluster.stores} \
            == {fleet.cluster.tuner.version}

    def test_fanout_routes_around_a_down_store(self):
        fleet = make_fleet(num_shards=6)
        images, labels = images_of(12, fleet)
        fleet.ingest(images, train_labels=labels)
        down = fleet.cluster.stores[0]
        down.fail()
        stats = fleet.distribute()
        assert down.store_id in stats.stores_missed
        alive = [s for s in fleet.cluster.stores if s is not down]
        assert {s.model_version for s in alive} \
            == {fleet.cluster.tuner.version}


class TestLoadAwarePlacement:
    def test_slowed_store_receives_fewer_placements(self):
        """Regression for the queue-depth blind spot: a store whose link
        is slow used to keep receiving its full round-robin share."""
        def run(slow_store=None):
            fleet = make_fleet()
            if slow_store is not None:
                FaultInjector([
                    AddLatency(at=1, seconds=1.0, count=10_000,
                               kind="ingest", dst=slow_store),
                ]).attach_fabric(fleet.cluster.network)
            images, labels = images_of(40, fleet)
            fleet.ingest(images, train_labels=labels)
            return fleet, placement_summary(fleet)

        baseline_fleet, baseline = run()
        slow = max(baseline, key=baseline.get)
        slowed_fleet, slowed = run(slow_store=slow)
        # the slowed store sheds most of its keyspace to ring successors
        assert slowed[slow] < baseline[slow]
        assert sum(slowed.values()) == sum(baseline.values()) == 40
        # the slow link forces strictly more bound-exceeded diversions
        # than the organic imbalance of an unperturbed fleet
        assert int(slowed_fleet.metrics.load_skips.value()) \
            > int(baseline_fleet.metrics.load_skips.value())
        # the diversion is visible in the observed queue depths
        loads = slowed_fleet.cluster.dataplane.loads()
        assert loads[slow] == max(loads.values())


    def test_routing_around_a_down_shard_is_not_a_load_skip(self):
        """Regression: ``shard_load_skips_total`` also counted uploads
        whose ring primary was merely down."""
        fleet = make_fleet()
        # equal loads: nobody is over the bound, so nothing is skipped
        fleet.cluster.dataplane.queue_depth = lambda store_id: 1.0
        images, labels = images_of(40, fleet)
        down = fleet.ring.primary("default/photo-00000000")
        fleet.cluster.stores[down].fail()
        ids, _ = fleet.ingest(images, train_labels=labels)
        assert placement_summary(fleet)[down] == 0
        assert any(fleet.ring.primary(pid) == down for pid in ids)
        assert int(fleet.metrics.load_skips.value()) == 0


class TestMembershipAccounting:
    def test_join_summary_is_exact(self):
        fleet = make_fleet(replication=2)
        images, labels = images_of(24, fleet)
        fleet.ingest(images, train_labels=labels)
        summary = fleet.join_shard()
        assert summary["num_shards"] == 5
        assert summary["photos_total"] == 24
        assert summary["objects_total"] == 48
        copies = summary["copies"]
        assert copies["objects_moved"] == copies["objects_received"]
        assert copies["objects_inflight"] == 0
        assert summary["moved_fraction"] == \
            copies["objects_moved"] / summary["objects_total"]
        assert int(fleet.metrics.shard_count.value()) == 5

    def test_leave_shrinks_the_fleet_everywhere(self):
        fleet = make_fleet(replication=2)
        images, labels = images_of(12, fleet)
        fleet.ingest(images, train_labels=labels)
        leaver = fleet.cluster.stores[-1].store_id
        fleet.leave_shard(leaver)
        assert leaver not in fleet.ring
        assert leaver not in [s.store_id for s in fleet.cluster.stores]
        assert leaver not in [s.store_id
                              for s in fleet.cluster.tuner.stores]
        assert int(fleet.metrics.shard_count.value()) == 3

    def test_joined_store_receives_future_model_updates(self):
        fleet = make_fleet(num_shards=3)
        images, labels = images_of(9, fleet)
        fleet.ingest(images, train_labels=labels)
        summary = fleet.join_shard()
        fleet.finetune(epochs=1, num_runs=1)
        newcomer = fleet.cluster.stores[summary["shard"]]
        assert newcomer.model_version == fleet.cluster.tuner.version


class TestCheckpointRestore:
    @staticmethod
    def v2_snapshot_len(objects) -> int:
        """What the parent's store snapshot of ``objects`` weighed: a
        ``>4sBQI`` header, one level-1 deflate frame over every object's
        full nominal bytes, a CRC32 trailer."""
        body = b"".join(
            struct.pack(">H", len(key.encode())) + key.encode()
            + struct.pack(">II", objects.stored_crc(key), len(blob)) + blob
            for key, blob in objects.iter_items())
        return 17 + 4 + len(zlib.compress(body, 1)) + 4

    def test_restored_fleet_is_byte_identical_at_the_parents_size(self):
        fleet = make_fleet(num_shards=4, replication=2,
                           tenants=[TenantConfig(name="acme")])
        images, labels = images_of(48, fleet)
        fleet.ingest(images, tenant="acme", train_labels=labels)
        fleet.finetune(epochs=1)  # the round leaves feat/ rows behind
        assert all(s.objects.keys("feat/") for s in fleet.stores)
        blob = fleet.checkpoint()

        restored = make_fleet(num_shards=4, replication=2,
                              tenants=[TenantConfig(name="acme")])
        restored.restore(blob)
        for source, clone in zip(fleet.stores, restored.stores):
            assert clone.objects.keys() == source.objects.keys()
            assert (clone.objects.volume.used_bytes
                    == source.objects.volume.used_bytes)
            for key, stored in source.objects.iter_items():
                assert clone.objects.peek(key) == stored
                assert (clone.objects.stored_crc(key)
                        == source.objects.stored_crc(key))
        assert (restored.database.snapshot_labels()
                == fleet.database.snapshot_labels())
        assert restored.checkpoint() == blob

        manifest, blobs = read_frame(blob)
        now = sum(len(blobs[entry["objects_blob"]])
                  for entry in manifest["stores"])
        was = sum(self.v2_snapshot_len(s.objects) for s in fleet.stores)
        assert len(blob) <= 1.01 * (len(blob) - now + was)


class TestFacade:
    def test_everything_else_delegates_to_the_cluster(self):
        fleet = make_fleet()
        assert fleet.stores is fleet.cluster.stores
        assert fleet.database is fleet.cluster.database
        assert fleet.config.num_stores == 4
        assert fleet.replication == 1
        with pytest.raises(AttributeError):
            fleet.no_such_attribute

    def test_shard_config_is_validated(self):
        with pytest.raises(ValueError, match="replication"):
            ShardedCluster(factory,
                           ShardConfig(num_shards=2, replication=3))


class TestDeprecatedAliases:
    """The PEP 562 aliases are gone; the data-plane symbols have one home."""

    @pytest.mark.parametrize("name", ["RingPlacement",
                                      "RoundRobinPlacement",
                                      "IngestDataPlane"])
    def test_removed_alias_raises(self, name):
        import repro.core.dataplane as dataplane
        import repro.placement as placement

        with pytest.raises(AttributeError, match=name):
            getattr(placement, name)
        assert hasattr(dataplane, name)

    def test_unknown_attribute_still_raises(self):
        import repro.placement as placement

        with pytest.raises(AttributeError, match="NoSuchThing"):
            placement.NoSuchThing

    def test_dir_lists_curated_api(self):
        import repro.placement as placement

        listing = dir(placement)
        assert "ShardedCluster" in listing
        assert "RingPlacement" not in listing

    def test_top_level_exports(self):
        import repro

        assert repro.ShardedCluster is ShardedCluster
        assert "ShardConfig" in repro.__all__
