"""Serving across store recover()/reconcile(): no drop, no double-count.

Satellite coverage for the robustness PR: the batched upload path
(:meth:`NDPipeCluster.serve_uploads`, i.e. ServingFrontend) and the
streaming front end both keep their conservation guarantees while a
store crashes, is evicted, recovers, and reconciles mid-trace.
"""

import numpy as np

from repro.core.cluster import InferenceServer, NDPipeCluster
from repro.core.config import ClusterConfig
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.models.registry import tiny_model
from repro.serving import ServeRequest, ServingConfig, StreamConfig
from repro.serving.stream import StreamingFrontend


def build_cluster(replication=2):
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0))
    cluster = NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ClusterConfig(num_stores=3, nominal_raw_bytes=8192,
                      replication=replication, seed=0))
    return cluster, world


def make_requests(world, tag, n, day=0, seed=0):
    x, y = world.sample(n, day, rng=np.random.default_rng(seed))
    return [
        ServeRequest(request_id=f"{tag}-{i}", arrival_s=i * 0.005,
                     pixels=x[i], train_label=int(y[i]))
        for i in range(n)
    ]


def assert_conserved(report, ids):
    assert report.offered == report.completed + report.shed_total
    assert len(ids) == report.completed


class TestServeUploadsAcrossRecovery:
    def test_no_drop_no_double_count_across_recover(self):
        cluster, world = build_cluster()
        victim = cluster.stores[0]

        r1, ids1 = cluster.serve_uploads(make_requests(world, "a", 6, seed=1))
        assert_conserved(r1, ids1)

        victim.fail()
        cluster.reingest_orphans(victim.store_id)
        r2, ids2 = cluster.serve_uploads(make_requests(world, "b", 6, seed=2))
        assert_conserved(r2, ids2)

        cluster.recover(victim.store_id)  # repair + catch_up + reconcile
        r3, ids3 = cluster.serve_uploads(make_requests(world, "c", 6, seed=3))
        assert_conserved(r3, ids3)

        landed = ids1 + ids2 + ids3
        # every completed upload got a unique durable id (no double-count)
        assert len(landed) == len(set(landed))
        for pid in landed:  # ...and none were dropped by the recovery
            record = cluster.database.lookup(pid)
            store = cluster.stores[record.location]
            assert store.is_available
            assert store.objects.exists(store.objects.raw_key(pid))
            primary = cluster.replicas.primary(pid)
            assert primary == record.location

    def test_mid_outage_uploads_avoid_the_downed_store(self):
        cluster, world = build_cluster()
        victim = cluster.stores[0]
        victim.fail()
        report, ids = cluster.serve_uploads(make_requests(world, "x", 8))
        assert_conserved(report, ids)
        for pid in ids:
            assert cluster.database.lookup(pid).location != victim.store_id
            assert not cluster.replicas.is_holder(pid, victim.store_id)

    def test_reconcile_after_eviction_keeps_serving_consistent(self):
        cluster, world = build_cluster(replication=1)
        _, ids1 = cluster.serve_uploads(make_requests(world, "a", 6, seed=1))
        victim = cluster.stores[0]
        victim.fail()
        moved = cluster.reingest_orphans(victim.store_id)
        assert moved  # journalled uploads re-placed onto survivors
        victim.repair()
        evicted = cluster.reconcile(victim.store_id)
        assert sorted(evicted) == sorted(moved)
        r2, ids2 = cluster.serve_uploads(make_requests(world, "b", 6, seed=2))
        assert_conserved(r2, ids2)
        assert not set(ids1) & set(ids2)


class TestStreamingAcrossDrain:
    def make_frontend(self):
        config = ServingConfig(replicas=2).validated()

        def factory(index):
            return InferenceServer(
                tiny_model("ResNet50", num_classes=8, width=8, seed=index),
                name=f"stream-replica-{index}")

        stream = StreamConfig(min_replicas=2, max_replicas=2,
                              autoscale=False)
        return StreamingFrontend(factory, config, stream)

    def trace(self, tag, start_s, n=16):
        """One arrival burst; bursts advance in time because the replica
        timeline persists across serve() calls on a reused front end."""
        rng = np.random.default_rng(3)
        pixels = rng.random((n, 3, 16, 16)).astype(np.float32)
        return [
            ServeRequest(request_id=f"{tag}-{i}",
                         arrival_s=start_s + i * 0.002, pixels=pixels[i])
            for i in range(n)
        ]

    def test_conserved_while_replica_drained_and_rejoined(self):
        frontend = self.make_frontend()
        report = frontend.serve(self.trace("warm", 0.0))
        assert report.conserved

        assert frontend.dispatcher.drain("stream-replica-0")
        free_before = frontend.dispatcher._free_at[0]
        report = frontend.serve(self.trace("drained", 1.0))
        assert report.conserved
        # the drained replica did no work during the outage window
        assert frontend.dispatcher._free_at[0] == free_before

        assert frontend.dispatcher.undrain("stream-replica-0")
        report = frontend.serve(self.trace("rejoined", 2.0))
        assert report.conserved
        assert frontend.dispatcher._free_at[0] > free_before
