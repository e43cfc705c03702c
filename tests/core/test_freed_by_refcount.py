"""A dropped fleet is freed by reference counting, not by the collector.

A cluster whose planes, placement policies or metric families point back
at their owners is cyclic garbage once dropped: it lives until the cycle
collector runs, so peak memory depends on when that happens.  The back
references are weak (the planes' ``cluster``, a placement's ``plane``, a
``ChildMap``'s family) or gone (a metric child keeps its family's name),
so with the collector off a dropped ``NDPipeCluster``, ``ShardedCluster``
and the frontend ``serve_uploads`` builds for one call die at once.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ClusterConfig, NDPipeCluster
from repro.models.registry import tiny_model
from repro.placement.config import ShardConfig
from repro.placement.fleet import ShardedCluster
from repro.workloads.continuous import open_loop_requests


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def parts(cluster):
    """Weak references to a cluster and what it owns."""
    metrics = cluster.metrics
    owned = [cluster, cluster.dataplane, cluster.dataplane.placement,
             cluster.control, cluster.tuner, cluster.tuner.model.front,
             metrics, cluster.inference_server, cluster.network,
             *cluster.stores, *(metrics.get(name) for name in metrics.names())]
    return [weakref.ref(part) for part in owned]


def work(cluster, world, **ingest):
    x, y = world.sample(24, 0, rng=np.random.default_rng(3))
    cluster.ingest(x, train_labels=y, **ingest)
    cluster.finetune(epochs=1)
    cluster.offline_relabel(only_outdated=False)


def test_a_dropped_cluster_is_dead(small_world, no_collector):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=2, nominal_raw_bytes=2048, seed=1))
    work(cluster, small_world)
    cluster.checkpoint()
    refs = parts(cluster)
    del cluster
    assert [ref() is None for ref in refs] == [True] * len(refs)


def test_a_dropped_sharded_cluster_is_dead(small_world, no_collector):
    fleet = ShardedCluster(factory, ShardConfig(num_shards=3, replication=2))
    work(fleet, small_world, tenant="default")
    fleet.join_shard()
    refs = parts(fleet.cluster) + [weakref.ref(fleet),
                                   weakref.ref(fleet.rebalancer)]
    del fleet
    assert [ref() is None for ref in refs] == [True] * len(refs)


def test_the_serving_frontend_dies_with_its_call(no_collector, monkeypatch):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=2, nominal_raw_bytes=2048, seed=1))
    made = []
    make = NDPipeCluster.make_serving_frontend

    def spy(self, config=None):
        frontend = make(self, config)
        made.append(weakref.ref(frontend))
        made.extend(weakref.ref(replica)
                    for replica in frontend.dispatcher.replicas)
        return frontend

    monkeypatch.setattr(NDPipeCluster, "make_serving_frontend", spy)
    report, ids = cluster.serve_uploads(
        open_loop_requests(20, 500.0, seed=0, pool_size=8))
    assert ids and len(made) > 1
    assert [ref() is None for ref in made] == [True] * len(made)
