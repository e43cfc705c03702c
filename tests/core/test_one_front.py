"""One front per fleet: the model factory runs once, the front is one value.

A cluster calls ``model_factory()`` once, for the Tuner's master; its
frozen stages become one immutable ``FrozenFront`` and every other
replica — each store, the inference server, serving replicas, the HA
standby, a restored fleet's replicas — is provisioned from it by
reference.  So, counted:

- one factory call per cluster, whatever the fleet does afterwards;
- one digest per value (a restore adds one per distinct model blob it
  resolves), and one set of BatchNorm folds per value;
- ``train(True)`` on the Tuner leaves the front in eval mode;
- rebinding the fleet to another front leaves the old value and its
  folds garbage.

Which object each replica kind holds is pinned in
``test_frozen_sharing.py``.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ClusterConfig, NDPipeCluster
from repro.models.registry import tiny_model
from repro.models.split import FrozenFront
from repro.nn.layers import BatchNorm2d
from repro.placement.config import ShardConfig
from repro.placement.fleet import ShardedCluster
from repro.workloads.continuous import open_loop_requests


class Factory:
    """A model factory that counts its builds."""

    def __init__(self, seed=7):
        self.seed = seed
        self.builds = 0

    def __call__(self):
        self.builds += 1
        return tiny_model("ResNet50", num_classes=8, width=8, seed=self.seed)


@pytest.fixture
def counted(monkeypatch):
    """Counts of front digests and BatchNorm folds computed."""
    counts = {"digests": 0, "folds": 0}
    digest, scale_shift = FrozenFront._digest, BatchNorm2d._scale_shift

    def counting_digest(front, *args):
        counts["digests"] += 1
        return digest(front, *args)

    def counting_fold(bn):
        counts["folds"] += 1
        return scale_shift(bn)

    monkeypatch.setattr(FrozenFront, "_digest", counting_digest)
    monkeypatch.setattr(BatchNorm2d, "_scale_shift", counting_fold)
    return counts


def batchnorms(front):
    return sum(isinstance(module, BatchNorm2d)
               for stage in front.stages for module in stage.modules())


def lifecycle(cluster, world, seed=3):
    x, y = world.sample(24, 0, rng=np.random.default_rng(seed))
    cluster.ingest(x, train_labels=y)
    cluster.finetune(epochs=1)
    cluster.offline_relabel(only_outdated=False)


def test_a_cluster_builds_once_and_hashes_and_folds_once(small_world,
                                                         counted):
    factory = Factory()
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, seed=1))
    lifecycle(cluster, small_world)
    cluster.serve_uploads(open_loop_requests(12, 500.0, seed=3, pool_size=6))
    cluster.join_store("pipestore-3")
    laggard = cluster.stores[1]
    laggard.fail()
    cluster.finetune(epochs=1)
    laggard.repair()
    cluster.tuner.catch_up(laggard)
    cluster.make_serving_frontend()
    cluster.enable_ha()
    cluster.finetune(epochs=1)
    assert factory.builds == 1
    assert counted["digests"] == 1
    assert counted["folds"] == batchnorms(cluster.tuner.model.front)


def test_a_sharded_fleet_builds_once(small_world, counted):
    factory = Factory()
    fleet = ShardedCluster(factory, ShardConfig(num_shards=3, replication=2))
    x, y = small_world.sample(16, 0, rng=np.random.default_rng(4))
    fleet.ingest(x, train_labels=y)
    fleet.finetune(epochs=1)
    fleet.join_shard()
    fleet.offline_relabel(only_outdated=False)
    assert factory.builds == 1
    assert counted["digests"] == 1
    assert counted["folds"] == batchnorms(fleet.tuner.model.front)


def test_a_restore_hashes_each_model_blob_once(small_world, counted):
    cluster = NDPipeCluster(Factory(), ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, seed=1))
    lifecycle(cluster, small_world)
    cluster.stores[2].fail()
    cluster.finetune(epochs=1)  # pipestore-2 stays a version behind
    cluster.stores[2].repair()
    blob = cluster.checkpoint()
    factory = Factory()
    clone = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, seed=1))
    before = counted["digests"]
    clone.restore(blob)
    # the published blob (the Tuner's and two stores') and the laggard's
    assert counted["digests"] - before == 2
    assert factory.builds == 1
    front = clone.tuner.model.front
    assert all(store.model.front is front for store in clone.stores)
    assert clone.inference_server.model.front is front


def test_train_mode_on_the_tuner_leaves_the_front_in_eval(small_world):
    cluster = NDPipeCluster(Factory(), ClusterConfig(
        num_stores=2, nominal_raw_bytes=2048, seed=1))
    tuner = cluster.tuner
    tuner.model.train(True)
    assert tuner.model.training and tuner.model.classifier.training
    front = tuner.model.front
    assert all(store.model.front is front for store in cluster.stores)
    assert not any(module.training for stage in front.stages
                   for module in stage.modules())
    key, array = next(iter(front.arrays.items()))
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0


def test_a_swapped_front_and_its_folds_are_garbage(small_world):
    """Restoring a checkpoint of another front rebinds every replica;
    nothing still holds the fleet's old value, its arrays or its folds."""
    donor = NDPipeCluster(Factory(seed=8), ClusterConfig(
        num_stores=2, nominal_raw_bytes=2048, seed=1))
    lifecycle(donor, small_world)
    blob = donor.checkpoint()
    cluster = NDPipeCluster(Factory(), ClusterConfig(
        num_stores=2, nominal_raw_bytes=2048, seed=1))
    lifecycle(cluster, small_world, seed=5)
    old = cluster.tuner.model.front
    folds = [module._derived[0].data for stage in old.stages
             for module in stage.modules()
             if isinstance(module, BatchNorm2d) and module._derived]
    assert folds
    refs = [weakref.ref(old)] + [weakref.ref(a) for a in old.arrays.values()]
    refs += [weakref.ref(fold) for fold in folds]
    del old, folds
    cluster.restore(blob)
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * len(refs)
    front = cluster.tuner.model.front
    assert front.digest == donor.tuner.model.front.digest
    assert all(store.model.front is front for store in cluster.stores)
    assert cluster.inference_server.model.front is front
