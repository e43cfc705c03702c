"""Frozen stages are held once: every replica shares the published front.

The Tuner's published state holds its master's front value's (read-only)
arrays, and every path a replica is made or moved by hands that value on
by reference — provisioning (``SplitModel.replica``), a tail sync after
its fingerprint matches, a whole-state sync, ``sync_model``, a restore
resolving each model blob's front once, a failover onto a standby
provisioned from the fleet's front.  For each replica kind:

- it holds the master's ``FrozenFront`` object itself;
- an in-place write to any frozen parameter or buffer raises
  ``ValueError``;
- at the Tuner's version each frozen array *is* the published array;
- the classifier stays private and writable, and Adam still steps it.

The wire does not see any of this: a tail sync is still charged the
classifier plus the fingerprint.
"""

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.checknrun import FINGERPRINT_BYTES, state_dict_bytes
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import PipeStore
from repro.models.registry import tiny_model


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


def other_base():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=8)


def slots(model):
    """Every parameter and buffer of ``model`` by key, read in place."""
    arrays = {name: param.data for name, param in model.named_parameters()}
    arrays.update(model.named_buffers())
    return arrays


def assert_immutable_and_shared(model, tuner, where):
    """``model``'s frozen arrays are the published ones and refuse a
    write; its classifier is its own, writable, at the published values
    (the master's own values, for the master)."""
    published = tuner.published
    prefix = tuner.model.classifier_prefix
    assert model.front is tuner.model.front, where
    held = slots(model)
    assert sorted(held) == sorted(published), where
    for key, value in published.items():
        array = held[key]
        if key.startswith(prefix):
            assert array.flags.writeable, (where, key)
            assert not np.shares_memory(array, value), (where, key)
            if model is not tuner.model:
                assert array.tobytes() == value.tobytes(), (where, key)
            continue
        assert array is value, (where, key)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.add(array, 1, out=array)


@pytest.fixture
def cluster(small_world):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, seed=1))
    x, y = small_world.sample(24, 0, rng=np.random.default_rng(3))
    cluster.ingest(x, train_labels=y)
    cluster.finetune(epochs=1)
    return cluster


def assert_fleet_shares(cluster):
    tuner = cluster.tuner
    for store in cluster.stores:
        assert store.model_version == tuner.version
        assert_immutable_and_shared(store.model, tuner, store.store_id)
    assert_immutable_and_shared(tuner.model, tuner, "tuner master")
    assert_immutable_and_shared(cluster.inference_server.model, tuner,
                                "inference server")


class TestEveryReplicaKind:
    def test_master_and_published_state(self, cluster):
        tuner = cluster.tuner
        assert_immutable_and_shared(tuner.model, tuner, "tuner master")
        assert all(tuner.published[key] is array
                   for key, array in tuner.model.front.arrays.items())
        for value in tuner.published.values():
            if not value.flags.writeable:
                with pytest.raises(ValueError, match="read-only"):
                    value.flat[0] = 1

    def test_adam_still_steps_the_master_classifier(self, cluster):
        tuner = cluster.tuner
        before = tuner.model.classifier.state_dict()
        front = {key: value for key, value in slots(tuner.model).items()
                 if not value.flags.writeable}
        cluster.finetune(epochs=1, distribute=False)
        after = tuner.model.classifier.state_dict()
        assert all(not np.array_equal(after[k], before[k]) for k in before)
        assert all(slots(tuner.model)[key] is value
                   for key, value in front.items())

    def test_stores_after_install_and_delta(self, cluster):
        assert_fleet_shares(cluster)

    def test_join(self, cluster):
        store = cluster.join_store("pipestore-3")
        assert_immutable_and_shared(store.model, cluster.tuner, "joined")

    def test_lagging_store_resync(self, cluster):
        laggard = cluster.stores[1]
        laggard.fail()
        cluster.finetune(epochs=1)
        laggard.repair()
        cluster.finetune(epochs=1)
        assert laggard.store_id in cluster.tuner.distributions[-1] \
            .stores_resynced
        assert_fleet_shares(cluster)

    def test_catch_up(self, cluster):
        laggard = cluster.stores[2]
        laggard.fail()
        cluster.finetune(epochs=1)
        laggard.repair()
        cluster.tuner.catch_up(laggard)
        assert_fleet_shares(cluster)

    def test_whole_state_fallback(self, cluster):
        store = cluster.join_store("pipestore-3", base=other_base())
        assert_immutable_and_shared(store.model, cluster.tuner, "other base")

    def test_serving_replicas(self, cluster):
        frontend = cluster.make_serving_frontend()
        for replica in frontend.dispatcher.replicas:
            assert_immutable_and_shared(replica.model, cluster.tuner,
                                        replica.name)

    def test_restored_fleet(self, cluster):
        clone = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=2048, seed=1))
        clone.restore(cluster.checkpoint())
        assert_fleet_shares(clone)
        clone.finetune(epochs=1)  # Adam steps the restored classifier
        assert_fleet_shares(clone)

    def test_ha_standby_after_failover(self):
        from tests.ha.test_failover import crash_mid_finetune

        cluster, ha, _ids, report = crash_mid_finetune()
        assert report is not None and cluster.tuner.name == "tuner-standby"
        assert ha.failover.primary is cluster.tuner
        # the stores kept the deposed primary's front; the new primary
        # took it, so the process still holds one
        assert_fleet_shares(cluster)


class TestTailSyncHandsTheFrontOver:
    def _sync(self, tuner):
        return checknrun.replica_syncs(tuner.published, tuner.split,
                                       tuner.model.front)

    def test_a_matching_build_takes_the_published_arrays(self, cluster):
        tuner = cluster.tuner
        tail, _whole = self._sync(tuner)
        store = PipeStore("fresh")
        build = factory().freeze_features()
        own = {key: value for key, value in slots(build).items()
               if not value.flags.writeable}
        store.install_model(tail, tuner.version, base=build)
        assert_immutable_and_shared(store.model, tuner, "fresh")
        assert all(slots(store.model)[key] is not value
                   for key, value in own.items())

    def test_the_wire_is_charged_the_tail_and_fingerprint(self, cluster):
        tuner = cluster.tuner
        tail, whole = self._sync(tuner)
        prefix = tuner.model.classifier_prefix
        assert tail.num_bytes == state_dict_bytes({
            key: value for key, value in tuner.published.items()
            if key.startswith(prefix)}) + FINGERPRINT_BYTES
        assert whole.num_bytes == state_dict_bytes(tuner.published)
        assert tail.front is whole.front is tuner.model.front
        assert sorted(tail.front.arrays) == sorted(
            key for key in tuner.published if not key.startswith(prefix))

    def test_an_other_base_keeps_its_own_until_the_whole_state(self, cluster):
        tuner = cluster.tuner
        tail, whole = self._sync(tuner)
        store = PipeStore("other")
        build = other_base().freeze_features()
        own = slots(build)
        with pytest.raises(checknrun.BaseMismatchError):
            store.install_model(tail, tuner.version, base=build)
        assert all(slots(build)[key] is value for key, value in own.items())
        store.install_model(whole, tuner.version, base=build)
        assert_immutable_and_shared(store.model, tuner, "other base")

    def test_other_bytes_are_refused(self, cluster):
        """A front one array apart from the published one is another
        value with another digest: the tail sync is refused and the
        store keeps the front it holds."""
        tuner = cluster.tuner
        tail, _whole = self._sync(tuner)
        build = factory().freeze_features()
        key = next(iter(build.front.arrays))
        build.adopt({key: build.front.arrays[key] + 1})
        own = build.front
        assert own is not tuner.model.front
        assert own.digest[:FINGERPRINT_BYTES] != tail.fingerprint
        store = PipeStore("odd")
        with pytest.raises(checknrun.BaseMismatchError):
            store.install_model(tail, tuner.version, base=build)
        assert build.front is own
