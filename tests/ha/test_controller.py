"""HAController: store eviction/rejoin automation, replica drains."""

import numpy as np

from repro.core.cluster import InferenceServer, NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.fabric import NetworkFabric
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.faults.retry import RetryPolicy
from repro.ha import HAConfig
from repro.models.registry import tiny_model
from repro.serving import ReplicaDispatcher, ServingConfig


def build_cluster(num_photos=12, replication=1):
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0))
    cluster = NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ClusterConfig(num_stores=3, nominal_raw_bytes=8192,
                      replication=replication, seed=0))
    x, y = world.sample(num_photos, 0, rng=np.random.default_rng(1))
    cluster.ingest(x, train_labels=y)
    return cluster


class TestStoreMembership:
    def test_suspected_store_is_evicted_automatically(self):
        cluster = build_cluster()
        ha = cluster.enable_ha(HAConfig(standby=False))
        victim = cluster.stores[0]
        stranded = cluster.database.ids_at(victim.store_id)
        assert stranded
        victim.fail()
        events = ha.poll_until_quiet()
        assert ("suspect", victim.store_id) in events
        assert ha.metrics.store_evictions.value(store=victim.store_id) == 1
        # what test code used to drive by hand happened by itself:
        # every journalled photo moved to a survivor
        for pid in stranded:
            assert cluster.database.lookup(pid).location != victim.store_id
        assert (ha.metrics.orphans_reingested.value(store=victim.store_id)
                == len(stranded))

    def test_heard_again_store_rejoins_through_recover(self):
        cluster = build_cluster()
        ha = cluster.enable_ha(HAConfig(standby=False))
        victim = cluster.stores[0]
        victim.fail()
        ha.poll_until_quiet()
        victim.repair()
        events = ha.poll_until_quiet()
        assert ("rejoin", victim.store_id) in events
        assert ha.metrics.store_rejoins.value(store=victim.store_id) == 1
        # recover() reconciled: no photo the cluster moved away is still
        # claimed by the rejoined store
        for pid in victim.photo_ids():
            record = cluster.database.lookup(pid)
            assert (record.location == victim.store_id
                    or cluster.replicas.is_holder(pid, victim.store_id))

    def test_auto_evict_can_be_disabled(self):
        cluster = build_cluster()
        ha = cluster.enable_ha(HAConfig(standby=False, auto_evict=False))
        victim = cluster.stores[0]
        stranded = cluster.database.ids_at(victim.store_id)
        victim.fail()
        events = ha.poll_until_quiet()
        assert ("suspect", victim.store_id) in events
        for pid in stranded:  # detector observed, but did not react
            assert cluster.database.lookup(pid).location == victim.store_id

    def test_enable_ha_is_idempotent(self):
        cluster = build_cluster(num_photos=2)
        ha = cluster.enable_ha(HAConfig(standby=False))
        assert cluster.enable_ha() is ha


def make_dispatcher(num=2):
    replicas = [
        InferenceServer(tiny_model("ResNet50", num_classes=8, width=8,
                                   seed=i), name=f"replica-{i}")
        for i in range(num)
    ]
    return ReplicaDispatcher(replicas, ServingConfig(replicas=num).validated(),
                             NetworkFabric(), RetryPolicy())


class TestDispatcherDrain:
    def test_drain_is_a_state_change_once(self):
        disp = make_dispatcher()
        assert disp.drain("replica-0") is True
        assert disp.drain("replica-0") is False
        assert disp.drain("no-such-replica") is False
        assert disp.drained() == ["replica-0"]
        assert disp.undrain("replica-0") is True
        assert disp.undrain("replica-0") is False

    def test_drained_replica_gets_no_batches(self):
        disp = make_dispatcher()
        disp._free_at = [0.0, 5.0]  # replica-0 would win on free time
        disp.drain("replica-0")
        assert disp.pick_replica() == 1

    def test_all_drained_degrades_to_full_fleet(self):
        disp = make_dispatcher()
        disp._free_at = [3.0, 5.0]
        disp.drain("replica-0")
        disp.drain("replica-1")
        assert disp.pick_replica() == 0  # serve anyway, earliest free

    def test_retired_replica_leaves_the_drained_set(self):
        disp = make_dispatcher()
        disp.drain("replica-1")
        assert disp.remove_idle_replica(now_s=10.0) == "replica-1"
        assert disp.drained() == []


class TestReplicaMembership:
    def test_controller_drains_and_undrains_replicas(self):
        cluster = build_cluster(num_photos=2)
        ha = cluster.enable_ha(HAConfig(standby=False))
        disp = make_dispatcher()
        ha.attach_dispatcher(disp)
        alive = {"up": True}
        ha.register_member("replica-0", lambda: alive["up"], kind="replica")
        alive["up"] = False
        ha.poll_until_quiet()
        assert disp.drained() == ["replica-0"]
        assert ha.metrics.replica_drains.value(
            replica="replica-0", action="drain") == 1
        alive["up"] = True
        ha.poll_until_quiet()
        assert disp.drained() == []
        assert ha.metrics.replica_drains.value(
            replica="replica-0", action="undrain") == 1
