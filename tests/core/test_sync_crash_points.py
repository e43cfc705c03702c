"""Crash points over the replica-sync path.

One small scenario exercises every way a store is brought to the
published state: a join provisioned with the Tuner's frozen stages (one
tail sync), a join provisioned with other ones (a refused tail sync,
then the whole state) and a lagging store that the next round resyncs.
The scenario is replayed once per fabric message ``k`` and fault:

- ``DropMessages`` at tick ``k`` (message ``k`` is lost once);
- ``StoreCrash`` at tick ``k`` of message ``k``'s store end (its
  destination, or its source when that is the Tuner), a store still
  joining included: the fault injector names it through the roster's
  ``joining`` map.

After each replay every down store is recovered and every store caught
up; then every replica must hold the published state byte for byte, and
no acknowledged upload may be lost.
"""

import numpy as np

from repro.core import ClusterConfig, NDPipeCluster
from repro.data import DriftingPhotoWorld, WorldConfig
from repro.faults import DropMessages, FaultInjector, StoreCrash
from repro.models.registry import tiny_model


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


def other_base():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=8)


def build():
    """One store holding 12 acknowledged uploads; returns (cluster, ids)."""
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=1, nominal_raw_bytes=2048, seed=1))
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0))
    x, y = world.sample(12, 0, rng=np.random.default_rng(3))
    return cluster, cluster.ingest(x, train_labels=y)


def scenario(cluster):
    cluster.join_store("pipestore-1")  # the fleet's front: a tail sync
    # another front: a refused tail sync, then the whole state
    cluster.join_store("pipestore-2", base=other_base())
    lagging = cluster.stores["pipestore-1"]
    lagging.fail()
    cluster.finetune(epochs=1)  # pipestore-1 misses this round
    lagging.repair()
    cluster.finetune(epochs=1)  # and is resynced by this one


def run(schedule=(), trace=None):
    """The scenario under ``schedule``, recovered and caught up; with
    ``trace``, appends each fabric message, the fleet's members and the
    stores the injector could name when it left."""
    cluster, acknowledged = build()
    injector = FaultInjector(schedule).attach(cluster)
    if trace is not None:
        deliver = cluster.network.fault_filter

        def record(message):
            trace.append((message, set(cluster.stores.ids()),
                          set(injector.stores())))
            return deliver(message)

        cluster.network.fault_filter = record
    scenario(cluster)
    injector.detach()
    for store in cluster.stores:
        if store.is_available:
            cluster.tuner.catch_up(store)
        else:
            cluster.recover(store)
    return cluster, acknowledged


def assert_recovered(cluster, acknowledged, where):
    tuner = cluster.tuner
    for store in cluster.stores:
        assert store.is_available, where
        assert store.model_version == tuner.version, (where, store.store_id)
        held = store.model.state_dict()
        assert sorted(held) == sorted(tuner.published), where
        for key, value in tuner.published.items():
            assert held[key].tobytes() == value.tobytes(), (
                where, store.store_id, key)
    for pid in acknowledged:
        store = cluster.stores[cluster.database.lookup(pid).location]
        assert store.objects.verify(store.objects.raw_key(pid)), (where, pid)
        assert store.objects.verify(store.objects.preproc_key(pid)), (
            where, pid)


def test_every_sync_message_survives_a_drop_or_a_crash():
    trace = []
    cluster, acknowledged = run(trace=trace)
    assert_recovered(cluster, acknowledged, "fault-free")
    kinds = [message.kind for message, _, _ in trace]
    assert kinds.count("model-full") == 4  # tail, tail + whole, resync
    visited = joining = 0
    for tick, (message, members, nameable) in enumerate(trace, start=1):
        end = message.src if message.dst == cluster.tuner.name else message.dst
        assert end in nameable, (tick, message)
        joining += end not in members  # a store crashing mid-join
        for fault in (DropMessages(at=tick), StoreCrash(at=tick, store_id=end)):
            replay, acknowledged = run([fault])
            assert_recovered(replay, acknowledged, fault.describe())
            visited += 1
    print(f"sync crash points: {len(trace)} ticks, {visited} replays, "
          f"{joining} crash points on a store still joining")
    assert visited == 2 * len(trace)
    assert joining == 3  # tail; refused tail, then whole
