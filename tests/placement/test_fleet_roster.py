"""One fleet roster: membership, the donor walk and the placement write.

``NDPipeCluster.stores`` is the fleet's only membership list.  The
Tuner, both planes, the shard rebalancer, an attached fault injector and
the HA controller read it live, so a shard that joins after the injector
and the HA layer were attached is addressable by the fault schedule and
watched by the failure detector, and one that leaves is neither.  The
second half pins the one donor walk to the rule it replaced and one
join -> fail -> reingest -> recover -> scrub history to its exact bytes,
ledger and scrub report.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controlplane import raw_copy, verified_copies
from repro.core.pipestore import StoreUnavailableError
from repro.faults import (BitRot, FaultConfigError, FaultInjector,
                          SlowAccelerator, StoreCrash)
from repro.ha import HAConfig
from repro.models.registry import tiny_model
from repro.placement import ShardConfig, ShardedCluster
from repro.storage.objectstore import CorruptObjectError, MissingObjectError


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


def make_fleet(num_shards=3, replication=2, photos=12):
    fleet = ShardedCluster(factory, ShardConfig(
        num_shards=num_shards, vnodes=16, replication=replication,
        ring_seed=5))
    rng = np.random.default_rng(5)
    shape = tuple(fleet.cluster.tuner.model.input_shape)
    images = rng.random((photos,) + shape).astype(np.float32)
    ids, _ = fleet.ingest(images, train_labels=rng.integers(0, 8, photos))
    return fleet, ids


def membership(fleet, ha, injector):
    """The four views of the fleet that must equal the roster."""
    return {
        "roster": set(fleet.cluster.stores.ids()),
        "ha": {member for member, info in ha.members()
               if info["kind"] == "store"},
        "injector": set(injector.stores()),
        "tuner": {s.store_id for s in fleet.cluster.tuner.stores},
        "ring": set(fleet.ring.shards),
    }


class TestJoinedShardIsInTheFaultSchedule:
    @pytest.mark.parametrize("event", ["crash", "slow", "bitrot"])
    def test_schedule_naming_a_later_joiner_fires_against_it(self, event):
        fleet, _ids = make_fleet()
        newcomer = "pipestore-3"
        # a crash lands mid-rebalance (the join's own fabric sends tick
        # the clock); the others fire once the join has settled
        at = 3 if event == "crash" else 10_000
        injector = FaultInjector({
            "crash": [StoreCrash(at=at, store_id=newcomer)],
            "slow": [SlowAccelerator(at=at, store_id=newcomer, factor=3.0)],
            "bitrot": [BitRot(at=at, store_id=newcomer, num_objects=2,
                              prefix="raw/")],
        }[event]).attach(fleet.cluster)
        summary = fleet.join_shard()
        assert summary["ledger"]["objects_inflight"] == 0
        injector.advance(max(0, at - injector.clock))
        assert [e.store_id for e in injector.fired] == [newcomer]
        store = fleet.cluster.stores[newcomer]
        if event == "crash":
            assert not store.is_available
            assert injector.crashed_stores() == [newcomer]
            # copy-first: nothing landed on the dead newcomer was lost
            assert fleet.rebalancer.deferred
        elif event == "slow":
            assert store.slowdown == 3.0
        else:
            assert len(injector.corrupted) == 2
            assert {sid for sid, _key in injector.corrupted} == {newcomer}
            report = fleet.scrub_and_repair()
            assert sorted(report.repaired) == sorted(injector.corrupted)


class TestJoinedShardIsWatchedByHA:
    def test_failed_joiner_is_suspected_and_evicted(self):
        fleet, _ids = make_fleet()
        config = HAConfig(standby=False)
        ha = fleet.enable_ha(config)
        fleet.join_shard()
        newcomer = fleet.cluster.stores[-1]
        assert newcomer.store_id == "pipestore-3"
        stranded = fleet.database.ids_at(newcomer.store_id)
        assert stranded
        ha.poll()  # one round alive, like every original member
        newcomer.fail()
        events = []
        for _ in range(config.suspect_after_ticks):
            events += ha.poll()
        assert events == [("suspect", newcomer.store_id)]
        assert ha.metrics.store_evictions.value(
            store=newcomer.store_id) == 1
        # auto-evicted: each photo is promoted to a replica or re-ingested
        for pid in stranded:
            assert fleet.database.lookup(pid).location != newcomer.store_id
        assert ha.metrics.orphans_reingested.value(
            store=newcomer.store_id) == len(stranded)
        newcomer.repair()
        assert ("rejoin", newcomer.store_id) in ha.poll_until_quiet()

    def test_joiner_is_suspected_as_fast_as_an_original_shard(self):
        """Both die before any heartbeat round: the original member is
        presumed alive from ``enable_ha``, the joiner from the first
        round that sees it — and no round has passed in between."""
        ticks = {}
        for victim in ("pipestore-0", "pipestore-3"):
            fleet, _ids = make_fleet()
            ha = fleet.enable_ha(HAConfig(standby=False, auto_evict=False))
            fleet.join_shard()
            fleet.cluster.stores[victim].fail()
            for tick in range(1, 10):
                if ("suspect", victim) in ha.poll():
                    ticks[victim] = tick
                    break
        assert ticks == {"pipestore-0": 3, "pipestore-3": 3}


class TestDepartedShard:
    def test_is_not_polled_and_cannot_be_scheduled(self):
        fleet, _ids = make_fleet(num_shards=4)
        ha = fleet.enable_ha(HAConfig(standby=False))
        leaver = "pipestore-2"
        # scheduled while the shard is still a member, due after it left
        injector = FaultInjector([StoreCrash(at=10_000, store_id=leaver)])
        injector.attach(fleet.cluster)
        ha.poll()
        fleet.leave_shard(leaver)
        heard = ha.metrics.heartbeats.value(member=leaver)
        for _ in range(5):
            ha.poll()
        assert ha.metrics.heartbeats.value(member=leaver) == heard
        assert leaver not in {member for member, _info in ha.members()}
        with pytest.raises(FaultConfigError,
                           match="unknown store 'pipestore-2'"):
            injector.advance(10_000 - injector.clock)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(history=st.lists(
    st.tuples(st.sampled_from(["join", "leave", "fail", "recover"]),
              st.integers(0, 7)),
    min_size=1, max_size=6))
def test_every_view_of_the_fleet_is_the_roster(history):
    """After every join/leave/fail/recover step (and an HA round), the
    HA-watched stores, the stores the injector can address, the Tuner's
    fleet and the ring's shards are exactly the roster."""
    fleet, _ids = make_fleet(photos=6)
    ha = fleet.enable_ha(HAConfig(standby=False))
    injector = FaultInjector().attach(fleet.cluster)
    for op, pick in history:
        roster = list(fleet.cluster.stores)
        up = [s for s in roster if s.is_available]
        down = [s for s in roster if not s.is_available]
        if op == "join":
            fleet.join_shard()
        elif op == "leave" and len(up) > 2:
            fleet.leave_shard(up[pick % len(up)].store_id)
        elif op == "fail" and len(up) > 1:
            up[pick % len(up)].fail()
        elif op == "recover" and down:
            fleet.recover(down[pick % len(down)].store_id)
        ha.poll()
        views = membership(fleet, ha, injector)
        assert all(view == views["roster"] for view in views.values()), \
            views
        for store_id in views["roster"]:
            assert ha.detector.last_heard(store_id) is not None


# -- the donor walk, pinned to the rule it replaced ---------------------------
def parent_donors(cluster, pid, target, keys):
    """The donor rule as the parent wrote it five times: holders in
    replica-map order that are not the target, are still in the fleet,
    are up, and donate a verified copy of at least one of ``keys``."""
    order = []
    for holder in cluster.replicas.holders(pid):
        if holder == target:
            continue
        donor = next((s for s in cluster.stores if s.store_id == holder),
                     None)
        if donor is None or not donor.is_available:
            continue
        try:
            blobs = [donor.donate_object(key) for key in keys
                     if donor.objects.exists(key)]
        except (CorruptObjectError, MissingObjectError,
                StoreUnavailableError):
            continue
        if blobs:
            order.append(holder)
    return order


_WALK = {}


def walk_fleet():
    """One 5-store fleet holding one photo everywhere, built once."""
    if not _WALK:
        fleet, ids = make_fleet(num_shards=5, replication=5, photos=1)
        pid = ids[0]
        pristine = {
            (store.store_id, key): store.objects.peek(key)
            for store in fleet.cluster.stores
            for key in (store.objects.raw_key(pid),
                        store.objects.preproc_key(pid))}
        _WALK.update(fleet=fleet, pid=pid, pristine=pristine)
    return _WALK["fleet"], _WALK["pid"], _WALK["pristine"]


COPY = st.sampled_from(["ok", "rotted", "missing"])


@settings(max_examples=150, deadline=None)
@given(order=st.permutations(
           ["pipestore-0", "pipestore-1", "pipestore-2", "pipestore-3",
            "pipestore-4", "departed"]),
       width=st.integers(1, 6),
       target=st.sampled_from(["pipestore-0", "pipestore-2", "none"]),
       down=st.sets(st.integers(0, 4)),
       raw=st.lists(COPY, min_size=5, max_size=5),
       preproc=st.lists(COPY, min_size=5, max_size=5))
def test_donor_walk_matches_the_parent_rule(order, width, target, down,
                                            raw, preproc):
    fleet, pid, pristine = walk_fleet()
    cluster = fleet.cluster
    for i, store in enumerate(cluster.stores):
        store.repair()
        for key, state in ((store.objects.raw_key(pid), raw[i]),
                           (store.objects.preproc_key(pid), preproc[i])):
            store.objects.put(key, pristine[(store.store_id, key)])
            if state == "missing":
                store.objects.delete(key)
            elif state == "rotted":
                blob = bytearray(pristine[(store.store_id, key)])
                blob[-1] ^= 0x55
                store.objects.corrupt_object(key, bytes(blob))
        if i in down:
            store.fail()
    cluster.replicas.place(pid, order[:width])
    raw_key, preproc_key = (cluster.stores[0].objects.raw_key(pid),
                            cluster.stores[0].objects.preproc_key(pid))
    control = cluster.control
    for keys in ([raw_key], [preproc_key], [raw_key, preproc_key]):
        walked = [donor.store_id for donor, _blobs
                  in control.donors(pid, target, verified_copies(keys))]
        assert walked == parent_donors(cluster, pid, target, keys)
    # promotion and the loss check vouch with an unverified raw blob
    walked = [d.store_id for d, _ in control.donors(pid, target,
                                                     raw_copy(pid))]
    assert walked == [
        h for h in order[:width]
        if h != target and h != "departed"
        and int(h[-1]) not in down and raw[int(h[-1])] != "missing"]


def test_join_fail_reingest_recover_scrub_is_pinned():
    """4 shards x replication 3: join, fail a shard, re-ingest its photos
    (three by promotion, two through the journal because no replica
    vouches for them), recover, scrub.  Every byte count, ledger field
    and scrub list is the pre-roster implementation's, except
    ``model-full``: 1 416 725 -> 738 165 B since a frozen front ships its
    float32 masters (half width), and the bytes that carry ``preproc/``
    blobs since pixel tensors went run-length (``Z_RLE``): ledger
    ``bytes_received`` and ``rebalance`` 198 783 -> 198 636, ``ingest``
    353 369 -> 353 125, ``replicate`` 706 738 -> 706 250, ``re-ingest``
    22 084 -> 22 073, ``repair`` 35 625 -> 35 615; and again since they
    went to byte planes: ``bytes_received`` and ``rebalance`` 198 636 ->
    193 619, ``ingest`` 353 125 -> 344 243, ``replicate`` 706 250 ->
    688 486, ``re-ingest`` 22 073 -> 21 522, ``repair`` 35 615 ->
    35 342; and ``model-full`` 738 165 -> 41 520 B (5 x 8 304) since an
    install ships only the classifier and a fingerprint of the frozen
    stages; and since ``preproc/`` holds each upload's 8-bit codes:
    ``bytes_received`` and ``rebalance`` 193 619 -> 161 586, ``ingest``
    344 243 -> 287 264, ``replicate`` 688 486 -> 574 528, ``re-ingest``
    21 522 -> 17 954, ``repair`` 35 342 -> 33 553; and ``repair``
    33 553 -> 32 768 since a lost ``preproc/`` blob whose ``raw/``
    verifies is re-derived in place (the 785 B blob no longer crosses)."""
    fleet, ids = make_fleet(num_shards=4, replication=3, photos=32)
    summary = fleet.join_shard()
    cluster = fleet.cluster
    victim = cluster.stores[1]
    stranded = cluster.database.ids_at(victim.store_id)
    for pid in stranded[:2]:  # no replica can vouch: journal re-ingest
        for holder in cluster.replicas.holders(pid):
            store = cluster.stores[holder]
            if store is not victim:
                store.objects.delete(store.objects.raw_key(pid))
    # the first replica's raw blob rots: promotion still takes it
    # (unverified bar) and scrub repairs it from a verified holder
    rotted = stranded[2]
    first = cluster.stores[[h for h in cluster.replicas.holders(rotted)
                            if h != victim.store_id][0]]
    key = first.objects.raw_key(rotted)
    blob = bytearray(first.objects.peek(key))
    blob[10] ^= 0xFF
    first.objects.corrupt_object(key, bytes(blob))
    victim.fail()
    moved = fleet.reingest_orphans(victim.store_id)
    other = cluster.stores[3]  # media lost while the victim is down
    lost_pid, unlabeled = cluster.replicas.photos_on(other.store_id)[:2]
    other.objects.delete(other.objects.preproc_key(lost_pid))
    other._train_labels.pop(unlabeled)
    fleet.recover(victim.store_id)
    scrub = fleet.scrub_and_repair()

    assert len(stranded) == 5
    assert moved == [f"default/photo-{i:08d}" for i in (2, 6, 12, 13, 17)]
    ledger = {"bytes_received": 161586, "objects_failed": 0,
              "objects_inflight": 0, "objects_moved": 18,
              "objects_received": 18}
    assert summary["copies"] == ledger
    assert fleet.ledger().to_dict() == ledger
    assert cluster.network.kinds() == {
        "ingest": 287264, "model-full": 41520, "re-ingest": 17954,
        "rebalance": 161586, "repair": 32768, "replicate": 574528}
    assert scrub.repaired == [("pipestore-4", "raw/default/photo-00000012")]
    assert scrub.restored == [
        ("pipestore-2", "raw/default/photo-00000006"),
        ("pipestore-3", "preproc/default/photo-00000000"),
        ("pipestore-3", "raw/default/photo-00000006"),
        ("pipestore-4", "raw/default/photo-00000002")]
    assert scrub.unrecoverable == [] and scrub.stores_skipped == []
    lost = other.objects.preproc_key(lost_pid)
    assert other.objects.peek(lost) == other.objects.derived_preproc(lost_pid)
    assert other.objects.verify(lost)
    assert other.has_train_label(unlabeled)
    for pid in ids:
        assert cluster.replicas.primary(pid) == \
            cluster.database.lookup(pid).location
