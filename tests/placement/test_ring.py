"""Properties of the consistent-hash ring.

The three guarantees the docstring of :mod:`repro.placement.ring`
advertises, proven here: placement is a pure function of
``(seed, membership)`` regardless of join order; membership changes move
only the keyspace that changed owners (join: strictly onto the
newcomer, leave: strictly off the leaver); replica sets never co-locate
two copies on one shard.  Small cases are swept with hypothesis, the
movement *bound* is pinned on a fixed population.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import ConsistentHashRing, RingError

KEYS = st.lists(
    st.integers(0, 10**6).map(lambda i: f"photo-{i:07d}"),
    min_size=1, max_size=60, unique=True)
FLEETS = st.integers(2, 8).map(
    lambda n: [f"shard-{i}" for i in range(n)])


def ring_of(shards, vnodes=16, seed=0):
    return ConsistentHashRing(vnodes=vnodes, seed=seed, shards=shards)


class TestDeterminism:
    @given(keys=KEYS, shards=FLEETS, seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_placement_ignores_join_order(self, keys, shards, seed):
        forward = ring_of(shards, seed=seed)
        backward = ring_of(list(reversed(shards)), seed=seed)
        assert forward.placement_map(keys) == backward.placement_map(keys)
        assert forward.shards == backward.shards

    def test_two_processes_agree(self):
        # no dependence on PYTHONHASHSEED: the ring hash is keyed blake2b
        a = ring_of([f"s{i}" for i in range(5)], seed=7)
        b = ring_of([f"s{i}" for i in range(5)], seed=7)
        keys = [f"photo-{i}" for i in range(500)]
        assert a.placement_map(keys) == b.placement_map(keys)

    def test_different_seed_places_differently(self):
        keys = [f"photo-{i}" for i in range(200)]
        a = ring_of([f"s{i}" for i in range(6)], seed=0).placement_map(keys)
        b = ring_of([f"s{i}" for i in range(6)], seed=1).placement_map(keys)
        assert a != b


class TestMinimalMovement:
    @given(keys=KEYS, shards=FLEETS)
    @settings(max_examples=40, deadline=None)
    def test_join_moves_keys_only_onto_newcomer(self, keys, shards):
        ring = ring_of(shards)
        before = ring.placement_map(keys)
        ring.add_shard("shard-new")
        after = ring.placement_map(keys)
        for key in ConsistentHashRing.moved_keys(before, after):
            assert after[key] == "shard-new"

    @given(keys=KEYS, shards=FLEETS)
    @settings(max_examples=40, deadline=None)
    def test_leave_moves_keys_only_off_leaver(self, keys, shards):
        ring = ring_of(shards)
        before = ring.placement_map(keys)
        leaver = shards[0]
        ring.remove_shard(leaver)
        after = ring.placement_map(keys)
        for key in ConsistentHashRing.moved_keys(before, after):
            assert before[key] == leaver
            assert after[key] != leaver

    @given(keys=KEYS, shards=FLEETS)
    @settings(max_examples=25, deadline=None)
    def test_join_then_leave_is_identity(self, keys, shards):
        ring = ring_of(shards)
        before = ring.placement_map(keys)
        ring.add_shard("shard-new")
        ring.remove_shard("shard-new")
        assert ring.placement_map(keys) == before

    def test_join_movement_within_vnode_bound(self):
        # the ISSUE acceptance bound: <= 1/N + 10% of keys re-home
        keys = [f"photo-{i:06d}" for i in range(5000)]
        ring = ring_of([f"shard-{i}" for i in range(8)], vnodes=64)
        before = ring.placement_map(keys)
        ring.add_shard("shard-8")
        moved = ConsistentHashRing.moved_keys(
            before, ring.placement_map(keys))
        assert len(moved) / len(keys) <= 1 / 9 + 0.10


class TestReplicaSets:
    @given(keys=KEYS, shards=FLEETS, k=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_replicas_never_co_locate(self, keys, shards, k):
        ring = ring_of(shards)
        if k > len(shards):
            with pytest.raises(RingError, match="replicas"):
                ring.replica_set(keys[0], k)
            return
        for key in keys:
            replicas = ring.replica_set(key, k)
            assert len(replicas) == k
            assert len(set(replicas)) == k
            assert replicas[0] == ring.primary(key)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ring_of(["a", "b"]).replica_set("x", 0)


class TestBoundedLoadPick:
    def test_without_load_is_primary(self):
        ring = ring_of([f"s{i}" for i in range(4)])
        assert ring.pick("photo-1") == ring.primary("photo-1")

    def test_overloaded_primary_sheds_to_successor(self):
        ring = ring_of([f"s{i}" for i in range(4)])
        primary = ring.primary("photo-1")
        loads = {s: (100.0 if s == primary else 1.0) for s in ring.shards}
        picked = ring.pick("photo-1", load_of=loads.__getitem__)
        assert picked != primary
        # the diversion target is the next *distinct* ring successor
        assert picked == ring.replica_set("photo-1", 2)[1]

    def test_all_overloaded_falls_back_to_least_loaded(self):
        ring = ring_of(["a", "b", "c"])
        loads = {"a": 90.0, "b": 80.0, "c": 70.0}
        assert ring.pick("photo-1", load_of=loads.__getitem__,
                         load_factor=1.0) in ring.shards
        # every shard is above a 1.0x-mean bound except the minimum
        lopsided = {"a": 500.0, "b": 400.0, "c": 3.0}
        assert ring.pick("photo-1", load_of=lopsided.__getitem__) == "c"

    def test_unavailable_primary_is_skipped(self):
        ring = ring_of([f"s{i}" for i in range(4)])
        primary = ring.primary("photo-1")
        picked = ring.pick("photo-1", available=lambda s: s != primary)
        assert picked == ring.replica_set("photo-1", 2)[1]

    def test_no_available_shard_raises(self):
        ring = ring_of(["a", "b"])
        with pytest.raises(RingError, match="no available shard"):
            ring.pick("photo-1", available=lambda s: False)

    def test_load_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="load_factor"):
            ring_of(["a"]).pick("x", load_of=lambda s: 0.0,
                                load_factor=0.5)


class TestSuccessorTable:
    """The per-start-token successor orders are derived state of the
    membership: no join/leave history may leave a stale one behind."""

    @given(keys=KEYS, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_membership_history_equals_a_fresh_ring(self, keys, data):
        ring = ring_of(["shard-0", "shard-1"], vnodes=8)
        loads = {f"shard-{i}": float(7 * i % 5) for i in range(8)}
        for _ in range(data.draw(st.integers(1, 10))):
            # read before every change, so the table is warm when it drops
            for key in keys:
                ring.replica_set(key, len(ring))
            leavers = ring.shards if len(ring) > 1 else []
            joiners = sorted(set(loads) - set(ring.shards))
            change = data.draw(st.sampled_from(
                [("leave", s) for s in leavers]
                + [("join", s) for s in joiners]))
            if change[0] == "join":
                ring.add_shard(change[1])
            else:
                ring.remove_shard(change[1])
            fresh = ring_of(ring.shards, vnodes=8)
            down = data.draw(st.sampled_from(ring.shards))

            def up(shard, down=down):
                return shard != down or len(ring) == 1

            for key in keys:
                assert ring.primary(key) == fresh.primary(key)
                assert ring.replica_set(key, len(ring)) \
                    == fresh.replica_set(key, len(fresh))
                assert ring.pick(key, load_of=loads.__getitem__,
                                 available=up) \
                    == fresh.pick(key, load_of=loads.__getitem__,
                                  available=up)

    def test_table_is_one_order_per_token_and_dropped_on_change(self):
        ring = ring_of([f"s{i}" for i in range(4)], vnodes=4)
        assert ring._orders is None  # nothing built until somebody asks
        for i in range(200):
            ring.primary(f"photo-{i}")
        assert len(ring._orders) == 16
        ring.add_shard("s4")
        assert ring._orders is None
        ring.primary("photo-0")
        ring.remove_shard("s4")
        assert ring._orders is None


class TestMembershipErrors:
    def test_duplicate_join_is_loud(self):
        ring = ring_of(["a"])
        with pytest.raises(RingError, match="already on the ring"):
            ring.add_shard("a")

    def test_unknown_leave_is_loud(self):
        with pytest.raises(RingError, match="not on the ring"):
            ring_of(["a"]).remove_shard("b")

    def test_empty_ring_cannot_place(self):
        with pytest.raises(RingError, match="no shards"):
            ConsistentHashRing().primary("photo-1")

    def test_vnodes_validated(self):
        with pytest.raises(ValueError, match="vnodes"):
            ConsistentHashRing(vnodes=0)

    def test_membership_dunder_views(self):
        ring = ring_of(["b", "a"])
        assert len(ring) == 2
        assert "a" in ring and "c" not in ring
        assert ring.shards == ["a", "b"]


class TestBulkViews:
    def test_assignments_cover_every_shard_and_key(self):
        ring = ring_of([f"s{i}" for i in range(5)])
        keys = [f"photo-{i}" for i in range(123)]
        groups = ring.assignments(keys)
        assert sorted(groups) == ring.shards
        assert sum(len(v) for v in groups.values()) == len(keys)
        for shard, members in groups.items():
            for key in members:
                assert ring.primary(key) == shard
