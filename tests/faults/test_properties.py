"""Property-style tests for ingest placement under arbitrary failures.

The central claim: for *every* subset of failed stores,
``IngestDataPlane.next_available_store`` either returns an available
store or raises ``StoreUnavailableError`` — and it raises only when the
whole fleet is down.  With 4 stores the subset space is tiny, so the test enumerates it
exhaustively rather than sampling; a hypothesis sweep then drives random
fail/repair/place interleavings against a model of round-robin fairness.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import StoreUnavailableError
from repro.models.registry import tiny_model

NUM_STORES = 4


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


@pytest.fixture(scope="module")
def cluster():
    return NDPipeCluster(factory, ClusterConfig(
        num_stores=NUM_STORES, nominal_raw_bytes=2048))


def all_subsets(ids):
    for r in range(len(ids) + 1):
        yield from itertools.combinations(ids, r)


class TestEverySubsetOfFailures:
    def test_succeeds_or_raises_exactly_when_all_down(self, cluster):
        for failed in all_subsets(range(NUM_STORES)):
            for i, store in enumerate(cluster.stores):
                store.repair() if i not in failed else store.fail()
            if len(failed) == NUM_STORES:
                with pytest.raises(StoreUnavailableError):
                    cluster.dataplane.next_available_store()
            else:
                for _ in range(2 * NUM_STORES):  # any rotation offset
                    chosen = cluster.dataplane.next_available_store()
                    assert chosen.is_available
                    assert list(cluster.stores).index(chosen) not in failed
        for store in cluster.stores:
            store.repair()

    def test_total_outage_does_not_corrupt_rotation(self, cluster):
        """After an all-down raise, the next pick still works post-repair."""
        for store in cluster.stores:
            store.fail()
        for _ in range(3):
            with pytest.raises(StoreUnavailableError):
                cluster.dataplane.next_available_store()
        for store in cluster.stores:
            store.repair()
        picks = {cluster.dataplane.next_available_store().store_id
                 for _ in range(NUM_STORES)}
        assert len(picks) == NUM_STORES


class TestRoundRobinFairness:
    def test_survivors_share_equally_under_any_failure_subset(self, cluster):
        for failed in all_subsets(range(NUM_STORES)):
            if len(failed) == NUM_STORES:
                continue
            for i, store in enumerate(cluster.stores):
                store.repair() if i not in failed else store.fail()
            survivors = NUM_STORES - len(failed)
            counts = {s.store_id: 0 for s in cluster.stores}
            for _ in range(3 * survivors):
                counts[cluster.dataplane.next_available_store().store_id] += 1
            live = [c for i, (sid, c) in enumerate(sorted(counts.items()))
                    if i not in failed]
            assert all(c == 3 for c in live), (failed, counts)
        for store in cluster.stores:
            store.repair()

    def test_recovered_store_rejoins_rotation(self, cluster):
        cluster.stores[1].fail()
        for _ in range(6):
            cluster.dataplane.next_available_store()
        cluster.stores[1].repair()
        picks = [cluster.dataplane.next_available_store().store_id
                 for _ in range(2 * NUM_STORES)]
        assert picks.count("pipestore-1") == 2


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("fail"), st.integers(0, NUM_STORES - 1)),
        st.tuples(st.just("repair"), st.integers(0, NUM_STORES - 1)),
        st.tuples(st.just("pick"), st.just(0)),
    ),
    min_size=1, max_size=40,
))
def test_interleaved_fail_repair_pick_matches_model(ops):
    """Under any interleaving, picks cycle the available stores in ring
    order starting from the rotation cursor — a pure-Python model predicts
    every choice exactly."""
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=NUM_STORES, nominal_raw_bytes=2048))
    up = [True] * NUM_STORES
    cursor = 0
    for op, arg in ops:
        if op == "fail":
            cluster.stores[arg].fail()
            up[arg] = False
        elif op == "repair":
            cluster.stores[arg].repair()
            up[arg] = True
        else:
            if not any(up):
                with pytest.raises(StoreUnavailableError):
                    cluster.dataplane.next_available_store()
                # model: cursor wraps all the way around
                cursor = (cursor + NUM_STORES) % NUM_STORES
                continue
            expected = None
            probe = cursor
            for _ in range(NUM_STORES):
                candidate = probe
                probe = (probe + 1) % NUM_STORES
                if up[candidate]:
                    expected = candidate
                    break
            cursor = probe
            chosen = cluster.dataplane.next_available_store()
            assert chosen is cluster.stores[expected]
