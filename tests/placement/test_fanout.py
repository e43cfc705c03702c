"""The Check-N-Run fan-out tree's array layout.

The load-bearing contract: processing stores in array order is a valid
BFS (every parent appears before its children in ``send_order``), the
Tuner pays exactly ``min(fanout, N)`` uplink sends, and the tree is as
shallow as a balanced d-ary tree can be.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import FanoutTree


def tree_of(n, fanout=2):
    return FanoutTree([f"store-{i}" for i in range(n)], fanout=fanout)


def roots(tree):
    """The stores the Tuner feeds: those with no sender."""
    return [sid for sid in tree.store_ids if sid not in tree.senders]


def children(tree, store_id):
    """The stores ``store_id`` relays to: those it is the sender of."""
    return [sid for sid, parent in tree.senders.items()
            if parent == store_id]


class TestLayout:
    def test_known_binary_layout(self):
        tree = tree_of(7)
        assert roots(tree) == ["store-0", "store-1"]
        assert tree.senders == {
            "store-2": "store-0", "store-3": "store-0",
            "store-4": "store-1", "store-5": "store-1",
            "store-6": "store-2",
        }
        assert children(tree, "store-0") == ["store-2", "store-3"]
        assert children(tree, "store-2") == ["store-6"]
        assert children(tree, "store-6") == []
        assert tree.depth == 3

    @given(n=st.integers(1, 40), fanout=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_parents_precede_children_in_send_order(self, n, fanout):
        tree = tree_of(n, fanout)
        order = tree.send_order
        position = {sid: i for i, sid in enumerate(order)}
        for child, parent in tree.senders.items():
            assert position[parent] < position[child]

    @given(n=st.integers(1, 40), fanout=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_every_store_is_root_or_has_one_parent(self, n, fanout):
        tree = tree_of(n, fanout)
        # the Tuner feeds the first min(fanout, n) stores; every other
        # store has exactly one parent, itself a store of the tree
        assert roots(tree) == tree.store_ids[:min(fanout, n)]
        assert set(tree.senders.values()) <= set(tree.store_ids)
        # relay out-degree never exceeds the branching factor
        for sid in tree.store_ids:
            assert len(children(tree, sid)) <= fanout

    @given(n=st.integers(1, 64), fanout=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_array_layout_is_balanced(self, n, fanout):
        tree = tree_of(n, fanout)
        # the fewest generations that hold n stores: ceil(log_fanout(
        # n*(fanout-1)/fanout + 1))
        assert tree.depth == max(1, math.ceil(
            math.log(n * (fanout - 1) / fanout + 1, fanout)))

    def test_fanout_one_degenerates_to_a_chain(self):
        tree = tree_of(4, fanout=1)
        assert roots(tree) == ["store-0"]
        assert tree.senders == {
            "store-1": "store-0",
            "store-2": "store-1",
            "store-3": "store-2",
        }
        assert tree.depth == 4


class TestPlan:
    def test_plan_matches_distribute_update_kwargs(self):
        plan = tree_of(5).plan()
        assert set(plan) == {"send_order", "senders"}
        assert plan["send_order"] == [f"store-{i}" for i in range(5)]

    def test_plan_restricted_to_available_keeps_order(self):
        tree = tree_of(6)
        plan = tree.plan(available=["store-5", "store-1", "store-3"])
        # array order is preserved, the shrunken tree is rebuilt
        assert plan["send_order"] == ["store-1", "store-3", "store-5"]
        assert plan["senders"] == {"store-5": "store-1"}

    def test_plan_with_everyone_down_is_empty(self):
        plan = tree_of(3).plan(available=[])
        assert plan["send_order"] == []
        assert plan["senders"] == {}


class TestValidation:
    def test_fanout_must_be_positive(self):
        with pytest.raises(ValueError, match="fanout"):
            tree_of(3, fanout=0)

    def test_duplicate_store_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FanoutTree(["a", "a"])
