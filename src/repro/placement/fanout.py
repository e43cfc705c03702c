"""Check-N-Run fan-out tree: O(log N) model distribution (§6 scaled).

Unicast distribution costs the Tuner one uplink send per store — N
model-delta transfers leaving one NIC.  The fan-out tree instead has the
Tuner send to ``fanout`` roots, and every store that has verified its
delta relay it to up to ``fanout`` children, so Tuner egress is
``min(fanout, N)`` sends and the round completes in ``O(log_fanout N)``
relay generations.

The tree is an array layout over the store order: with branching ``d``,
stores ``A[0..d-1]`` are roots fed by the Tuner, and ``A[j]`` feeds
``A[d*(j+1) .. d*(j+1)+d-1]``.  Processing stores in array order is a
valid BFS: every parent appears before its children, which is exactly
the contract :meth:`repro.core.tuner.Tuner.distribute_update` needs for
its ``send_order``/``senders`` parameters.  A parent that misses the
round (down, fenced, or resynced with a full model it cannot re-encode)
is transparently replaced by the Tuner as the sender, so fault handling
stays identical to unicast — the tree only changes who pays the egress
bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["FanoutTree"]


class FanoutTree:
    """A d-ary distribution tree over an ordered store fleet."""

    def __init__(self, store_ids: Sequence[str], fanout: int = 2):
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        ids = list(store_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("store ids must be unique")
        self.fanout = fanout
        self.store_ids = ids

    # -- routing plan --------------------------------------------------------
    @property
    def send_order(self) -> List[str]:
        """BFS order: the array order itself (parents precede children)."""
        return list(self.store_ids)

    @property
    def senders(self) -> Dict[str, str]:
        """``{store_id: parent store_id}``; roots are absent (Tuner-fed)."""
        out: Dict[str, str] = {}
        for k, sid in enumerate(self.store_ids):
            if k >= self.fanout:
                out[sid] = self.store_ids[k // self.fanout - 1]
        return out

    @property
    def depth(self) -> int:
        """Relay generations from the Tuner to the deepest leaf."""
        depth = 0
        senders = self.senders
        for sid in self.store_ids:
            hops, cursor = 1, sid
            while cursor in senders:
                cursor = senders[cursor]
                hops += 1
            depth = max(depth, hops)
        return depth

    def plan(self, available: Optional[Sequence[str]] = None,
             ) -> Dict[str, object]:
        """Routing plan for one round, as ``distribute_update`` kwargs.

        ``available`` (if given) restricts the tree to those stores —
        down stores neither receive nor relay — while keeping the
        relative array order, so the tree stays balanced as the fleet
        degrades.
        """
        if available is None:
            tree = self
        else:
            alive = set(available)
            tree = FanoutTree(
                [s for s in self.store_ids if s in alive], self.fanout)
        return {"send_order": tree.send_order, "senders": tree.senders}
