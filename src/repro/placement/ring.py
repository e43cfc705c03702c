"""Consistent-hash ring: deterministic photo -> shard placement.

Every shard owns ``vnodes`` points on a 64-bit ring; a key lands on the
first vnode clockwise from its own hash.  The hash is keyed blake2b, so
placement is deterministic across processes and Python hash
randomisation, and two rings built with the same ``seed`` and the same
membership — in *any* join order — agree on every key.

Properties the suite proves (``tests/placement/test_ring.py``):

* **determinism** — placement is a pure function of (seed, membership);
* **minimal movement** — adding a shard only moves keys *onto* the new
  shard (≈ ``K/N`` of them); removing one only moves keys *off* it;
* **distinct replicas** — ``replica_set`` walks clockwise collecting
  *shards*, never two vnodes of the same shard.

``pick`` optionally applies bounded-load routing (the
consistent-hashing-with-bounded-loads trick): walking clockwise, shards
whose reported load exceeds :data:`LOAD_FACTOR` x the fleet mean are
skipped, so a slow shard sheds fresh ingest onto its ring successors
instead of queueing it.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["ConsistentHashRing", "LOAD_FACTOR", "RingError"]

#: bounded-load factor: fresh ingest skips a shard whose load exceeds
#: this x the fleet mean (1.0 leaves no headroom, very large values
#: degrade to plain consistent hashing)
LOAD_FACTOR = 1.25


class RingError(RuntimeError):
    """Raised for invalid ring operations (empty ring, duplicate shard)."""


def _hash64(seed: int, domain: str, text: str) -> int:
    """Keyed 64-bit ring position; stable across processes and runs."""
    digest = blake2b(f"{domain}:{text}".encode(),
                     digest_size=8, key=str(seed).encode())
    return int.from_bytes(digest.digest(), "big")


class ConsistentHashRing:
    """vnode consistent hashing over named shards."""

    def __init__(self, vnodes: int = 64, seed: int = 0,
                 shards: Iterable[str] = ()):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._shards: List[str] = []
        #: sorted vnode positions and their owning shard, kept parallel
        self._tokens: List[int] = []
        self._owners: List[str] = []
        #: per start token, the distinct shards clockwise from it.  Derived
        #: state of the membership: built on first lookup, dropped by every
        #: join/leave, one small tuple per token
        self._orders: Optional[List[Tuple[str, ...]]] = None
        for shard in shards:
            self.add_shard(shard)

    # -- membership ---------------------------------------------------------
    @property
    def shards(self) -> List[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: str) -> None:
        """Join one shard: inserts its vnodes, all other tokens stay put."""
        if shard_id in self._shards:
            raise RingError(f"shard {shard_id!r} is already on the ring")
        self._shards.append(shard_id)
        self._orders = None
        for v in range(self.vnodes):
            token = _hash64(self.seed, "vnode", f"{shard_id}#{v}")
            at = bisect.bisect_left(self._tokens, token)
            # keyed-64-bit collisions are ~impossible, but break ties by
            # shard id so equal tokens still order deterministically
            while at < len(self._tokens) and self._tokens[at] == token \
                    and self._owners[at] < shard_id:
                at += 1
            self._tokens.insert(at, token)
            self._owners.insert(at, shard_id)

    def remove_shard(self, shard_id: str) -> None:
        """Leave: drops the shard's vnodes, its keyspace falls clockwise."""
        if shard_id not in self._shards:
            raise RingError(f"shard {shard_id!r} is not on the ring")
        self._shards.remove(shard_id)
        self._orders = None
        keep = [i for i, owner in enumerate(self._owners)
                if owner != shard_id]
        self._tokens = [self._tokens[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- placement ----------------------------------------------------------
    def _successors(self, key: str) -> Tuple[str, ...]:
        """Distinct shards clockwise from the key's ring position: one
        hash and one bisect into the per-start-token orders."""
        if not self._shards:
            raise RingError("the ring has no shards")
        if self._orders is None:
            self._orders = self._successor_orders()
        start = bisect.bisect_right(self._tokens,
                                    _hash64(self.seed, "key", key))
        return self._orders[start % len(self._tokens)]

    def _successor_orders(self) -> List[Tuple[str, ...]]:
        """One backwards pass: the order from token ``i`` is its owner,
        then the order from token ``i + 1`` without that owner."""
        order = tuple(dict.fromkeys(self._owners))  # from token 0
        orders = []
        for owner in reversed(self._owners):
            if owner != order[0]:
                order = (owner,) + tuple(s for s in order if s != owner)
            orders.append(order)
        orders.reverse()
        return orders

    def primary(self, key: str) -> str:
        """The shard owning ``key`` (first vnode clockwise)."""
        return self._successors(key)[0]

    def replica_set(self, key: str, k: int) -> List[str]:
        """``k`` distinct shards for ``key``: primary first, then the
        clockwise successors — never two slots on one shard."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > len(self._shards):
            raise RingError(
                f"cannot place {k} replicas on {len(self._shards)} shards")
        return list(self._successors(key)[:k])

    def pick(self, key: str,
             load_of: Optional[Callable[[str], float]] = None,
             load_factor: float = LOAD_FACTOR,
             available: Optional[Callable[[str], bool]] = None) -> str:
        """Placement for fresh ingest: consistent hashing, load-bounded.

        Without ``load_of`` this is :meth:`primary` (filtered by
        ``available``).  With it, the clockwise walk skips shards whose
        load exceeds ``load_factor`` x the mean load of the available
        fleet — bounded-load consistent hashing — and falls back to the
        least-loaded available shard when every candidate is above the
        bound (all-overloaded fleets still place).
        """
        if load_factor < 1.0:
            raise ValueError(
                f"load_factor must be >= 1.0, got {load_factor}")
        candidates = [s for s in self._successors(key)
                      if available is None or available(s)]
        if not candidates:
            raise RingError(f"no available shard for key {key!r}")
        if load_of is None:
            return candidates[0]
        return self.within_bound(candidates, load_of, load_factor)

    @staticmethod
    def within_bound(candidates: Sequence[str],
                     load_of: Callable[[str], float],
                     load_factor: float = LOAD_FACTOR) -> str:
        """The bounded-load choice over an ordered candidate list: the
        first whose load is within ``load_factor`` x the candidates' mean,
        else the least loaded."""
        loads = {s: float(load_of(s)) for s in candidates}
        mean = sum(loads.values()) / len(loads)
        bound = load_factor * mean
        for shard in candidates:
            if loads[shard] <= bound:
                return shard
        return min(candidates, key=lambda s: loads[s])

    def assignments(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Bulk primary placement: ``{shard_id: [keys...]}`` (all shards
        present, even empty ones)."""
        out: Dict[str, List[str]] = {s: [] for s in self._shards}
        for key in keys:
            out[self.primary(key)].append(key)
        return out

    # -- movement accounting ------------------------------------------------
    @staticmethod
    def moved_keys(before: Dict[str, str], after: Dict[str, str],
                   ) -> List[str]:
        """Keys whose primary shard differs between two placement maps."""
        return sorted(k for k, shard in before.items()
                      if after.get(k) != shard)

    def placement_map(self, keys: Sequence[str]) -> Dict[str, str]:
        """``{key: primary shard}`` for a key population."""
        return {key: self.primary(key) for key in keys}
