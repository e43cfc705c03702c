"""Replica placement bookkeeping for k-way photo replication.

The label database stays the single source of truth for a photo's
*primary* location (where FT-DMP extraction and offline relabel run, so
no photo is ever trained or relabelled twice); the :class:`ReplicaMap`
records the full ordered holder list — primary first — that
scrub-and-repair consults when it needs a healthy donor copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ReplicaMap:
    """photo_id -> ordered list of holder store ids (primary first)."""

    def __init__(self):
        self._holders: Dict[str, List[str]] = {}

    def place(self, photo_id: str, holders: List[str]) -> None:
        if not holders:
            raise ValueError(f"photo {photo_id!r} needs at least one holder")
        if len(set(holders)) != len(holders):
            raise ValueError(f"duplicate holders for {photo_id!r}: {holders}")
        self._holders[photo_id] = list(holders)

    def drop(self, photo_id: str) -> None:
        self._holders.pop(photo_id, None)

    def remove_holder(self, photo_id: str, store_id: str) -> None:
        holders = self._holders.get(photo_id)
        if holders and store_id in holders:
            holders.remove(store_id)
            if not holders:
                del self._holders[photo_id]

    def holders(self, photo_id: str) -> List[str]:
        return list(self._holders.get(photo_id, ()))

    def primary(self, photo_id: str) -> Optional[str]:
        holders = self._holders.get(photo_id)
        return holders[0] if holders else None

    def is_holder(self, photo_id: str, store_id: str) -> bool:
        return store_id in self._holders.get(photo_id, ())

    def photos_on(self, store_id: str) -> List[str]:
        """Every photo (primary or replica) expected on one store."""
        return sorted(pid for pid, holders in self._holders.items()
                      if store_id in holders)

    def underreplicated(self, k: int) -> List[str]:
        """Photos with fewer than ``k`` holders (best-effort placement)."""
        return sorted(pid for pid, holders in self._holders.items()
                      if len(holders) < k)

    def __len__(self) -> int:
        return len(self._holders)

    def __contains__(self, photo_id: str) -> bool:
        return photo_id in self._holders

    # -- (de)serialisation for checkpoints ---------------------------------
    def to_dict(self) -> Dict[str, List[str]]:
        return {pid: list(holders) for pid, holders in self._holders.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, List[str]]) -> "ReplicaMap":
        rmap = cls()
        for pid, holders in data.items():
            rmap.place(pid, list(holders))
        return rmap
