"""Heartbeat failure detector on the faults logical clock.

A deadline detector: a member is suspected once it has been silent for
``suspect_after_ticks`` ticks since its last heartbeat.  Heartbeats
arrive a whole tick or more apart, so a phi-accrual score (silence over
the mean inter-arrival) is never larger than the silence itself and
cannot suspect a member before a deadline of a few ticks does.

Because the clock only advances with observed work, detection is
deterministic: the same workload and fault schedule suspect the same
member at the same tick, every run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .config import HAConfig

#: membership states reported by :meth:`FailureDetector.state`
ALIVE = "alive"
SUSPECT = "suspect"
UNKNOWN = "unknown"


class FailureDetector:
    """Tracks each member's last-heard tick and who is suspected."""

    def __init__(self, config: HAConfig):
        self.config = config.validated()
        self._last: Dict[str, int] = {}
        self._suspected: set = set()

    # -- observations --------------------------------------------------------
    def heartbeat(self, member: str, tick: int) -> bool:
        """Record one heartbeat; returns True if this is a rejoin
        (the member was suspected and is now heard again)."""
        self._last[member] = tick
        rejoined = member in self._suspected
        self._suspected.discard(member)
        return rejoined

    # -- suspicion -----------------------------------------------------------
    def check(self, member: str, tick: int) -> bool:
        """Evaluate suspicion now; returns True on the alive->suspect
        transition (exactly once per outage)."""
        last = self._last.get(member)
        if last is None or member in self._suspected:
            return False
        if tick - last >= self.config.suspect_after_ticks:
            self._suspected.add(member)
            return True
        return False

    def state(self, member: str) -> str:
        if member not in self._last:
            return UNKNOWN
        return SUSPECT if member in self._suspected else ALIVE

    # ndlint: allow[ND012] -- test oracle over private state
    def is_suspect(self, member: str) -> bool:
        return member in self._suspected

    # ndlint: allow[ND012] -- test oracle over private state
    def suspects(self) -> List[str]:
        return sorted(self._suspected)

    def last_heard(self, member: str) -> Optional[int]:
        return self._last.get(member)
