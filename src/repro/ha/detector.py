"""Heartbeat failure detector on the faults logical clock.

A deadline/phi hybrid: a member is suspected when it has been silent
past a hard tick deadline (``suspect_after_ticks``) **or** when the
phi-accrual score — elapsed silence over the member's mean heartbeat
inter-arrival — crosses ``phi_threshold``.  The hard deadline bounds
detection latency for members that died young (too few samples for a
meaningful mean); the phi score adapts to members whose heartbeats
arrive at irregular logical cadence (a store busy with a long near-data
job ticks the clock in bursts).

Because the clock only advances with observed work, detection is
deterministic: the same workload and fault schedule suspect the same
member at the same tick, every run.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .config import HAConfig

#: membership states reported by :meth:`FailureDetector.state`
ALIVE = "alive"
SUSPECT = "suspect"
UNKNOWN = "unknown"

#: ticks between controller heartbeat probes (one per poll): the mean
#: inter-arrival phi assumes before a member has a history
HEARTBEAT_INTERVAL_TICKS = 1
#: heartbeat inter-arrival window the phi estimate is computed over
WINDOW = 32


class FailureDetector:
    """Tracks last-heard ticks and inter-arrival history per member."""

    def __init__(self, config: HAConfig):
        self.config = config.validated()
        self._last: Dict[str, int] = {}
        self._intervals: Dict[str, Deque[int]] = {}
        self._suspected: set = set()

    # -- observations --------------------------------------------------------
    def heartbeat(self, member: str, tick: int) -> bool:
        """Record one heartbeat; returns True if this is a rejoin
        (the member was suspected and is now heard again)."""
        prev = self._last.get(member)
        if prev is not None and tick > prev:
            window = self._intervals.setdefault(
                member, deque(maxlen=WINDOW))
            window.append(tick - prev)
        self._last[member] = tick
        rejoined = member in self._suspected
        self._suspected.discard(member)
        return rejoined

    # -- suspicion -----------------------------------------------------------
    def phi(self, member: str, tick: int) -> float:
        """Silence score: elapsed ticks over mean heartbeat interval."""
        last = self._last.get(member)
        if last is None:
            return 0.0
        elapsed = max(0, tick - last)
        window = self._intervals.get(member)
        if window:
            mean = sum(window) / len(window)
        else:
            mean = float(HEARTBEAT_INTERVAL_TICKS)
        return elapsed / max(mean, 1e-9)

    def check(self, member: str, tick: int) -> bool:
        """Evaluate suspicion now; returns True on the alive->suspect
        transition (exactly once per outage)."""
        last = self._last.get(member)
        if last is None or member in self._suspected:
            return False
        elapsed = tick - last
        if (elapsed >= self.config.suspect_after_ticks
                or self.phi(member, tick) >= self.config.phi_threshold):
            self._suspected.add(member)
            return True
        return False

    def state(self, member: str) -> str:
        if member not in self._last:
            return UNKNOWN
        return SUSPECT if member in self._suspected else ALIVE

    def is_suspect(self, member: str) -> bool:
        return member in self._suspected

    def suspects(self) -> List[str]:
        return sorted(self._suspected)

    def last_heard(self, member: str) -> Optional[int]:
        return self._last.get(member)
