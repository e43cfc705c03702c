"""Admission control: a bounded upload queue with per-request deadlines.

The front end of §3.1 flow 1 cannot serve unbounded backlog — a queue
deeper than what the replicas can drain inside the deadline only turns
timely requests into late ones.  So admission is where load is shed:

* **queue_full** — an arrival finds the bounded queue at capacity and is
  rejected immediately (the client sees fast failure, not slow success);
* **deadline** — at batch-formation time, a queued request that can no
  longer finish inside its deadline (wait already exceeds
  ``deadline - min_service``) is dropped instead of wasting accelerator
  time on an answer nobody is waiting for.

Every shed is counted by reason; the serving report's accounting
invariant ``offered == completed + cancelled + shed`` is exact.  The
queue is the pending line of both serving protocols: under a credit
window it has one slot per credit, so it never fills, and a batch whose
dispatch failed goes back to its head (:meth:`AdmissionQueue.requeue`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..lint.contracts import conserves

__all__ = ["ServeRequest", "AdmissionQueue"]


class ServeRequest(NamedTuple):
    """One photo upload offered to the serving layer.  Immutable; a
    tuple, so building one costs no per-field ``__setattr__`` (a trace
    builds thousands)."""

    request_id: str
    #: open-loop arrival time on the deterministic clock
    arrival_s: float
    #: raw pixels (C, H, W) in [0, 1]
    pixels: np.ndarray
    #: optional user tag (becomes the training label on ingest)
    train_label: Optional[int] = None
    #: per-request deadline override (None = the config deadline)
    deadline_s: Optional[float] = None


@conserves("_offered == _admitted + _shed_full")
class AdmissionQueue:
    """Bounded FIFO between the open-loop arrivals and the batcher.

    Every arrival is accounted exactly once at the admission boundary:
    ``_offered == _admitted + _shed_full`` holds on every path through
    :meth:`offer` (ND006 proves it statically; :meth:`stats` exposes the
    ledger so callers can cross-check the serving report against it).
    """

    def __init__(self, capacity: int, deadline_s: float):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.capacity = capacity
        self.deadline_s = deadline_s
        self._pending: Deque[ServeRequest] = deque()
        self._offered = 0
        self._admitted = 0
        self._shed_full = 0

    def offer(self, request: ServeRequest) -> bool:
        """Admit one arrival; False means it was shed (queue full)."""
        self._offered += 1
        if len(self._pending) >= self.capacity:
            self._shed_full += 1
            return False
        self._pending.append(request)
        self._admitted += 1
        return True

    def take(self, max_items: int, now_s: float, min_service_s: float,
             ) -> Tuple[List[ServeRequest], List[ServeRequest]]:
        """Form the next micro-batch at time ``now_s``.

        Returns ``(ready, expired)``: up to ``max_items`` requests that
        can still finish inside their deadline, plus every request popped
        on the way that no longer can (they are shed, not served late).
        """
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        ready: List[ServeRequest] = []
        expired: List[ServeRequest] = []
        while self._pending and len(ready) < max_items:
            request = self._pending.popleft()
            deadline = (self.deadline_s if request.deadline_s is None
                        else request.deadline_s)
            if now_s - request.arrival_s > deadline - min_service_s:
                expired.append(request)
            else:
                ready.append(request)
        return ready, expired

    def depth(self) -> int:
        return len(self._pending)

    def shed_full_count(self) -> int:
        """Arrivals rejected because the queue was at capacity."""
        return self._shed_full

    def remove(self, request: ServeRequest) -> None:
        """Take one queued request out of the line (a client cancel)."""
        self._pending.remove(request)

    def requeue(self, ready: List[ServeRequest]) -> None:
        """Put a batch whose dispatch failed back at the head, in order."""
        self._pending.extendleft(reversed(ready))

    def stats(self) -> Dict[str, int]:
        return {"depth": len(self._pending),
                "offered": self._offered,
                "admitted": self._admitted,
                "shed_full": self._shed_full}
