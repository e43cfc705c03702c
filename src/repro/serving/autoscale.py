"""ElasticityController — replica-set sizing from the waiting line.

The front end prices the line still waiting (pending plus credit
backlog) as the seconds one replica needs to drain it, and the
controller compares that with the *service budget* ``slo_s *
SERVICE_BUDGET_FRACTION`` the batch controller steers each batch into
(:mod:`~repro.serving.batcher`):

* **scale up** (+1), checked after every dispatched batch
  (:meth:`ElasticityController.observe_line`), when ``n`` replicas
  cannot drain the line inside the budget — a leading signal: the line
  grows before any request's sojourn crosses the SLO, so the new
  replica lands while the burst is still young;
* **scale down** (-1), checked after every delivered batch
  (:meth:`ElasticityController.observe`), when *every* worst-request
  sojourn in the window sits under ``slo_s * SCALE_DOWN_HEADROOM`` —
  the whole window must be comfortable before capacity is taken away —
  and ``n - 1`` replicas could still drain the line inside the budget.

Decisions are rate-limited: a ``cooldown`` number of delivered batches
must separate actions, and the sojourn window resets after each action
so a single burst cannot trigger a staircase of scale-ups.  The
controller only *recommends* a delta; the front end applies it subject
to the replica bounds and to having an idle replica to retire.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque

from .batcher import SERVICE_BUDGET_FRACTION

__all__ = ["ElasticityController"]

#: scale down only when every latency in the window sits under
#: ``slo_s * SCALE_DOWN_HEADROOM``
SCALE_DOWN_HEADROOM = 0.4


class ElasticityController:
    """Line-drain autoscaler companion to the AIMD batch controller."""

    def __init__(self, slo_s: float, min_replicas: int, max_replicas: int, *,
                 window: int = 8, cooldown: int = 16):
        if not math.isfinite(slo_s) or slo_s <= 0:
            raise ValueError(f"slo_s must be positive, got {slo_s}")
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{min_replicas}, {max_replicas}]")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.slo_s = slo_s
        #: what one replica may spend draining the line
        self.budget_s = slo_s * SERVICE_BUDGET_FRACTION
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.window = window
        self.cooldown = cooldown
        self.scale_ups = 0
        self.scale_downs = 0
        self._latencies: Deque[float] = deque(maxlen=window)
        # start past the cooldown so the first signal may act
        self._since_action = cooldown

    def observe_line(self, line_s: float, replicas: int) -> int:
        """After a dispatched batch: ``line_s`` is the seconds one
        replica needs to drain the line still waiting.  Returns +1 when
        ``replicas`` cannot drain it inside the budget, else 0."""
        _check(line_s, replicas)
        if self._since_action < self.cooldown or \
                replicas >= self.max_replicas or \
                line_s <= replicas * self.budget_s:
            return 0
        self.scale_ups += 1
        self._acted()
        return 1

    def observe(self, worst_latency_s: float, replicas: int,
                line_s: float) -> int:
        """After a delivered batch: its worst request sojourn, and the
        line priced as in :meth:`observe_line`.  Returns -1 when the
        whole window was comfortable and ``replicas - 1`` could still
        drain the line inside the budget, else 0."""
        if worst_latency_s < 0:
            raise ValueError(
                f"worst_latency_s must be >= 0, got {worst_latency_s}")
        _check(line_s, replicas)
        self._latencies.append(worst_latency_s)
        self._since_action += 1
        if len(self._latencies) < self.window or \
                self._since_action < self.cooldown or \
                replicas <= self.min_replicas or \
                line_s > (replicas - 1) * self.budget_s or \
                max(self._latencies) >= self.slo_s * SCALE_DOWN_HEADROOM:
            return 0
        self.scale_downs += 1
        self._acted()
        return -1

    def _acted(self) -> None:
        self._latencies.clear()
        self._since_action = 0


def _check(line_s: float, replicas: int) -> None:
    if line_s < 0:
        raise ValueError(f"line_s must be >= 0, got {line_s}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
