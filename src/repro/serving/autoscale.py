"""ElasticityController — replica-set sizing from SLO headroom.

Consumes the worst request *sojourn* (arrival to answer, queueing and
credit wait included) of each delivered micro-batch — not the batch
service time :class:`~repro.serving.batcher.SloController` steers batch
size on — and turns sustained SLO pressure into replica-count decisions:

* **scale up** (+1) when the windowed *median* worst-batch latency
  exceeds ``slo_s * SCALE_UP_HEADROOM`` — one bad batch is the batch
  controller's problem; a violated median means batching alone cannot
  absorb the load;
* **scale down** (-1) when *every* latency in the window sits under
  ``slo_s * SCALE_DOWN_HEADROOM`` — the whole window must be
  comfortable before capacity is taken away.

Decisions are rate-limited: the window must be full, a ``cooldown``
number of observations must separate actions, and the window resets
after each action so a single burst cannot trigger a staircase of
scale-ups.  The controller only *recommends* a delta; the front end
applies it subject to the replica bounds and to having an idle replica
to retire.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque

__all__ = ["ElasticityController"]

#: scale up when the windowed median worst-batch latency exceeds
#: ``slo_s * SCALE_UP_HEADROOM``
SCALE_UP_HEADROOM = 1.0
#: scale down when every latency in the window sits under
#: ``slo_s * SCALE_DOWN_HEADROOM``
SCALE_DOWN_HEADROOM = 0.4


class ElasticityController:
    """SLO-headroom autoscaler companion to the AIMD batch controller."""

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
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.window = window
        self.cooldown = cooldown
        self.scale_ups = 0
        self.scale_downs = 0
        self._latencies: Deque[float] = deque(maxlen=window)
        # start past the cooldown so the first full window may act
        self._since_action = cooldown

    def observe(self, worst_latency_s: float, replicas: int) -> int:
        """Feed one batch's worst latency; returns -1, 0, or +1."""
        if worst_latency_s < 0:
            raise ValueError(
                f"worst_latency_s must be >= 0, got {worst_latency_s}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._latencies.append(worst_latency_s)
        self._since_action += 1
        if len(self._latencies) < self.window or \
                self._since_action < self.cooldown:
            return 0
        ordered = sorted(self._latencies)
        median = ordered[len(ordered) // 2]
        if median > self.slo_s * SCALE_UP_HEADROOM and \
                replicas < self.max_replicas:
            self.scale_ups += 1
            self._acted()
            return 1
        if ordered[-1] < self.slo_s * SCALE_DOWN_HEADROOM and \
                replicas > self.min_replicas:
            self.scale_downs += 1
            self._acted()
            return -1
        return 0

    def _acted(self) -> None:
        self._latencies.clear()
        self._since_action = 0
