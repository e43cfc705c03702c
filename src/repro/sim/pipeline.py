"""Analytic pipeline-throughput models.

The paper's throughput results are bottleneck analyses over multi-stage
pipelines (disk -> CPU -> network -> accelerator).  Two execution
disciplines appear:

* **sequential** — the §3 strawman (Typical/Ideal) runs the stages of each
  batch back-to-back, so throughput is the harmonic composition
  ``1 / sum(1/r_i)``;
* **pipelined** — the NPE's 3-stage pipelining (§5.4) overlaps stages, so
  steady-state throughput is the bottleneck stage ``min(r_i)``.

``tests/sim/test_pipeline.py`` runs the same stage network on the
discrete-event kernel with finite inter-stage buffers and checks that its
steady-state rate converges to the analytic value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: a name and a service rate in items/second."""

    name: str
    rate: float

    @property
    def time_per_item(self) -> float:
        if self.rate == float("inf"):
            return 0.0
        if self.rate <= 0:
            raise ValueError(f"stage {self.name} has non-positive rate")
        return 1.0 / self.rate


def pipelined_throughput(stages: Sequence[Stage]) -> Tuple[float, str]:
    """Steady-state rate and bottleneck name under full stage overlap."""
    if not stages:
        raise ValueError("need at least one stage")
    bottleneck = min(stages, key=lambda s: s.rate)
    return bottleneck.rate, bottleneck.name


def sequential_throughput(stages: Sequence[Stage]) -> float:
    """Rate when each item's stages run back-to-back (no overlap)."""
    if not stages:
        raise ValueError("need at least one stage")
    total_time = sum(s.time_per_item for s in stages)
    if total_time == 0:
        return float("inf")
    return 1.0 / total_time


def makespan(num_items: int, rate: float) -> float:
    """Seconds to push ``num_items`` through at ``rate`` items/s."""
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    return num_items / rate
