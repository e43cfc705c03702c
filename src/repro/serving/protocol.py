"""Serving protocol: credits, statuses, the one outcome and report.

Every request offered to a front end moves through a small state
machine and ends in exactly one terminal status::

    backlog -> pending -> inflight -> completed
        \\         \\          \\-----> cancelled   (cancel latched in flight)
         \\         \\--------------> cancelled | expired | dispatch_failed
          \\-----------------------> cancelled
    (arrival) ----------------------> queue_full

``backlog`` holds submissions waiting for a send credit (client side),
``pending`` holds requests queued at the server, ``inflight`` requests
ride a dispatched micro-batch.  Conservation reads ``offered ==
completed + cancelled + expired + queue_full + dispatch_failed``.

Two protocols share the states.  Under a credit window (a
:class:`~repro.serving.config.StreamConfig`) nothing is shed: a client
may only submit while it holds a credit, credits replenish when the
server resolves the request, so overload degrades to *delay* (backlog
wait) rather than drops, and the invariant checked on every transition
is ``granted == in_flight + available``.  Without one the pending line
is a bounded queue: a full queue sheds ``queue_full``, a batch every
retry dropped sheds ``dispatch_failed``, and there is no backlog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..lint.contracts import conserves
from .admission import ServeRequest

__all__ = [
    "COMPLETED",
    "CANCELLED",
    "EXPIRED",
    "QUEUE_FULL",
    "DISPATCH_FAILED",
    "TERMINAL_STATUSES",
    "SHED_REASONS",
    "CreditWindow",
    "ServeOutcome",
    "ServingReport",
    "exact_percentile",
]

COMPLETED = "completed"
CANCELLED = "cancelled"
EXPIRED = "expired"
QUEUE_FULL = "queue_full"
DISPATCH_FAILED = "dispatch_failed"
TERMINAL_STATUSES = (COMPLETED, CANCELLED, EXPIRED, QUEUE_FULL,
                     DISPATCH_FAILED)
#: the keys of :attr:`ServingReport.shed`; ``deadline`` is the expiry
SHED_REASONS = ("queue_full", "deadline", "dispatch_failed")


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Exact order-statistic percentile (no interpolation) so reported
    tails are deterministic for a deterministic trace."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


@conserves("granted == in_flight + available")
class CreditWindow:
    """Fixed-size send-credit window with a checked conservation law.

    ``granted`` credits exist for the lifetime of the window; at any
    instant each one is either ``available`` to the client or pinned to
    an ``in_flight`` request (pending or dispatched).  Every transition
    re-checks ``granted == in_flight + available`` and raises if the
    books ever disagree — a lost or double-spent credit is a protocol
    bug, not a tolerable drift.
    """

    def __init__(self, granted: int):
        if granted < 1:
            raise ValueError(f"granted credits must be >= 1, got {granted}")
        self.granted = int(granted)
        self.available = int(granted)
        self.in_flight = 0

    def acquire(self) -> bool:
        """Take one credit; ``False`` (no side effect) when exhausted."""
        if self.available == 0:
            self.check()
            return False
        self.available -= 1
        self.in_flight += 1
        self.check()
        return True

    def release(self) -> None:
        """Return one credit on request resolution."""
        if self.in_flight == 0:
            raise RuntimeError("credit released without a matching acquire")
        self.in_flight -= 1
        self.available += 1
        self.check()


@dataclass
class ServeOutcome:
    """Terminal record for one request.

    A completed request's ``label`` and ``confidence`` are filled in when
    its replica resolves, at the end of the serve.  ``codes`` are the
    request's 8-bit codes, kept only when the caller asked for them
    (``serve(..., collect_codes=True)``), a cache hit's as well as a
    miss's.  They are a view into the batch's stacked codes, so they pin
    that whole array:
    ``NDPipeCluster.serve_uploads`` clears them once the photo has
    landed.
    """

    request: ServeRequest
    status: str
    t_resolved_s: float
    label: Optional[int] = None
    confidence: Optional[float] = None
    latency_s: Optional[float] = None
    replica: Optional[str] = None
    batch_index: Optional[int] = None
    batch_size: Optional[int] = None
    cache_hit: Optional[bool] = None
    codes: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.status not in TERMINAL_STATUSES:
            raise ValueError(f"unknown terminal status {self.status!r}")

    @property
    def request_id(self) -> str:
        return self.request.request_id


@conserves("offered == completed + cancelled + expired + queue_full "
           "+ dispatch_failed", mode="group")
@dataclass
class ServingReport:
    """Everything one front end's ``serve()`` run measured.

    The ``group`` conservation mode fits a ledger that closes at
    end-of-run: every resolution path must bump exactly one terminal
    counter (ND006 proves the path consistency statically), and the
    runtime ``check()`` settles the books when the event
    loop drains.  Which terms can be non-zero depends on the protocol:
    the bounded queue sheds (``queue_full``, ``expired`` as the
    ``deadline`` shed, ``dispatch_failed``), the credit window only
    cancels and expires.
    """

    offered: int = 0
    completed: int = 0
    cancelled: int = 0
    expired: int = 0
    # structurally zero under credit flow — kept (and gated at zero) to
    # prove that protocol never sheds on a full queue
    queue_full: int = 0
    dispatch_failed: int = 0
    makespan_s: float = 0.0
    redispatches: int = 0
    out_of_order: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    final_replicas: int = 0
    peak_replicas: int = 0
    final_batch_target: int = 0
    replica_busy_s: float = 0.0
    #: the accelerator stage's share of ``replica_busy_s``
    accelerator_busy_s: float = 0.0
    replica_stalled_s: float = 0.0
    #: the replica count integrated over logical time up to
    #: ``makespan_s``: what the fleet cost, busy or not
    provisioned_replica_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_rejected_oversize: int = 0
    latencies_s: List[float] = field(default_factory=list)
    credit_waits_s: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    completion_order: List[str] = field(default_factory=list)
    outcomes: List[ServeOutcome] = field(default_factory=list)

    @property
    def shed(self) -> Dict[str, int]:
        """Requests shed, by reason (an expiry is the ``deadline`` shed)."""
        return {"queue_full": self.queue_full, "deadline": self.expired,
                "dispatch_failed": self.dispatch_failed}

    @property
    def shed_total(self) -> int:
        return self.queue_full + self.expired + self.dispatch_failed

    @property
    def completed_requests(self) -> List[ServeOutcome]:
        """The completed outcomes, in the order they were delivered."""
        return [o for o in self.outcomes if o.status == COMPLETED]

    @property
    def conserved(self) -> bool:
        """Whether the declared law holds (``check()`` raises if not)."""
        try:
            self.check()
        except RuntimeError:
            return False
        return True

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of simulated run time."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    @property
    def mean_batch(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def latency_percentile(self, q: float) -> float:
        return exact_percentile(self.latencies_s, q)

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    def credit_wait_percentile(self, q: float) -> float:
        return exact_percentile(self.credit_waits_s, q)

    def to_dict(self) -> Dict[str, object]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "expired": self.expired,
            "queue_full": self.queue_full,
            "dispatch_failed": self.dispatch_failed,
            "shed": self.shed,
            "conserved": self.conserved,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "p99_credit_wait_s": self.credit_wait_percentile(99),
            "mean_batch": self.mean_batch,
            "out_of_order": self.out_of_order,
            "redispatches": self.redispatches,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "final_replicas": self.final_replicas,
            "peak_replicas": self.peak_replicas,
            "final_batch_target": self.final_batch_target,
            "replica_busy_s": self.replica_busy_s,
            "accelerator_busy_s": self.accelerator_busy_s,
            "replica_stalled_s": self.replica_stalled_s,
            "provisioned_replica_s": self.provisioned_replica_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_rejected_oversize": self.cache_rejected_oversize,
        }
