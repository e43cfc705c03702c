"""ServingFrontend — the high-throughput online upload path.

A deterministic discrete-event loop (no wall clock, no threads) that
plays an open-loop arrival trace through admission control, the
feature-row cache, the adaptive micro-batcher, and the replica
dispatcher:

1. the earliest-free undrained replica — the one the batch will land
   on — sets the batch-formation time ``t_start``;
2. every arrival at or before ``t_start`` is offered to the bounded
   admission queue (overflow is shed as ``queue_full``);
3. the queue yields up to the controller's batch-size target, dropping
   requests that can no longer meet their deadline (``deadline`` sheds);
4. the shared :class:`~repro.serving.batcher.MicroBatcher` runs it:
   cache hits bring their split-point feature rows, misses are
   preprocessed; the batch moves to the replica over the byte-accounted
   fabric under the retry policy (a dropped batch is shed as
   ``dispatch_failed``), the replica takes its misses into its front
   pool and owes one classifier tail over the whole batch, and the
   misses' rows (promises until the front runs) are cached;
5. the batch's service time (dispatch to done) feeds the AIMD controller.

Every step above is the *logical* batch, settled on the clock at
dispatch.  The arithmetic runs on the replicas' own schedule — a front
forward per ``max_batch`` pooled misses, a tail per logical batch — and
all of it before :meth:`ServingFrontend.serve` returns, which is when
each :class:`ServeOutcome` gets its label and confidence.

Identical inputs produce identical reports: arrival times come from the
traffic trace, service times from the calibrated hardware specs plus
whatever latency the fault injector adds, and classification from the
seeded tiny models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.fabric import NetworkFabric
from ..faults.errors import TransientFaultError
from ..faults.retry import RetryPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .admission import AdmissionQueue, ServeRequest
from .batcher import MicroBatcher
from .config import ServingConfig
from .dispatcher import ReplicaDispatcher
from .metrics import ServingMetrics
from .protocol import exact_percentile

__all__ = ["ServeOutcome", "ServingReport", "ServingFrontend",
           "SHED_REASONS"]

#: every way a request can be shed, for exact accounting
SHED_REASONS = ("queue_full", "deadline", "dispatch_failed")


@dataclass
class ServeOutcome:
    """One completed request: its answer and how long it took.  The
    answer is filled in when the serve ends and the replicas resolve."""

    request: ServeRequest
    label: Optional[int]
    confidence: Optional[float]
    latency_s: float
    batch_index: int
    batch_size: int
    cache_hit: bool
    replica: str
    #: the preprocessed tensor, kept only when the caller lands uploads
    #: and the batch computed it (``None`` for a row served from cache)
    preprocessed: Optional[np.ndarray] = None


@dataclass
class ServingReport:
    """Everything one :meth:`ServingFrontend.serve` run produced."""

    offered: int = 0
    completed: int = 0
    shed: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in SHED_REASONS})
    makespan_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_rejected_oversize: int = 0
    final_batch_target: int = 0
    completed_requests: List[ServeOutcome] = field(default_factory=list)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

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
        return float(np.mean(self.batch_sizes))

    def latency_percentile(self, q: float) -> float:
        return exact_percentile(self.latencies_s, q)

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    def to_dict(self) -> Dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed": dict(self.shed),
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_batch": self.mean_batch,
            "final_batch_target": self.final_batch_target,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_rejected_oversize": self.cache_rejected_oversize,
        }


class ServingFrontend:
    """Admission + cache + batcher + dispatcher in front of replicas."""

    def __init__(self, replicas: Sequence, config: ServingConfig, *,
                 network: Optional[NetworkFabric] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config.validated()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.retry = (retry_policy if retry_policy is not None
                      else RetryPolicy())
        self.network = (network if network is not None
                        else NetworkFabric(metrics=self.metrics))
        self.dispatcher = ReplicaDispatcher(replicas, self.config,
                                            self.network, self.retry)
        self.m = ServingMetrics(self.metrics)
        self.batcher = MicroBatcher(self.config, self.dispatcher, self.m)
        self.cache = self.batcher.cache
        self.controller = self.batcher.controller

    # -- the deterministic event loop ---------------------------------------
    def serve(self, requests: Sequence[ServeRequest],
              collect_tensors: bool = False) -> ServingReport:
        """Play an arrival trace to completion; returns the report."""
        arrivals = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        report = ServingReport(offered=len(arrivals))
        self.m.offered.inc(len(arrivals))
        queue = AdmissionQueue(self.config.queue_capacity,
                               self.config.effective_deadline_s)
        min_service_s = self.dispatcher.min_service_s()
        next_arrival = 0
        now_s = 0.0
        batch_index = 0
        with self.tracer.span("serving.serve", offered=len(arrivals)):
            while next_arrival < len(arrivals) or queue.depth() > 0:
                if queue.depth() == 0:
                    now_s = max(now_s, arrivals[next_arrival].arrival_s)
                t_start = max(now_s, self.dispatcher.earliest_free_s())
                while (next_arrival < len(arrivals)
                       and arrivals[next_arrival].arrival_s <= t_start):
                    if not queue.offer(arrivals[next_arrival]):
                        self._shed(report, "queue_full")
                    next_arrival += 1
                ready, expired = queue.take(self.controller.batch_size,
                                            t_start, min_service_s)
                for _ in expired:
                    self._shed(report, "deadline")
                now_s = t_start
                if not ready:
                    continue
                batch_index += 1
                self._run_batch(ready, t_start, batch_index, report,
                                collect_tensors)
                self.m.queue_depth.set(queue.depth())
        self.batcher.close(report)
        return report

    def _run_batch(self, ready: List[ServeRequest], t_start: float,
                   batch_index: int, report: ServingReport,
                   collect_tensors: bool) -> None:
        """Serve one batch, or shed it when its dispatch fails."""
        try:
            batch = self.batcher.run(ready, t_start)
        except TransientFaultError:
            for _ in ready:
                self._shed(report, "dispatch_failed")
            return
        report.batch_sizes.append(len(ready))
        # the run ends when the last batch *finishes*; replicas finish out
        # of step, so that is a max over batches, not the final t_done
        report.makespan_s = max(report.makespan_s, batch.t_done)
        for row, request in enumerate(ready):
            latency_s = batch.t_done - request.arrival_s
            report.latencies_s.append(latency_s)
            report.completed += 1
            self.m.completed.inc()
            self.m.latency.observe(latency_s)
            outcome = ServeOutcome(
                request=request, label=None, confidence=None,
                latency_s=latency_s, batch_index=batch_index,
                batch_size=len(ready), cache_hit=batch.hits[row],
                replica=batch.replica,
                preprocessed=(batch.preprocessed[row] if collect_tensors
                              else None))
            report.completed_requests.append(outcome)
            self.batcher.owe(outcome, batch, row)
        self.batcher.settle(batch)

    def _shed(self, report: ServingReport, reason: str) -> None:
        report.shed[reason] += 1
        self.m.shed[reason].inc()
