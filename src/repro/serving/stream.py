"""StreamingFrontend — async request-id'd serving with backpressure.

The synchronous :class:`~repro.serving.frontend.ServingFrontend`
completes requests in submission order and sheds on a full queue.  This
front end runs the production shape instead, still as a deterministic
discrete-event simulation on the logical clock:

* **out-of-order completion** — micro-batches land on whichever replica
  is free, so a small batch on an idle replica finishes before a large
  earlier batch still running elsewhere; answers are reassembled per
  request id as completion callbacks fire, and the report counts the
  inversions (completions whose submission sequence number is lower
  than one already delivered);
* **backpressure credits, not sheds** — clients hold send credits
  (:class:`~repro.serving.protocol.CreditWindow`); an arrival with no
  credit waits in a client-side backlog until a completion replenishes
  the window.  Overload therefore degrades to *delay* (visible as
  ``credit_wait``) instead of ``queue_full`` drops, and conservation is
  exact: ``offered == completed + cancelled + expired``;
* **cancellation and deadlines** — a cancel resolves a backlog or
  pending request immediately and is latched for in-flight requests
  (the answer is discarded at completion); requests that can no longer
  meet their deadline expire at batch-formation time;
* **no shed on dispatch faults** — a batch whose transfer every retry
  drops is re-queued at the front of the pending line (counted as
  ``redispatches``) rather than shed, preserving conservation; the
  dropped batch cached nothing, so its misses miss again;
* **hits from the split point** — batches run through the shared
  :class:`~repro.serving.batcher.MicroBatcher`: a request whose feature
  row the serving replica's front already produced runs only the
  classifier tail, which is what makes batch service times (and so
  completion order across replicas) depend on each batch's hit mix;
* **logical completion, pooled arithmetic** — a completion event is the
  logical batch finishing on the clock; the replica computes lazily
  (one front forward per ``max_batch`` pooled misses, one tail per
  logical batch), so a completed :class:`~repro.serving.protocol.
  StreamOutcome` gets its label and confidence when :meth:`serve`
  returns — a replica retired by a scale-down still answers what it
  took, and a cancel-latched answer is still discarded;
* **three signals, three actuators** — each delivered batch's *service
  time* (dispatch to done) feeds the AIMD
  :class:`~repro.serving.batcher.SloController` (batch size); its worst
  request *sojourn* feeds the :class:`~repro.serving.autoscale.
  ElasticityController`, which grows/shrinks the replica set inside the
  configured bounds; the *deadline* drives expiry at batch formation.

Identical traces (arrivals + cancellations) produce identical reports.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

from ..core.fabric import NetworkFabric
from ..faults.errors import TransientFaultError
from ..faults.retry import RetryPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .admission import ServeRequest
from .autoscale import ElasticityController
from .batcher import MicroBatcher
from .config import ServingConfig, StreamConfig
from .dispatcher import ReplicaDispatcher
from .metrics import ServingMetrics
from .protocol import (
    CANCELLED,
    COMPLETED,
    EXPIRED,
    CreditWindow,
    StreamOutcome,
    StreamingReport,
)

__all__ = ["StreamingFrontend"]

# event kinds; ties at one instant break on insertion sequence, and
# arrivals are inserted before cancels before anything scheduled later
_ARRIVAL = "arrival"
_CANCEL = "cancel"
_COMPLETE = "complete"
_WAKE = "wake"

Cancellations = Union[Mapping[str, float], Iterable[Tuple[str, float]]]


class StreamingFrontend:
    """Credit-windowed async serving over an elastic replica set."""

    def __init__(self, replica_factory: Callable[[int], object],
                 config: ServingConfig,
                 stream: Optional[StreamConfig] = None, *,
                 network: Optional[NetworkFabric] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config.validated()
        self.stream = (stream if stream is not None
                       else StreamConfig()).validated()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.retry = (retry_policy if retry_policy is not None
                      else RetryPolicy())
        self.network = (network if network is not None
                        else NetworkFabric(metrics=self.metrics))
        self.replica_factory = replica_factory
        self._replica_seq = 0
        initial = max(self.stream.min_replicas,
                      min(self.stream.max_replicas, self.config.replicas))
        replicas = [self._new_replica() for _ in range(initial)]
        self.dispatcher = ReplicaDispatcher(replicas, self.config,
                                            self.network, self.retry)
        self.m = ServingMetrics(self.metrics)
        self.batcher = MicroBatcher(self.config, self.dispatcher, self.m)
        self.cache = self.batcher.cache
        self.controller = self.batcher.controller
        self.autoscaler = (ElasticityController(
            slo_s=self.config.slo_s,
            min_replicas=self.stream.min_replicas,
            max_replicas=self.stream.max_replicas,
            scale_up_headroom=self.stream.scale_up_headroom,
            scale_down_headroom=self.stream.scale_down_headroom,
            window=self.stream.window, cooldown=self.stream.cooldown)
            if self.stream.autoscale else None)

    def _new_replica(self):
        replica = self.replica_factory(self._replica_seq)
        self._replica_seq += 1
        return replica

    def serve(self, requests: Sequence[ServeRequest],
              cancellations: Optional[Cancellations] = None,
              ) -> StreamingReport:
        """Play an arrival trace (plus optional cancels) to completion.

        ``cancellations`` maps request ids to the logical time the
        client cancels them; a cancel for an already-resolved request is
        a no-op (the race is legal in the protocol), a cancel for an id
        not in the trace is an error.
        """
        run = _StreamRun(self, requests, cancellations)
        with self.tracer.span("serving.stream", offered=run.offered):
            report = run.run()
        self.batcher.close(report)
        report.final_replicas = self.dispatcher.num_replicas
        report.replica_busy_s = self.dispatcher.busy_s
        report.replica_stalled_s = self.dispatcher.stalled_s
        if not report.conserved:
            raise RuntimeError(
                f"request conservation violated: offered={report.offered} "
                f"!= completed={report.completed} + "
                f"cancelled={report.cancelled} + expired={report.expired}")
        return report


class _StreamRun:
    """Mutable state of one serve() invocation's event loop."""

    def __init__(self, frontend: StreamingFrontend,
                 requests: Sequence[ServeRequest],
                 cancellations: Optional[Cancellations]):
        self.f = frontend
        self.m = frontend.m
        self.arrivals = sorted(requests,
                               key=lambda r: (r.arrival_s, r.request_id))
        ids = [r.request_id for r in self.arrivals]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate request_id in trace")
        cancels = dict(cancellations or {})
        unknown = sorted(set(cancels) - set(ids))
        if unknown:
            raise ValueError(f"cancellations for unknown request ids: "
                             f"{unknown}")
        self.offered = len(self.arrivals)
        self.by_id: Dict[str, ServeRequest] = {
            r.request_id: r for r in self.arrivals}
        #: submission sequence = arrival order; inversions are counted
        #: against it when completions are delivered
        self.submit_seq: Dict[str, int] = {
            rid: i for i, rid in enumerate(ids)}
        self.report = StreamingReport(offered=self.offered)
        self.credits = CreditWindow(self.f.stream.credits)
        self.state: Dict[str, str] = {}
        self.backlog: Deque[ServeRequest] = deque()
        self.pending: Deque[ServeRequest] = deque()
        self.min_service_s = self.f.dispatcher.min_service_s()
        self.heap: List[Tuple[float, int, str, object]] = []
        self.seq = 0
        for request in self.arrivals:
            self._push(request.arrival_s, _ARRIVAL, request)
        for rid, t in sorted(cancels.items(), key=lambda kv: (kv[1], kv[0])):
            self._push(float(t), _CANCEL, rid)
        self.now = 0.0
        self.batch_index = 0
        self.inflight = 0
        self.max_completed_seq = -1
        self.wake_times: set = set()
        self.report.peak_replicas = self.f.dispatcher.num_replicas

    # -- event plumbing ------------------------------------------------------
    def _push(self, t: float, kind: str, payload: object) -> None:
        heapq.heappush(self.heap, (t, self.seq, kind, payload))
        self.seq += 1

    def _schedule_wake(self, t: float) -> None:
        if t not in self.wake_times:
            self.wake_times.add(t)
            self._push(t, _WAKE, None)

    # -- the loop ------------------------------------------------------------
    def run(self) -> StreamingReport:
        while self.heap:
            t, _seq, kind, payload = heapq.heappop(self.heap)
            self.now = max(self.now, t)
            if kind == _ARRIVAL:
                self._on_arrival(payload)
            elif kind == _CANCEL:
                self._on_cancel(payload)
            elif kind == _COMPLETE:
                self._on_complete(payload)
            else:
                self.wake_times.discard(t)
                self._maybe_dispatch()
        if self.backlog or self.pending or self.inflight:
            raise RuntimeError(
                f"event loop drained with work left: "
                f"backlog={len(self.backlog)} pending={len(self.pending)} "
                f"inflight={self.inflight}")
        self.credits.check()
        return self.report

    def _on_arrival(self, request: ServeRequest) -> None:
        if self.credits.acquire():
            self._submit(request)
            self._maybe_dispatch()
        else:
            self.state[request.request_id] = "backlog"
            self.backlog.append(request)
        self.m.stream_credits.set(self.credits.available)

    def _submit(self, request: ServeRequest) -> None:
        """Move a credited request into the server-side pending line."""
        self.state[request.request_id] = "pending"
        self.pending.append(request)
        wait_s = self.now - request.arrival_s
        self.report.credit_waits_s.append(wait_s)
        self.m.stream_credit_wait.observe(wait_s)

    def _admit_backlog(self) -> None:
        while self.backlog and self.credits.acquire():
            self._submit(self.backlog.popleft())
        self.m.stream_credits.set(self.credits.available)

    def _on_cancel(self, request_id: str) -> None:
        status = self.state.get(request_id)
        if status == "backlog":
            self.backlog.remove(self.by_id[request_id])
            self._resolve(StreamOutcome(request_id, CANCELLED, self.now))
        elif status == "pending":
            self.pending.remove(self.by_id[request_id])
            self._resolve(StreamOutcome(request_id, CANCELLED, self.now))
            self.credits.release()
            self._admit_backlog()
            self._maybe_dispatch()
        elif status == "inflight":
            # latch: the batch keeps running, the answer is discarded at
            # completion and the credit returns then
            self.state[request_id] = "cancel-latched"
        # terminal/cancel-latched: the cancel lost the race, no-op

    def _maybe_dispatch(self) -> None:
        while self.pending and \
                self.f.dispatcher.earliest_free_s() <= self.now:
            ready = self._take_ready()
            if ready and not self._dispatch(ready):
                break
        if self.pending:
            # a replica stalled by a failed dispatch frees with no event
            self._schedule_wake(self.f.dispatcher.earliest_free_s())

    def _take_ready(self) -> List[ServeRequest]:
        """Form a batch like AdmissionQueue.take: pop until the target
        fills, expiring requests that can no longer meet the deadline."""
        ready: List[ServeRequest] = []
        expired = 0
        target = self.f.controller.batch_size
        while self.pending and len(ready) < target:
            request = self.pending.popleft()
            deadline = (self.f.config.effective_deadline_s
                        if request.deadline_s is None else request.deadline_s)
            if self.now - request.arrival_s > deadline - self.min_service_s:
                self._resolve(StreamOutcome(
                    request.request_id, EXPIRED, self.now))
                self.credits.release()
                expired += 1
            else:
                ready.append(request)
        if expired:
            self._admit_backlog()
        return ready

    def _dispatch(self, ready: List[ServeRequest]) -> bool:
        try:
            batch = self.f.batcher.run(ready, self.now)
        except TransientFaultError:
            # degrade to delayed, never dropped: back to the front of the
            # line, retried once the stalled replica (or any other) frees
            self.report.redispatches += len(ready)
            self.m.stream_redispatches.inc(len(ready))
            self.pending.extendleft(reversed(ready))
            return False
        self.batch_index += 1
        self.report.batch_sizes.append(len(ready))
        for request in ready:
            self.state[request.request_id] = "inflight"
        self.inflight += len(ready)
        self.m.stream_inflight.set(self.inflight)
        self._push(batch.t_done, _COMPLETE, (ready, batch, self.batch_index))
        return True

    def _on_complete(self, payload) -> None:
        ready, batch, batch_index = payload
        t_done, replica = batch.t_done, batch.replica
        self.report.makespan_s = max(self.report.makespan_s, t_done)
        self.inflight -= len(ready)
        self.m.stream_inflight.set(self.inflight)
        worst_latency_s = 0.0
        for row, request in enumerate(ready):
            rid = request.request_id
            if self.state.get(rid) == "cancel-latched":
                self._resolve(StreamOutcome(
                    rid, CANCELLED, t_done, replica=replica,
                    batch_index=batch_index, batch_size=len(ready)))
            else:
                latency_s = t_done - request.arrival_s
                worst_latency_s = max(worst_latency_s, latency_s)
                self.report.latencies_s.append(latency_s)
                self.m.latency.observe(latency_s)
                seq = self.submit_seq[rid]
                if seq < self.max_completed_seq:
                    self.report.out_of_order += 1
                else:
                    self.max_completed_seq = seq
                self.report.completion_order.append(rid)
                outcome = StreamOutcome(
                    rid, COMPLETED, t_done, latency_s=latency_s,
                    replica=replica, batch_index=batch_index,
                    batch_size=len(ready), cache_hit=batch.hits[row])
                self._resolve(outcome)
                self.f.batcher.owe(outcome, batch, row)
            self.credits.release()
        self._admit_backlog()
        # the batch ran and cost its service time even if every answer was
        # discarded; only the autoscaler needs a sojourn sample
        self.f.batcher.settle(batch)
        if worst_latency_s > 0.0 and self.f.autoscaler is not None:
            self._apply_scale(self.f.autoscaler.observe(
                worst_latency_s, self.f.dispatcher.num_replicas))
        self._maybe_dispatch()

    def _apply_scale(self, delta: int) -> None:
        if delta > 0:
            self.f.dispatcher.add_replica(self.f._new_replica(), self.now)
            self.report.scale_ups += 1
            self.m.scale_events["up"].inc()
        elif delta < 0:
            if self.f.dispatcher.remove_idle_replica(self.now) is not None:
                self.report.scale_downs += 1
                self.m.scale_events["down"].inc()
        count = self.f.dispatcher.num_replicas
        self.report.peak_replicas = max(self.report.peak_replicas, count)
        self.m.replica_count.set(count)

    def _resolve(self, outcome: StreamOutcome) -> None:
        self.state[outcome.request_id] = outcome.status
        self.report.outcomes.append(outcome)
        if outcome.status == COMPLETED:
            self.report.completed += 1
            self.m.completed.inc()
        elif outcome.status == CANCELLED:
            self.report.cancelled += 1
        else:
            self.report.expired += 1
        self.m.stream_requests[outcome.status].inc()
