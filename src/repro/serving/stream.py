"""StreamingFrontend — the one serving loop, request-id'd, two protocols.

A deterministic discrete-event simulation on the logical clock of
:class:`~repro.sim.engine.Simulation` (no wall clock, no threads): an
open-loop arrival trace, plus optional client cancels, plays through
admission, the feature-row cache, the adaptive micro-batcher and the
replica dispatcher.  Whether the front end holds a
:class:`~repro.serving.config.StreamConfig` selects the protocol:

* **credit window** (a ``StreamConfig``) — the production shape.
  Clients hold send credits (:class:`~repro.serving.protocol.
  CreditWindow`); an arrival with no credit waits in a client-side
  backlog until a resolution replenishes the window, so overload
  degrades to *delay* (visible as ``credit_wait``) instead of drops.
  The pending line is an :class:`~repro.serving.admission.
  AdmissionQueue` of ``credits`` slots, which can never fill.  A batch
  whose transfer every retry drops goes back to the head of the line
  (counted as ``redispatches``); the dropped batch cached nothing, so
  its misses miss again.  A batch is delivered at its ``t_done`` event:
  micro-batches land on whichever replica is free, so a small batch on
  an idle replica finishes before a large earlier batch still running
  elsewhere, and the report counts the inversions (completions whose
  submission sequence number is lower than one already delivered).
* **bounded queue** (no ``StreamConfig``; :class:`~repro.serving.
  frontend.ServingFrontend`) — the pending line is an ``AdmissionQueue``
  of ``queue_capacity``; a full queue sheds ``queue_full``, a dropped
  batch sheds ``dispatch_failed``, and each batch is delivered when it
  is dispatched, so completion is in submission order.

Both protocols share the rest:

* **dispatch on every event** — whenever the earliest-free undrained
  replica is free, the line yields up to the controller's batch-size
  target (:meth:`~repro.serving.admission.AdmissionQueue.take`),
  expiring requests that can no longer meet their deadline;
* **cancellation** — a cancel resolves a backlog or pending request
  immediately and is latched for in-flight requests (the answer is
  discarded at delivery);
* **hits from the split point** — batches run through the shared
  :class:`~repro.serving.batcher.MicroBatcher`: a request whose feature
  row the serving replica's front already produced runs only the
  classifier tail, which is what makes batch service times (and so
  completion order across replicas) depend on each batch's hit mix;
* **logical delivery, pooled arithmetic** — delivery is the logical
  batch settled on the clock; the replica computes lazily (one front
  forward per ``max_batch`` pooled misses, one tail per logical batch),
  so a completed :class:`~repro.serving.protocol.ServeOutcome` gets its
  label and confidence when :meth:`StreamingFrontend.serve` returns — a
  replica retired by a scale-down still answers what it took, and a
  cancel-latched answer is still discarded;
* **three signals, three actuators** — each delivered batch's *service
  time* (dispatch to done) feeds the AIMD
  :class:`~repro.serving.batcher.SloController` (batch size); the
  *line* still waiting after each dispatched batch, priced as the
  seconds one replica needs to drain it, grows the replica set through
  the :class:`~repro.serving.autoscale.ElasticityController` (credit
  window only), and each delivered batch's worst request *sojourn* lets
  it shrink, inside the configured bounds; the *deadline* drives expiry
  at batch formation.

Identical traces (arrivals + cancellations) produce identical reports.
"""

from __future__ import annotations

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
from ..sim.engine import Simulation
from .admission import AdmissionQueue, ServeRequest
from .autoscale import ElasticityController
from .batcher import DeliveredBatch, MicroBatcher
from .config import ServingConfig, StreamConfig
from .dispatcher import ReplicaDispatcher
from .metrics import ServingMetrics
from .protocol import (
    CANCELLED,
    COMPLETED,
    DISPATCH_FAILED,
    EXPIRED,
    QUEUE_FULL,
    CreditWindow,
    ServeOutcome,
    ServingReport,
)

__all__ = ["StreamingFrontend"]

Cancellations = Union[Mapping[str, float], Iterable[Tuple[str, float]]]

#: the shed-metric label of each status the bounded queue sheds with
_SHED_LABEL = {QUEUE_FULL: "queue_full", EXPIRED: "deadline",
               DISPATCH_FAILED: "dispatch_failed"}


class StreamingFrontend:
    """Async serving over an elastic replica set; credit-windowed when
    it holds a :class:`StreamConfig`, a bounded queue when not."""

    def __init__(self, replica_factory: Callable[[int], object],
                 config: ServingConfig,
                 stream: Optional[StreamConfig] = None, *,
                 network: Optional[NetworkFabric] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config.validated()
        self.stream = None if stream is None else stream.validated()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.retry = (retry_policy if retry_policy is not None
                      else RetryPolicy())
        self.network = (network if network is not None
                        else NetworkFabric(metrics=self.metrics))
        self.replica_factory = replica_factory
        self._replica_seq = 0
        initial = self.config.replicas
        if self.stream is not None:
            initial = max(self.stream.min_replicas,
                          min(self.stream.max_replicas, initial))
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
            window=self.stream.window, cooldown=self.stream.cooldown)
            if self.stream is not None and self.stream.autoscale else None)

    def _new_replica(self):
        replica = self.replica_factory(self._replica_seq)
        self._replica_seq += 1
        return replica

    def serve(self, requests: Sequence[ServeRequest],
              cancellations: Optional[Cancellations] = None,
              ) -> ServingReport:
        """Play an arrival trace (plus optional cancels) to completion.

        ``cancellations`` maps request ids to the logical time the
        client cancels them; a cancel for an already-resolved request is
        a no-op (the race is legal in the protocol), a cancel for an id
        not in the trace is an error.
        """
        return self._serve(requests, cancellations, collect_codes=False)

    def _serve(self, requests: Sequence[ServeRequest],
               cancellations: Optional[Cancellations],
               collect_codes: bool) -> ServingReport:
        run = _ServeRun(self, requests, cancellations, collect_codes)
        name = "serving.serve" if self.stream is None else "serving.stream"
        with self.tracer.span(name, offered=run.report.offered):
            report = run.run()
        self.batcher.close(report)
        report.final_replicas = self.dispatcher.num_replicas
        report.replica_busy_s = self.dispatcher.busy_s
        report.accelerator_busy_s = self.dispatcher.accelerator_busy_s
        report.replica_stalled_s = self.dispatcher.stalled_s
        report.check()
        return report


class _ServeRun:
    """Mutable state of one serve() invocation on its own kernel."""

    def __init__(self, frontend: StreamingFrontend,
                 requests: Sequence[ServeRequest],
                 cancellations: Optional[Cancellations],
                 collect_codes: bool):
        self.f = frontend
        self.m = frontend.m
        self.collect_codes = collect_codes
        arrivals = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        ids = [r.request_id for r in arrivals]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate request_id in trace")
        cancels = dict(cancellations or {})
        unknown = sorted(set(cancels) - set(ids))
        if unknown:
            raise ValueError(f"cancellations for unknown request ids: "
                             f"{unknown}")
        self.by_id: Dict[str, ServeRequest] = {
            r.request_id: r for r in arrivals}
        #: submission sequence = arrival order; inversions are counted
        #: against it when completions are delivered
        self.submit_seq: Dict[str, int] = {
            rid: i for i, rid in enumerate(ids)}
        self.report = ServingReport(offered=len(arrivals))
        stream = frontend.stream
        config = frontend.config
        self.credits = (None if stream is None
                        else CreditWindow(stream.credits))
        if self.credits is None:
            # each protocol reports into the families it always had: the
            # credit window counts requests by terminal status instead
            self.m.offered.inc(len(arrivals))
        self.queue = AdmissionQueue(
            config.queue_capacity if stream is None else stream.credits,
            config.effective_deadline_s)
        self.state: Dict[str, str] = {}
        self.backlog: Deque[ServeRequest] = deque()
        # arrivals are scheduled before cancels before anything later,
        # so ties at one instant break in that order
        self.sim = Simulation()
        for request in arrivals:
            self.sim.at(request.arrival_s, self._on_arrival, request)
        for rid, t in sorted(cancels.items(), key=lambda kv: (kv[1], kv[0])):
            self.sim.at(float(t), self._on_cancel, rid)
        self.batch_index = 0
        self.inflight = 0
        self.max_completed_seq = -1
        self.wake_times: set = set()
        #: the last dispatched batch's share of cache misses, which the
        #: autoscaler prices the line at
        self.miss_share = 0.0
        #: when the replica count last changed (provisioned replica-seconds
        #: are integrated up to there)
        self.count_since_s = 0.0
        self.report.peak_replicas = frontend.dispatcher.num_replicas

    def _schedule_wake(self, t: float) -> None:
        if t not in self.wake_times:
            self.wake_times.add(t)
            self.sim.at(t, self._on_wake, t)

    def run(self) -> ServingReport:
        self.sim.run()
        if self.backlog or self.queue.depth() or self.inflight:
            raise RuntimeError(
                f"event loop drained with work left: "
                f"backlog={len(self.backlog)} pending={self.queue.depth()} "
                f"inflight={self.inflight}")
        if self.credits is not None:
            self.credits.check()
        self._provision(self.report.makespan_s)
        return self.report

    # -- events --------------------------------------------------------------
    def _on_arrival(self, request: ServeRequest) -> None:
        if self.credits is None or self.credits.acquire():
            self._submit(request)
            self._maybe_dispatch()
        else:
            self.state[request.request_id] = "backlog"
            self.backlog.append(request)
        if self.credits is not None:
            self.m.stream_credits.set(self.credits.available)

    def _on_cancel(self, request_id: str) -> None:
        status = self.state.get(request_id)
        request = self.by_id[request_id]
        if status == "backlog":
            self.backlog.remove(request)
            self._resolve(ServeOutcome(request, CANCELLED, self.sim.now))
        elif status == "pending":
            self.queue.remove(request)
            self._resolve(ServeOutcome(request, CANCELLED, self.sim.now))
            self._release()
            self._maybe_dispatch()
        elif status == "inflight":
            # latch: the batch keeps running, the answer is discarded at
            # delivery and the credit returns then
            self.state[request_id] = "cancel-latched"
        # terminal/cancel-latched: the cancel lost the race, no-op

    def _on_wake(self, t: float) -> None:
        self.wake_times.discard(t)
        self._maybe_dispatch()

    def _on_complete(self, payload) -> None:
        ready, batch, batch_index = payload
        self.inflight -= len(ready)
        self.m.stream_inflight.set(self.inflight)
        self._deliver(ready, batch, batch_index)
        self._maybe_dispatch()

    # -- the line ------------------------------------------------------------
    def _submit(self, request: ServeRequest) -> None:
        """Move a request (credited, under a window) into the line."""
        if not self.queue.offer(request):
            self._resolve(ServeOutcome(request, QUEUE_FULL, self.sim.now))
            return
        self.state[request.request_id] = "pending"
        if self.credits is not None:
            wait_s = self.sim.now - request.arrival_s
            self.report.credit_waits_s.append(wait_s)
            self.m.stream_credit_wait.observe(wait_s)

    def _release(self, count: int = 1) -> None:
        """``count`` requests resolved: their credits return, and the
        backlog moves up."""
        if self.credits is None:
            return
        for _ in range(count):
            self.credits.release()
        while self.backlog and self.credits.acquire():
            self._submit(self.backlog.popleft())
        self.m.stream_credits.set(self.credits.available)

    def _maybe_dispatch(self) -> None:
        """Form and dispatch batches while the line is non-empty and a
        replica is free; what still waits gets a wake for when one frees
        (a replica stalled by a failed dispatch frees with no event)."""
        dispatcher = self.f.dispatcher
        while self.queue.depth():
            # one pick per decision: the start time, the deadline floor
            # and the batch all read this replica
            index = dispatcher.pick_replica()
            free_s = dispatcher.free_s(index)
            if free_s > self.sim.now:
                self._schedule_wake(free_s)
                return
            ready, expired = self.queue.take(
                self.f.controller.batch_size, self.sim.now,
                dispatcher.deadline_floor_s(self.sim.now, index))
            for request in expired:
                self._resolve(ServeOutcome(request, EXPIRED, self.sim.now))
            if expired:
                self._release(len(expired))
            if ready and not self._dispatch(ready, index):
                # back at the head; a replica free since before now (the
                # stalled one is not) is due now
                self._schedule_wake(
                    dispatcher.free_s(dispatcher.pick_replica()))
                return

    def _dispatch(self, ready: List[ServeRequest], index: int) -> bool:
        """Run one batch on replica ``index``; False when it went back to
        the head of the line (the caller waits for a replica to free)."""
        try:
            batch = self.f.batcher.run(ready, self.sim.now, index)
        except TransientFaultError:
            if self.credits is not None:
                # degrade to delayed, never dropped: retried once the
                # stalled replica (or any other) frees
                self.report.redispatches += len(ready)
                self.m.stream_redispatches.inc(len(ready))
                self.queue.requeue(ready)
                return False
            batch = None
        # a shed batch uses up its index too
        self.batch_index += 1
        if batch is None:
            for request in ready:
                self._resolve(ServeOutcome(request, DISPATCH_FAILED,
                                           self.sim.now))
        elif self.credits is None:
            self.report.batch_sizes.append(len(ready))
            self._deliver(ready, batch, self.batch_index)
        else:
            self.report.batch_sizes.append(len(ready))
            for request in ready:
                self.state[request.request_id] = "inflight"
            self.inflight += len(ready)
            self.m.stream_inflight.set(self.inflight)
            self.sim.at(batch.t_done, self._on_complete,
                        (ready, batch, self.batch_index))
            if self.f.autoscaler is not None:
                self.miss_share = batch.hits.count(False) / len(ready)
                if self.f.autoscaler.observe_line(
                        self._line_s(), self.f.dispatcher.num_replicas):
                    self._apply_scale(1)
        if self.credits is None:
            self.m.queue_depth.set(self.queue.depth())
        return True

    def _deliver(self, ready: List[ServeRequest], batch: DeliveredBatch,
                 batch_index: int) -> None:
        """Record a batch's outcomes and settle it.  The bounded queue
        delivers at dispatch, so the controller's next target already
        reads this batch's service time; the credit window delivers at
        ``t_done``."""
        t_done, replica = batch.t_done, batch.replica
        # the run ends when the last batch *finishes*; replicas finish out
        # of step, so that is a max over batches, not the final t_done
        self.report.makespan_s = max(self.report.makespan_s, t_done)
        worst_latency_s = 0.0
        for row, request in enumerate(ready):
            rid = request.request_id
            if self.state.get(rid) == "cancel-latched":
                self._resolve(ServeOutcome(
                    request, CANCELLED, t_done, replica=replica,
                    batch_index=batch_index, batch_size=len(ready)))
                continue
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
            outcome = ServeOutcome(
                request, COMPLETED, t_done, latency_s=latency_s,
                replica=replica, batch_index=batch_index,
                batch_size=len(ready), cache_hit=batch.hits[row],
                codes=batch.codes[row] if self.collect_codes else None)
            self._resolve(outcome)
            self.f.batcher.owe(outcome, batch, row)
        self._release(len(ready))
        # the batch ran and cost its service time even if every answer was
        # discarded; only the autoscaler needs a sojourn sample
        self.f.batcher.settle(batch)
        if worst_latency_s > 0.0 and self.f.autoscaler is not None:
            # what n - 1 replicas would inherit: the batches in flight as
            # well as the line
            self._apply_scale(self.f.autoscaler.observe(
                worst_latency_s, self.f.dispatcher.num_replicas,
                self._line_s(self.inflight)))

    def _line_s(self, inflight: int = 0) -> float:
        """Seconds one replica needs to serve the line still waiting —
        pending plus credit backlog — and ``inflight`` more requests:
        whole batches of the controller's target, each priced by
        :meth:`~repro.serving.dispatcher.ReplicaDispatcher.stage_s` at
        the last dispatched batch's miss share and at its slower stage
        (what a pipelined replica spends a batch in steady state)."""
        line = self.queue.depth() + len(self.backlog) + inflight
        if not line:
            return 0.0
        target = self.f.controller.batch_size
        cpu_s, accelerator_s = self.f.dispatcher.stage_s(
            target, round(target * self.miss_share))
        return -(-line // target) * max(cpu_s, accelerator_s)

    def _apply_scale(self, delta: int) -> None:
        now = self.sim.now
        if delta:
            self._provision(now)
        if delta > 0:
            self.f.dispatcher.add_replica(self.f._new_replica(), now)
            self.report.scale_ups += 1
            self.m.scale_events["up"].inc()
        elif delta < 0:
            if self.f.dispatcher.remove_idle_replica(now) is not None:
                self.report.scale_downs += 1
                self.m.scale_events["down"].inc()
        count = self.f.dispatcher.num_replicas
        self.report.peak_replicas = max(self.report.peak_replicas, count)
        self.m.replica_count.set(count)

    def _provision(self, until_s: float) -> None:
        """Charge the current replica count from the last change until
        ``until_s`` to the provisioned replica-seconds."""
        self.report.provisioned_replica_s += (
            self.f.dispatcher.num_replicas * (until_s - self.count_since_s))
        self.count_since_s = until_s

    def _resolve(self, outcome: ServeOutcome) -> None:
        """The one place a request reaches its terminal status."""
        status = outcome.status
        self.state[outcome.request_id] = status
        self.report.outcomes.append(outcome)
        if status == COMPLETED:
            self.report.completed += 1
            self.m.completed.inc()
        elif status == CANCELLED:
            self.report.cancelled += 1
        elif status == EXPIRED:
            self.report.expired += 1
        elif status == QUEUE_FULL:
            self.report.queue_full += 1
        else:
            self.report.dispatch_failed += 1
        if self.credits is not None:
            self.m.stream_requests[status].inc()
        elif status in _SHED_LABEL:
            self.m.shed[_SHED_LABEL[status]].inc()
