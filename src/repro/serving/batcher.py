"""Adaptive micro-batching under a latency SLO.

* :func:`slo_batch_size` — the NPE batch-size-enlargement logic of §5.4,
  applied to serving: walk batch sizes through the calibrated
  :func:`~repro.core.npe.npe_task_times` cost model and pick the largest
  batch whose accelerator service time still fits the *service budget*
  ``slo_s * SERVICE_BUDGET_FRACTION`` (and whose working set fits device
  memory, the Fig. 19 constraint).  This seeds the controller near its
  operating point instead of cold-starting at batch 1.
* :class:`SloController` — AIMD on *batch service time* (dispatch to
  done: what the replica was tied up for) against that same budget:
  over budget halves the target, under ``budget * SLO_HEADROOM`` earns
  an ``ADDITIVE_STEP`` increase.  Request sojourn time is deliberately
  not the signal — under overload it grows with the pending line, and
  shrinking the batch then is positive feedback toward batch 1; sojourn
  steers the replica count (:mod:`~repro.serving.autoscale`) and admission
  (deadline shedding) instead.
* :class:`MicroBatcher` — the one batch body behind both front ends:
  the batch passes the front door once, the cache is probed with its
  8-bit codes, hits bring their split-point feature row, the distinct
  misses ship to the replica as codes (a quarter of their fp32 input;
  the replica expands them through ``CODE_TABLE``) and join its front
  pool, and one classifier tail labels the whole batch.  The *logical*
  batch — who rides it, its cache books, its wire bytes, its service
  time and ``t_done`` — is fixed at dispatch; the *host* batch is the
  replica's: one front forward per ``max_batch`` pooled misses, one tail
  per logical batch, run when the pool fills or the serve ends (DESIGN
  §11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.npe import NpeConfig, npe_task_times
from ..models.graph import ModelGraph
from ..sim.specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    AcceleratorSpec,
)
from ..storage.imageformat import quantise
from .admission import ServeRequest
from .cache import TensorCache
from .config import ServingConfig
from .dispatcher import ReplicaDispatcher
from .metrics import ServingMetrics

if TYPE_CHECKING:
    from ..core.dataplane import PendingAnswers

__all__ = ["SERVICE_BUDGET_FRACTION", "slo_batch_size", "SloController",
           "DeliveredBatch", "MicroBatcher"]

#: share of the SLO one batch's service time may take; the rest is left
#: for queueing.  The seed and the controller both read it, so the batch
#: the NPE model picks is one the controller does not shrink.
SERVICE_BUDGET_FRACTION = 0.5
#: the controller grows the batch only while its service time is under
#: ``budget * SLO_HEADROOM``; between that and the budget it holds
SLO_HEADROOM = 0.8
#: additive-increase step of the AIMD controller
ADDITIVE_STEP = 4


def slo_batch_size(graph: ModelGraph, accelerator: AcceleratorSpec,
                   slo_s: float, fraction: float = SERVICE_BUDGET_FRACTION,
                   min_batch: int = 1, max_batch: int = 256) -> int:
    """Largest batch whose accelerator time fits ``fraction * slo_s``.

    Batch sizes are swept in powers of two from ``min_batch``; each is
    costed through the NPE serving profile (compressed preprocessed
    reads, §5.4 +Comp) and accepted while the whole-batch FE&Cl time
    stays inside the budget and the batch fits accelerator memory.
    """
    if slo_s <= 0:
        raise ValueError(f"slo_s must be > 0, got {slo_s}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if min_batch < 1 or max_batch < min_batch:
        raise ValueError(
            f"need 1 <= min_batch <= max_batch, got [{min_batch}, "
            f"{max_batch}]")
    budget_s = slo_s * fraction
    best = min_batch
    batch = min_batch
    while batch <= max_batch:
        profile = NpeConfig(
            level="serve",
            read_bytes_inference=COMPRESSED_PREPROCESSED_BYTES,
            read_bytes_finetune=COMPRESSED_PREPROCESSED_BYTES,
            preprocess_on_store=False, decompress=True, batch_size=batch,
        )
        times = npe_task_times(graph, profile, "inference", accelerator)
        batch_service_s = batch * times["FE&Cl"] / 1e3
        if batch_service_s <= budget_s and accelerator.fits_batch(graph,
                                                                  batch):
            best = batch
        batch *= 2
    return best


class SloController:
    """AIMD batch-size controller steering batch service time toward
    the service budget ``slo_s * SERVICE_BUDGET_FRACTION``."""

    def __init__(self, slo_s: float, min_batch: int, max_batch: int,
                 initial_batch: int):
        if slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {slo_s}")
        if not min_batch <= initial_batch <= max_batch:
            raise ValueError(
                f"initial_batch {initial_batch} outside [{min_batch}, "
                f"{max_batch}]")
        self.slo_s = slo_s
        self.budget_s = slo_s * SERVICE_BUDGET_FRACTION
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.batch_size = initial_batch
        self.decreases = 0
        self.increases = 0

    def observe(self, service_s: float) -> int:
        """Feed back one delivered batch's dispatch-to-done time.

        Returns the new batch-size target.
        """
        if service_s < 0:
            raise ValueError(f"service time must be >= 0, got {service_s}")
        if service_s > self.budget_s:
            shrunk = max(self.min_batch, self.batch_size // 2)
            if shrunk < self.batch_size:
                self.decreases += 1
            self.batch_size = shrunk
        elif service_s < self.budget_s * SLO_HEADROOM:
            grown = min(self.max_batch, self.batch_size + ADDITIVE_STEP)
            if grown > self.batch_size:
                self.increases += 1
            self.batch_size = grown
        return self.batch_size


class DeliveredBatch(NamedTuple):
    """What :meth:`MicroBatcher.run` hands back; entry ``i`` of ``codes``
    and ``hits`` is request ``i``.  ``codes`` stacks every request's
    8-bit codes, hit or miss, as the batch's front door produced them.
    ``answers`` are owed by the replica until it resolves; everything
    else is the logical batch, known at dispatch."""

    codes: np.ndarray
    hits: List[bool]
    answers: PendingAnswers
    t_start: float
    t_done: float
    replica: str

    @property
    def results(self) -> List[Tuple[int, float]]:
        """``(label, confidence)`` per request; resolves the replica."""
        return self.answers.results()


class MicroBatcher:
    """The one batch body: cache, controller and dispatch of a batch.

    A batch is settled on the logical clock when :meth:`run` returns;
    its arithmetic is the replica's pending work.  :meth:`owe` records
    which outcome a row's answer belongs to, and :meth:`close` — the end
    of every ``serve()`` — resolves all of it and fills those outcomes.
    """

    def __init__(self, config: ServingConfig, dispatcher: ReplicaDispatcher,
                 m: ServingMetrics):
        self.dispatcher = dispatcher
        self.m = m
        self.cache = TensorCache(config.cache_capacity_bytes)
        initial = config.initial_batch
        if initial is None:
            initial = slo_batch_size(
                dispatcher.graph, dispatcher.accelerator, config.slo_s,
                min_batch=config.min_batch, max_batch=config.max_batch)
        self.controller = SloController(
            slo_s=config.slo_s, min_batch=config.min_batch,
            max_batch=config.max_batch, initial_batch=initial)
        m.batch_target.set(initial)
        self._m_cache = {
            "hits": m.cache_hits, "misses": m.cache_misses,
            "evictions": m.cache_evictions,
            "rejected_oversize": m.cache_rejected}
        self._synced = dict.fromkeys(self._m_cache, 0)
        #: answers of the batches delivered since the last close, and the
        #: outcomes waiting on them: (outcome, answers, row)
        self._delivered: List[PendingAnswers] = []
        self._owed: List[Tuple[object, PendingAnswers, int]] = []

    def run(self, ready: Sequence[ServeRequest],
            t_start: float) -> DeliveredBatch:
        """Serve ``ready`` as one batch dispatched at ``t_start``.

        The whole batch passes the front door
        (:func:`~repro.storage.imageformat.quantise`) together, hits and
        misses alike; the replica is picked and the cache probed with
        those codes under its front digest.  The distinct misses ship as
        their codes: the replica takes them into its front pool, and owes
        one classifier tail over every row in request order.  The misses'
        rows — still promises — enter the cache only after the dispatch
        succeeded: a dispatch every retry dropped raises
        :class:`~repro.faults.TransientFaultError` and leaves the cache's
        entries untouched — its probes are counted, and a redispatch
        probes, and misses, again.
        """
        codes = quantise(np.stack([request.pixels for request in ready]))
        index = self.dispatcher.pick_replica()
        keys, rows = self.cache.lookup(
            codes, self.dispatcher.replicas[index].front_digest())
        hits: List[bool] = []
        firsts: List[int] = []  # the request that brings each distinct miss
        for at, row in enumerate(rows):
            first = isinstance(row, int) and row == len(firsts)
            if first:
                firsts.append(at)
            hits.append(not first)
        try:
            answers, fresh, t_done, replica = self.dispatcher.dispatch(
                index, codes[firsts] if firsts else None, rows, t_start)
            if fresh is not None:
                self.cache.insert([keys[at] for at in firsts], fresh)
        finally:
            # probes count where they happen, dispatched or not: bring the
            # cache families level with cache.stats(), which reports read
            self._sync_cache_families()
        self._delivered.append(answers)
        self.m.batch.observe(len(ready))
        self.m.batches[replica].inc()
        return DeliveredBatch(codes, hits, answers, t_start, t_done, replica)

    def owe(self, outcome, batch: DeliveredBatch, row: int) -> None:
        """``outcome`` (anything with ``label`` and ``confidence``) gets
        request ``row``'s answer of ``batch`` when :meth:`close` runs."""
        self._owed.append((outcome, batch.answers, row))

    def _sync_cache_families(self) -> None:
        stats = self.cache.stats()
        for name, child in self._m_cache.items():
            delta = stats[name] - self._synced[name]
            if delta:
                child.inc(delta)
                self._synced[name] = stats[name]

    def close(self, report) -> None:
        """End of a serve(): every delivered batch is resolved — replicas
        since retired included — owed outcomes get their answers, and the
        report reads the cache's own books."""
        delivered, self._delivered = self._delivered, []
        for answers in delivered:
            answers.results()
        owed, self._owed = self._owed, []
        for outcome, answers, row in owed:
            outcome.label, outcome.confidence = answers.results()[row]
        stats = self.cache.stats()
        report.cache_hits = stats["hits"]
        report.cache_misses = stats["misses"]
        report.cache_evictions = stats["evictions"]
        report.cache_rejected_oversize = stats["rejected_oversize"]
        report.final_batch_target = self.controller.batch_size

    def settle(self, delivered: DeliveredBatch) -> None:
        """The batch finished: its service time steers the next target."""
        before = self.controller.batch_size
        after = self.controller.observe(delivered.t_done - delivered.t_start)
        if after != before:
            self.m.batch_target.set(after)
            self.m.batch_target_changes[
                "up" if after > before else "down"].inc()
