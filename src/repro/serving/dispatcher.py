"""Replica dispatch: spread micro-batches over inference servers.

The dispatcher owns the replica fleet's timeline on the deterministic
clock.  Each replica is a two-stage pipeline, the fold
:func:`~repro.core.npe.npe_pipeline_stage_times` prices a PipeStore
with: the **host CPU** stage carries the wire transfer (the misses'
8-bit codes and the cached rows) and the misses' preprocessing, the
**accelerator** stage the launch overhead, the frozen front for each
miss, the classifier tail and the database upsert for each request.  A
batch's accelerator stage starts when its CPU stage is done and the
previous batch has left the accelerator, so the next batch preprocesses
while the previous one runs (DESIGN §11).  Batches go to the undrained
replica whose CPU stage frees first (the start time and the pick read
one candidate set).  That timeline is the *logical* batch's; the host
arithmetic is not tied to it — the replica pools misses across batches
for its front and computes each batch's tail later
(:meth:`~repro.core.dataplane.InferenceServer.submit`).  The replica is
picked before the batch probes the cache, because the cache is keyed on
that replica's front.  Transfers ride the cluster's byte-accounted
fabric inside the shared :class:`~repro.faults.retry.RetryPolicy`, so
injected drops surface as shed batches and injected latency is charged
to the requests it delayed — chaos tests cover the serving path like
every other flow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fabric import NetworkFabric
from ..faults.errors import TransientFaultError
from ..faults.retry import RetryPolicy, call_with_retry
from ..lint.contracts import conserves
from ..models.catalog import model_graph
from ..sim.specs import HOST_CPU, TESLA_V100
from .config import ServingConfig

if TYPE_CHECKING:
    from ..core.dataplane import PendingAnswers, PendingRow

__all__ = ["ReplicaDispatcher", "FRONTEND_NODE", "MODEL", "ACCELERATOR"]

#: fabric node name of the serving front end
FRONTEND_NODE = "serving-frontend"

#: the paper model every replica serves (sets the calibrated latency model)
MODEL = "ResNet50"
#: the accelerator every replica runs on
ACCELERATOR = TESLA_V100
#: host cores preprocessing cache misses (JPEG decode + normalise)
PREPROCESS_CORES = 32
#: label-database upsert cost per request
DB_UPDATE_S = 0.0002


@conserves("batches_attempted == batches_dispatched + batches_failed")
@conserves("busy_s == cpu_busy_s + accelerator_busy_s", mode="measure")
class ReplicaDispatcher:
    """Earliest-free scheduling of batches over two-stage replicas.

    Dispatch accounting is a closed ledger: every attempt lands in
    exactly one of ``batches_dispatched`` (delivered, time charged to
    ``busy_s``) or ``batches_failed`` (every retry dropped, lost time
    charged to ``stalled_s``), and a delivered batch's ``busy_s`` is
    its CPU stage's seconds plus its accelerator stage's.  ND006 proves
    both laws on every path through :meth:`dispatch`, including the
    raising one.
    """

    def __init__(self, replicas: Sequence, config: ServingConfig,
                 network: NetworkFabric, retry_policy: RetryPolicy):
        if not replicas:
            raise ValueError("need at least one replica InferenceServer")
        self.replicas = list(replicas)
        self.config = config
        self.network = network
        self.retry = retry_policy
        self.graph = model_graph(MODEL)
        self.accelerator = ACCELERATOR
        # per-image accelerator seconds either side of the serving cut,
        # the cut before the classifier that replicas serve at, and the
        # host seconds to preprocess one cache miss
        cut = self.graph.partition_point(len(self.graph.stages) - 1)
        self._front_s = 1.0 / self.accelerator.flops_ips(
            self.graph.name, cut.front_flops)
        self._tail_s = 1.0 / self.accelerator.flops_ips(
            self.graph.name, self.graph.total_flops - cut.front_flops)
        self._preprocess_s = 1.0 / HOST_CPU.preprocess_ips(PREPROCESS_CORES)
        #: when each replica's CPU stage may take the next batch
        self._free_at = [0.0] * len(self.replicas)
        #: when each replica's accelerator finishes the batch it holds
        self._accel_free_at = [0.0] * len(self.replicas)
        #: replica names a failure detector has drained: no new batches
        #: land on them until :meth:`undrain` (membership, not removal —
        #: the timeline slot survives so a rejoin resumes where it was)
        self._drained: set = set()
        self.batches_attempted = 0
        self.batches_dispatched = 0
        self.batches_failed = 0
        #: modelled work only: service + wire seconds of delivered batches
        self.busy_s = 0.0
        #: the host CPU stage's share of ``busy_s``: wire and preprocessing
        self.cpu_busy_s = 0.0
        #: the accelerator stage's share: launch, front, tail and upserts
        self.accelerator_busy_s = 0.0
        #: waiting, not working: retry backoff, injected fault latency,
        #: and the failure path's lost time
        self.stalled_s = 0.0

    # -- timeline -----------------------------------------------------------
    def _candidates(self) -> List[int]:
        """Indices a new batch may land on: the undrained replicas, or —
        every replica drained — the full fleet rather than none (serving
        a suspect replica beats serving nobody)."""
        live = [i for i, replica in enumerate(self.replicas)
                if replica.name not in self._drained]
        return live or list(range(len(self.replicas)))

    def free_s(self, index: int) -> float:
        """When replica ``index``'s CPU stage may take a batch; read for
        the index :meth:`pick_replica` names, a batch never starts
        before its replica's CPU stage is free."""
        return self._free_at[index]

    def pick_replica(self) -> int:
        """Index of the replica the next :meth:`dispatch` should use."""
        candidates = (self._candidates() if self._drained
                      else range(len(self._free_at)))
        return min(candidates, key=self._free_at.__getitem__)

    # -- membership (driven by the HA failure detector) ---------------------
    def drain(self, name: str) -> bool:
        """Stop routing new batches to ``name``; True if newly drained.
        What its stages already hold still finishes."""
        if name in self._drained or not any(
                r.name == name for r in self.replicas):
            return False
        self._drained.add(name)
        return True

    def undrain(self, name: str) -> bool:
        """Resume routing to ``name``; True if it was drained."""
        if name not in self._drained:
            return False
        self._drained.discard(name)
        return True

    # ndlint: allow[ND012] -- test oracle over private state
    def drained(self) -> List[str]:
        return sorted(self._drained)

    # -- elasticity ---------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def add_replica(self, replica, now_s: float) -> None:
        """Grow the fleet: the new replica's stages are free from
        ``now_s`` on."""
        self.replicas.append(replica)
        self._free_at.append(now_s)
        self._accel_free_at.append(now_s)

    def remove_idle_replica(self, now_s: float) -> Optional[str]:
        """Retire one replica idle in both stages (highest index first,
        deterministic).

        Returns the retired replica's name, or ``None`` when every
        replica holds a batch in a stage or only one remains — the
        caller decides whether to retry later.  Busy replicas are never
        interrupted.
        """
        if len(self.replicas) <= 1:
            return None
        for index in range(len(self.replicas) - 1, -1, -1):
            if max(self._free_at[index],
                   self._accel_free_at[index]) <= now_s:
                replica = self.replicas.pop(index)
                del self._free_at[index]
                del self._accel_free_at[index]
                self._drained.discard(replica.name)
                return replica.name
        return None

    # -- the calibrated service model ---------------------------------------
    def stage_s(self, num_requests: int, num_misses: int,
                ) -> Tuple[float, float]:
        """Modelled ``(cpu_s, accelerator_s)`` of one micro-batch, the
        wire aside (it rides the CPU stage at its measured bytes).

        Misses pay host preprocessing on the CPU stage and the
        accelerator front (the FLOPs before the serving cut); every row
        pays the classifier tail; the batch pays one launch overhead
        (the Fig. 19 curve) and each request a database upsert, all on
        the accelerator stage.  An all-miss batch costs the whole-model
        forward.
        """
        accelerator_s = (num_misses * self._front_s
                         + num_requests * self._tail_s
                         + self.accelerator.batch_overhead_s
                         + num_requests * DB_UPDATE_S)
        return num_misses * self._preprocess_s, accelerator_s

    def service_s(self, num_requests: int, num_misses: int) -> float:
        """Serial seconds to serve one micro-batch on an idle replica:
        both stages of :meth:`stage_s` back to back."""
        cpu_s, accelerator_s = self.stage_s(num_requests, num_misses)
        return cpu_s + accelerator_s

    def min_service_s(self) -> float:
        """A batch of one that misses the cache, on an idle replica and
        a weightless wire: the least :meth:`deadline_floor_s` reads."""
        return self.service_s(num_requests=1, num_misses=1)

    def deadline_floor_s(self, now_s: float, index: int) -> float:
        """Deadline-feasibility floor at ``now_s``: how long a batch of
        one that misses the cache, dispatched now on replica ``index``
        (the one :meth:`pick_replica` names), takes to finish — its CPU
        stage (the miss's codes on the wire and its preprocessing), then
        its accelerator stage once that replica's accelerator is free.

        Admission drops requests that cannot finish in time even if
        served alone next, so completed batch=1 requests stay inside
        the deadline.
        """
        cpu_s, accelerator_s = self.stage_s(1, 1)
        cpu_s += (math.prod(self.replicas[index].model.input_shape)
                  / self.network.spec.bytes_per_s)
        return max(cpu_s, self._accel_free_at[index] - now_s) + accelerator_s

    # -- dispatch -----------------------------------------------------------
    def dispatch(self, index: int, misses: Optional[np.ndarray],
                 rows: Sequence, t_start: float,
                 ) -> Tuple[PendingAnswers, Optional[List[PendingRow]],
                            float, str]:
        """Serve one micro-batch on replica ``index`` (see
        :meth:`pick_replica`).

        ``misses`` and ``rows`` are what :meth:`~repro.core.dataplane.
        InferenceServer.submit` takes: the wire carries the misses' 8-bit
        codes (the replica expands them itself) plus every cached row (a
        row the front still owes is charged its probed size).  Misses
        that are not codes of the replica's input shape raise
        ``ValueError`` before anything is charged.  The clock is charged
        here, in full: retries, then the CPU stage (wire bytes and the
        misses' preprocessing) from ``t_start``, then the accelerator
        stage from when both that and the replica's previous batch are
        done, which is ``t_done``.  The replica's CPU stage takes its
        next batch at ``max(cpu_done, t_done - cpu_s)``: overlapped with
        this batch's accelerator stage, but no earlier than a batch of
        this one's preprocessing needs.  The arithmetic is not charged
        here — the replica takes the batch as pending work and pools its
        misses for the front (flushing at ``config.max_batch``).
        Returns ``(answers, fresh, t_done, replica_name)``, ``fresh``
        being the rows the misses will have.  The transfer runs under
        the retry policy; a transfer that every retry drops raises
        :class:`~repro.faults.TransientFaultError` after charging the
        replica's CPU stage for the wasted retry/backoff time (the batch
        is then shed or re-queued by the caller, and the replica holds
        nothing of it).
        """
        replica = self.replicas[index]
        replica.check_codes(misses)
        num_misses = 0 if misses is None else len(misses)
        payload_bytes = (0 if misses is None else misses.nbytes) + sum(
            row.nbytes for row in rows if not isinstance(row, int))
        self.batches_attempted += 1
        backoff_before = self.retry.backoff_s
        injected_before = self.network.injected_latency_s
        try:
            call_with_retry(
                lambda: self.network.send(FRONTEND_NODE, replica.name,
                                          payload_bytes, "serve"),
                self.retry)
        except TransientFaultError:
            self.batches_failed += 1
            # the replica was tied up for the retries and backoff even
            # though no inference happened — waiting, not working
            lost_s = max((self.retry.backoff_s - backoff_before)
                         + (self.network.injected_latency_s - injected_before),
                         1e-6)
            self._free_at[index] = t_start + lost_s
            self.stalled_s += lost_s
            raise
        stall_s = ((self.network.injected_latency_s - injected_before)
                   + (self.retry.backoff_s - backoff_before))
        preprocess_s, accelerator_s = self.stage_s(len(rows), num_misses)
        cpu_s = payload_bytes / self.network.spec.bytes_per_s + preprocess_s
        answers, fresh = replica.submit(misses, rows, self.config.max_batch)
        cpu_done = t_start + stall_s + cpu_s
        t_done = max(cpu_done, self._accel_free_at[index]) + accelerator_s
        self._accel_free_at[index] = t_done
        self._free_at[index] = max(cpu_done, t_done - cpu_s)
        self.batches_dispatched += 1
        self.busy_s += cpu_s + accelerator_s
        self.cpu_busy_s += cpu_s
        self.accelerator_busy_s += accelerator_s
        self.stalled_s += stall_s
        return answers, fresh, t_done, replica.name
