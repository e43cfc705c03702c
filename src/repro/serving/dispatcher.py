"""Replica dispatch: spread micro-batches over inference servers.

The dispatcher owns the replica fleet's timeline on the deterministic
clock: each replica has a ``free_at`` time, batches go to the
earliest-free undrained replica (the start time and the pick read one
candidate set), and the batch's modelled service time (CPU
preprocess and the accelerator's frozen front for cache misses, the
classifier tail for every row, wire transfer — the misses' 8-bit codes
and the cached rows — and per-request database upserts) advances that
replica's clock.  That clock is the *logical*
batch's; the host arithmetic is not tied to it — the replica pools
misses across batches for its front and computes each batch's tail
later (:meth:`~repro.core.dataplane.InferenceServer.submit`).  The
replica is picked before
the batch probes the cache, because the cache is keyed on that
replica's front.  Transfers ride the cluster's
byte-accounted fabric inside the shared
:class:`~repro.faults.retry.RetryPolicy`, so injected drops surface as
shed batches and injected latency is charged to the requests it
delayed — chaos tests cover the serving path like every other flow.
"""

from __future__ import annotations

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
class ReplicaDispatcher:
    """Earliest-free scheduling of batches over replica servers.

    Dispatch accounting is a closed ledger: every attempt lands in
    exactly one of ``batches_dispatched`` (delivered, time charged to
    ``busy_s``) or ``batches_failed`` (every retry dropped, lost time
    charged to ``stalled_s``).  ND006 proves the balance on every path
    through :meth:`dispatch`, including the raising one.
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
        # the cut before the classifier that replicas serve at
        cut = self.graph.partition_point(len(self.graph.stages) - 1)
        self._front_s = 1.0 / self.accelerator.flops_ips(
            self.graph.name, cut.front_flops)
        self._tail_s = 1.0 / self.accelerator.flops_ips(
            self.graph.name, self.graph.total_flops - cut.front_flops)
        self._free_at = [0.0] * len(self.replicas)
        #: replica names a failure detector has drained: no new batches
        #: land on them until :meth:`undrain` (membership, not removal —
        #: the timeline slot survives so a rejoin resumes where it was)
        self._drained: set = set()
        self.batches_attempted = 0
        self.batches_dispatched = 0
        self.batches_failed = 0
        #: modelled work only: service + wire seconds of delivered batches
        self.busy_s = 0.0
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

    def earliest_free_s(self) -> float:
        """When the replica :meth:`pick_replica` names is free: the same
        candidate set, so a batch never starts before its replica is."""
        return self._free_at[self.pick_replica()]

    def pick_replica(self) -> int:
        """Index of the replica the next :meth:`dispatch` should use."""
        return min(self._candidates(), key=self._free_at.__getitem__)

    # -- membership (driven by the HA failure detector) ---------------------
    def drain(self, name: str) -> bool:
        """Stop routing new batches to ``name``; True if newly drained."""
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
        """Grow the fleet: the new replica is free from ``now_s`` on."""
        self.replicas.append(replica)
        self._free_at.append(now_s)

    def remove_idle_replica(self, now_s: float) -> Optional[str]:
        """Retire one idle replica (highest index first, deterministic).

        Returns the retired replica's name, or ``None`` when every
        replica is busy or only one remains — the caller decides whether
        to retry later.  Busy replicas are never interrupted.
        """
        if len(self.replicas) <= 1:
            return None
        for index in range(len(self.replicas) - 1, -1, -1):
            if self._free_at[index] <= now_s:
                replica = self.replicas.pop(index)
                del self._free_at[index]
                self._drained.discard(replica.name)
                return replica.name
        return None

    # -- the calibrated service model ---------------------------------------
    def min_service_s(self) -> float:
        """Deadline-feasibility floor: a batch of one that misses the cache.

        Admission uses this to drop requests that cannot finish in time
        even if served alone next; including the miss-preprocess cost
        keeps completed batch=1 requests inside the deadline too.
        """
        return self.service_s(num_requests=1, num_misses=1)

    def service_s(self, num_requests: int, num_misses: int) -> float:
        """Modelled seconds to serve one micro-batch.

        Misses pay host preprocessing and the accelerator front (the
        FLOPs before the serving cut); every row pays the classifier
        tail; the batch pays one launch overhead (the Fig. 19 curve) and
        each request a database upsert.  An all-miss batch costs the
        whole-model forward.
        """
        preprocess_s = num_misses / HOST_CPU.preprocess_ips(PREPROCESS_CORES)
        accelerator_s = (num_misses * self._front_s
                         + num_requests * self._tail_s
                         + self.accelerator.batch_overhead_s)
        db_s = num_requests * DB_UPDATE_S
        return preprocess_s + accelerator_s + db_s

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
        here, in full: wire bytes, :meth:`service_s`, retries and
        ``t_done``.  The arithmetic is not — the replica takes the batch
        as pending work and pools its misses for the front (flushing at
        ``config.max_batch``).
        Returns ``(answers, fresh, t_done, replica_name)``, ``fresh``
        being the rows the misses will have.  The transfer runs under
        the retry policy; a transfer that every retry drops raises
        :class:`~repro.faults.TransientFaultError` after charging the
        replica for the wasted retry/backoff time (the batch is then shed
        or re-queued by the caller, and the replica holds nothing of it).
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
        injected_s = self.network.injected_latency_s - injected_before
        backoff_s = self.retry.backoff_s - backoff_before
        wire_s = payload_bytes / self.network.spec.bytes_per_s
        work_s = self.service_s(len(rows), num_misses) + wire_s
        stall_s = injected_s + backoff_s
        answers, fresh = replica.submit(misses, rows, self.config.max_batch)
        t_done = t_start + work_s + stall_s
        self._free_at[index] = t_done
        self.batches_dispatched += 1
        self.busy_s += work_s
        self.stalled_s += stall_s
        return answers, fresh, t_done, replica.name
