"""Live shard rebalancing over the byte-accounted fabric.

When the ring's membership changes (shard join/leave), a slice of the
keyspace gets new owners.  The :class:`ShardRebalancer` computes the
delta between where each photo's replicas *are* (the cluster's
:class:`~repro.durability.replication.ReplicaMap`) and where the ring
now says they *should* be, then migrates objects copy-first: every
missing destination copy lands and is acknowledged before any stale
source copy is evicted, so a crash — or a shard evicted mid-rebalance —
can only ever leave surplus copies behind for
``scrub_and_repair``/``reconcile`` to settle, never a data loss.

Copies go through the control plane's one donor walk and one transfer
(``donate_object`` -> retried fabric send -> ``accept_repair``, the
path scrub repair takes) under a ``"rebalance"`` traffic kind; the
holder move is the data plane's one placement write; and the books are
kept by a :class:`MigrationLedger` whose conservation law ND006 proves
statically::

    objects_moved == objects_received + objects_failed + objects_inflight

At quiescence ``objects_inflight`` is zero and the acceptance criterion
``moved == received (+ failed)`` falls out of the law.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.controlplane import verified_copies
from ..core.pipestore import StoreUnavailableError
from ..faults.errors import TransientFaultError
from ..lint.contracts import conserves
from .metrics import PlacementMetrics
from .ring import ConsistentHashRing

__all__ = ["MigrationLedger", "MovePlan", "ShardRebalancer"]

#: objects migrated per rebalance step before re-checking membership
REBALANCE_BATCH = 64


@conserves("objects_moved == objects_received + objects_failed"
           " + objects_inflight")
class MigrationLedger:
    """Exact object accounting for one or more rebalance passes."""

    def __init__(self):
        self.objects_moved = 0
        self.objects_received = 0
        self.objects_failed = 0
        self.objects_inflight = 0
        #: bytes landed on destinations (plain field, not a law)
        self.bytes_received = 0

    def begin(self) -> None:
        """One migration started: the object is on the wire."""
        self.objects_moved += 1
        self.objects_inflight += 1

    def commit(self) -> None:
        """The destination acknowledged the copy."""
        if self.objects_inflight == 0:
            raise RuntimeError("migration commit/abort without a begin")
        self.objects_inflight -= 1
        self.objects_received += 1
        self.check()

    def abort(self) -> None:
        """Every retry failed; the source copy remains authoritative."""
        if self.objects_inflight == 0:
            raise RuntimeError("migration commit/abort without a begin")
        self.objects_inflight -= 1
        self.objects_failed += 1
        self.check()

    def to_dict(self) -> Dict:
        return {
            "objects_moved": self.objects_moved,
            "objects_received": self.objects_received,
            "objects_failed": self.objects_failed,
            "objects_inflight": self.objects_inflight,
            "bytes_received": self.bytes_received,
        }


class MovePlan:
    """The holder-set delta one membership change implies."""

    def __init__(self):
        #: photo -> (copy-to shards, evict-from shards, new holder order)
        self.moves: Dict[str, Tuple[List[str], List[str], List[str]]] = {}

    @property
    def photos_affected(self) -> int:
        return len(self.moves)


class ShardRebalancer:
    """Migrates photos to their ring-assigned shards, copy-first."""

    def __init__(self, cluster, ring: ConsistentHashRing,
                 metrics: Optional[PlacementMetrics] = None):
        self.cluster = cluster
        self.ring = ring
        self.metrics = metrics
        self.ledger = MigrationLedger()
        #: photos whose migration failed and needs a later pass
        self.deferred: List[str] = []

    # -- planning -------------------------------------------------------------
    def plan(self) -> MovePlan:
        """Diff actual holder sets against the ring's desired placement."""
        cluster = self.cluster
        plan = MovePlan()
        replication = min(cluster.replication, len(self.ring))
        for pid in sorted(cluster.database.snapshot_labels()):
            desired = self.ring.replica_set(pid, replication)
            current = cluster.replicas.holders(pid)
            add = [s for s in desired if s not in current]
            drop = [s for s in current if s not in desired]
            if add or drop:
                plan.moves[pid] = (add, drop, desired)
        return plan

    # -- execution --------------------------------------------------------------
    def rebalance(self) -> MigrationLedger:
        """Execute the current plan in batches; returns the ledger.

        Copy-first per photo: all destination copies land (each one
        ledger-accounted) before the database record moves and stale
        sources are evicted.  A photo whose copies cannot all land is
        deferred with its source copies intact.
        """
        if self.metrics is not None:
            self.metrics.rebalance_rounds.inc()
        plan = self.plan()
        pending = sorted(plan.moves)
        while pending:
            chunk = pending[:REBALANCE_BATCH]
            pending = pending[REBALANCE_BATCH:]
            for pid in chunk:
                add, drop, desired = plan.moves[pid]
                self._migrate_photo(pid, add, drop, desired)
        self.ledger.check()
        return self.ledger

    def _migrate_photo(self, pid: str, add: List[str], drop: List[str],
                       desired: List[str]) -> bool:
        cluster = self.cluster
        for dst in add:
            if not self._copy_object(pid, dst):
                # leave the source copies authoritative; a later pass
                # (or scrub_and_repair once membership settles) retries
                self.deferred.append(pid)
                return False
        # every destination acknowledged — flip authority, then evict
        cluster.dataplane.write_placement(cluster.database.lookup(pid),
                                          desired)
        for src in drop:
            store = cluster.stores.get(src)  # None: it left the fleet
            if store is not None and store.is_available:
                store.evict_photo(pid)
        return True

    def _copy_object(self, pid: str, dst_id: str) -> bool:
        """Land both blobs + the training label of ``pid`` on ``dst``."""
        cluster = self.cluster
        dst = cluster.stores[dst_id]
        if not dst.is_available:
            return False
        keys = [dst.objects.raw_key(pid), dst.objects.preproc_key(pid)]
        donation = next(cluster.control.donors(
            pid, dst_id, verified_copies(keys)), None)
        if donation is None:
            return False
        donor, blobs = donation
        self.ledger.begin()
        try:
            nbytes = cluster.control.transfer(donor, dst, blobs, "rebalance")
        except (TransientFaultError, StoreUnavailableError):
            self.ledger.abort()
            if self.metrics is not None:
                self.metrics.move_failures.inc()
            return False
        self.ledger.commit()
        self.ledger.bytes_received += nbytes
        if donor.has_train_label(pid):
            dst.set_train_label(pid, donor.train_label(pid))
        if self.metrics is not None:
            self.metrics.moved.inc()
            self.metrics.received.inc()
            self.metrics.rebalance_bytes.inc(nbytes)
        return True
