"""ShardedCluster — the geo-sharded, multi-tenant NDPipe fleet.

Composes the refactored planes into the ROADMAP item-1 deployment shape:
one :class:`~repro.core.cluster.NDPipeCluster` fleet whose ingest data
plane places through a :class:`~repro.placement.ring.ConsistentHashRing`
(bounded-load, replica-spreading), per-tenant quota admission in front
of every upload, Check-N-Run distribution over a
:class:`~repro.placement.fanout.FanoutTree` instead of Tuner unicast,
and live membership changes (:meth:`ShardedCluster.join_shard` /
:meth:`ShardedCluster.leave_shard`) settled by the copy-first
:class:`~repro.placement.rebalance.ShardRebalancer`.  A join or leave
is one call on the cluster's store roster plus the ring update: the
Tuner, both planes, the fault injector and the HA controller all read
that roster live.

Anything not overridden here delegates to the wrapped cluster, so the
whole single-fleet lifecycle API (``finetune``, ``offline_relabel``,
``scrub_and_repair``, ``checkpoint`` ...) works unchanged on a sharded
fleet.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cluster import NDPipeCluster
from ..core.config import ClusterConfig
from ..core.dataplane import RingPlacement
from ..core.tuner import DistributionStats
from ..faults.retry import RetryPolicy
from ..models.split import SplitModel
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .config import ShardConfig, TenantConfig
from .fanout import FanoutTree
from .metrics import PlacementMetrics
from .rebalance import MigrationLedger, ShardRebalancer
from .ring import ConsistentHashRing
from .tenants import TenantRegistry

__all__ = ["ShardedCluster"]


class ShardedCluster:
    """A consistent-hash sharded fleet behind the familiar cluster API."""

    def __init__(self, model_factory: Callable[[], SplitModel],
                 shard_config: Optional[ShardConfig] = None,
                 tenants: Iterable[TenantConfig] = (),
                 cluster_config: Optional[ClusterConfig] = None, *,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.shard_config = (shard_config if shard_config is not None
                             else ShardConfig()).validated()
        base = (cluster_config if cluster_config is not None
                else ClusterConfig()).validated()
        # the shard layer owns fleet sizing and replica width; everything
        # else (split, lr, journal cap, ...) rides the cluster config
        self.cluster = NDPipeCluster(
            model_factory, replace(
                base, num_stores=self.shard_config.num_shards,
                replication=self.shard_config.replication).validated(),
            retry_policy=retry_policy, metrics=metrics, tracer=tracer)
        self.metrics = PlacementMetrics(self.cluster.metrics)
        self.ring = ConsistentHashRing(
            vnodes=self.shard_config.vnodes,
            seed=self.shard_config.ring_seed,
            shards=self.cluster.stores.ids())
        plane = self.cluster.dataplane
        plane.placement = RingPlacement(plane, self.ring)
        plane.metrics_load_skips = self.metrics.load_skips
        self.tenants = TenantRegistry(tenants, metrics=self.metrics)
        self.rebalancer = ShardRebalancer(self.cluster, self.ring,
                                          metrics=self.metrics)
        self._next_shard_index = self.shard_config.num_shards
        self.metrics.shard_count.set(len(self.ring))
        self.metrics.fanout_depth.set(self._tree().depth)

    # anything this façade does not redefine is the plain cluster API
    def __getattr__(self, name: str):
        return getattr(self.cluster, name)

    # -- multi-tenant ingest --------------------------------------------------
    def ingest(self, images: np.ndarray, tenant: str = "default",
               train_labels: Optional[Sequence[int]] = None,
               ) -> Tuple[List[str], List[str]]:
        """Upload a tenant's batch through quota admission + ring placement.

        Returns ``(photo_ids, rejections)``: one qualified id per admitted
        photo and one quota-reason string per rejected one.
        """
        cluster = self.cluster
        ids: List[str] = []
        rejections: List[str] = []
        charged: List[int] = []  # bytes per admitted photo, offer order

        def admit(pixels: np.ndarray) -> bool:
            reason = self.tenants.admit(tenant, int(pixels.nbytes))
            if reason is None:
                charged.append(int(pixels.nbytes))
            else:
                rejections.append(reason)
            return reason is None

        with cluster.tracer.span("fleet.ingest", tenant=tenant,
                                 photos=len(images)):
            try:
                for photo_id in cluster.dataplane.ingest(
                        images, train_labels, admit=admit,
                        id_prefix=f"{tenant}/"):
                    ids.append(photo_id)
                    self.metrics.placed_on[
                        cluster.database.lookup(photo_id).location].inc()
            finally:
                # an upload admitted but never landed (every candidate
                # store down) holds nothing: give its quota charge back
                for nbytes in charged[len(ids):]:
                    self.tenants.release(tenant, nbytes)
        return ids, rejections

    # -- fan-out model distribution --------------------------------------------
    def _tree(self) -> FanoutTree:
        return FanoutTree(self.cluster.stores.ids(),
                          fanout=self.shard_config.fanout)

    def distribute(self, fanout: bool = True) -> DistributionStats:
        """One Check-N-Run round: tree-shaped by default, unicast on demand."""
        if not fanout:
            return self.cluster.tuner.distribute_update()
        tree = self._tree()
        alive = [s.store_id for s in self.cluster.stores if s.is_available]
        plan = tree.plan(available=alive)
        # down stores neither receive nor relay, but the Tuner's
        # send_order invariant covers the whole registered fleet — append
        # them at the tail, where the round records them as missed
        plan["send_order"] = list(plan["send_order"]) + [
            s.store_id for s in self.cluster.stores
            if not s.is_available]
        stats = self.cluster.tuner.distribute_update(**plan)
        self.metrics.fanout_rounds.inc()
        self.metrics.fanout_depth.set(tree.depth)
        relayed = len(stats.stores_relayed)
        reached = (len(self.cluster.stores) - len(stats.stores_missed)
                   - len(stats.stores_fenced))
        if relayed:
            self.metrics.fanout_sends.inc(relayed, hop="relay")
        if reached - relayed > 0:
            self.metrics.fanout_sends.inc(reached - relayed, hop="uplink")
        return stats

    def finetune(self, *args, fanout: bool = True, **kwargs):
        """FT-DMP round; redistribution goes over the fan-out tree."""
        kwargs["distribute"] = False
        report = self.cluster.finetune(*args, **kwargs)
        self.distribute(fanout=fanout)
        return report

    # -- membership ------------------------------------------------------------
    def join_shard(self, store_id: Optional[str] = None) -> Dict:
        """Bring one new shard into the fleet and rebalance onto it.

        Returns exact movement accounting: ``photos_total``,
        ``photos_moved`` (distinct photos whose holder set changed),
        ``moved_fraction``, and the migration ledger snapshot.
        """
        if store_id is None:
            store_id = f"pipestore-{self._next_shard_index}"
        self._next_shard_index += 1
        self.cluster.join_store(store_id)
        self.ring.add_shard(store_id)
        self.metrics.shard_count.set(len(self.ring))
        return self._settle(store_id, "join")

    def leave_shard(self, store_id: str) -> Dict:
        """Drain one shard out of the fleet: move its keyspace, then drop it.

        The leaving shard stays online as a migration donor until every
        photo it owned has landed elsewhere; it is removed from the fleet
        afterwards (photos it still holds were evicted by the mover).
        """
        self.ring.remove_shard(store_id)
        self.metrics.shard_count.set(len(self.ring))
        summary = self._settle(store_id, "leave")
        self.cluster.stores.remove(store_id)
        return summary

    def _settle(self, store_id: str, event: str) -> Dict:
        photos_total = len(self.cluster.database)
        replication = min(self.cluster.replication, max(len(self.ring), 1))
        objects_total = photos_total * replication
        plan = self.rebalancer.plan()
        ledger_before = self.rebalancer.ledger.to_dict()
        self.rebalancer.rebalance()
        ledger = self.rebalancer.ledger.to_dict()
        copies = {k: ledger[k] - ledger_before[k] for k in ledger}
        return {
            "event": event,
            "shard": store_id,
            "num_shards": len(self.ring),
            "photos_total": photos_total,
            "photos_affected": plan.photos_affected,
            "objects_total": objects_total,
            "objects_moved": copies["objects_moved"],
            # the headline number: fraction of stored object copies that
            # crossed the network for this membership change — the ring's
            # guarantee is <= 1/N (+ vnode variance)
            "moved_fraction": (copies["objects_moved"] / objects_total
                               if objects_total else 0.0),
            "copies": copies,
            "ledger": ledger,
        }

    # -- reporting ---------------------------------------------------------------

    def ledger(self) -> MigrationLedger:
        return self.rebalancer.ledger
