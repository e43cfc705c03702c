"""One registration site for every placement metric family (ND004).

The sharded fleet reports through three families — ``shard_*`` for ring
placement and rebalancing, ``tenant_*`` for the quota ledgers, and
``fanout_*`` for tree-shaped Check-N-Run distribution.  ND004 requires
each family to have exactly one registration call site repo-wide; this
bundle is that site, mirroring :class:`~repro.serving.metrics.
ServingMetrics`.
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry

__all__ = ["PlacementMetrics"]


class PlacementMetrics:
    """Instrument handles for the placement layer, one registry namespace.

    Registration is get-or-create, so the fleet, the quota ledgers, and
    the rebalancer can all construct this against the same registry and
    share the underlying families.
    """

    def __init__(self, metrics: MetricsRegistry):
        self.registry = metrics
        # -- ring placement ---------------------------------------------
        self.placements = metrics.counter(
            "shard_placements_total",
            "photos placed through the consistent-hash ring, by shard",
            label_names=("shard",))
        self.load_skips = metrics.counter(
            "shard_load_skips_total",
            "ring picks that skipped an over-bound shard for a successor")
        self.shard_count = metrics.gauge(
            "shard_count", "shards currently on the ring")
        # -- rebalancing ------------------------------------------------
        self.moved = metrics.counter(
            "shard_objects_moved_total",
            "objects whose migration started during rebalancing")
        self.received = metrics.counter(
            "shard_objects_received_total",
            "objects landed on their destination shard")
        self.move_failures = metrics.counter(
            "shard_move_failures_total",
            "migrations abandoned after exhausting retries")
        self.rebalance_bytes = metrics.counter(
            "shard_rebalance_bytes_total",
            "payload bytes carried by rebalance transfers")
        self.rebalance_rounds = metrics.counter(
            "shard_rebalance_rounds_total",
            "membership changes that triggered a rebalance pass")
        # -- tenants ----------------------------------------------------
        self.tenant_admitted = metrics.counter(
            "tenant_requests_admitted_total",
            "uploads admitted within quota, by tenant",
            label_names=("tenant",))
        self.tenant_rejected = metrics.counter(
            "tenant_requests_rejected_total",
            "uploads rejected by a quota ledger, by tenant and reason",
            label_names=("tenant", "reason"))
        self.tenant_bytes = metrics.gauge(
            "tenant_resident_bytes",
            "bytes currently charged to the tenant", label_names=("tenant",))
        # -- fan-out distribution ---------------------------------------
        self.fanout_sends = metrics.counter(
            "fanout_sends_total",
            "model updates forwarded over the tree, by hop kind",
            label_names=("hop",))
        self.fanout_depth = metrics.gauge(
            "fanout_tree_depth", "depth of the current distribution tree")
        self.fanout_rounds = metrics.counter(
            "fanout_rounds_total",
            "distribution rounds routed through the fan-out tree")
        # -- bound children for the per-photo paths ---------------------
        #: ``placed_on[shard]``, ``admitted[tenant]``,
        #: ``rejected[tenant, reason]``, ``resident[tenant]``
        self.placed_on = self.placements.by_labels()
        self.admitted = self.tenant_admitted.by_labels()
        self.rejected = self.tenant_rejected.by_labels()
        self.resident = self.tenant_bytes.by_labels()
