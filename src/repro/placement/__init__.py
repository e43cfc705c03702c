"""Geo-sharded multi-tenant placement layer (ROADMAP item 1).

One documented namespace for the sharded-fleet API.  The fleet in three
imports:

.. code-block:: python

    from repro.models.registry import tiny_model
    from repro.placement import ShardConfig, ShardedCluster, TenantConfig

    fleet = ShardedCluster(
        lambda: tiny_model("ResNet50"),
        ShardConfig(num_shards=8, replication=2),
        tenants=[TenantConfig(name="acme", byte_quota=10 << 30)])
    photo_ids, rejections = fleet.ingest(images, tenant="acme")
    fleet.finetune()          # redistribution rides the fan-out tree
    fleet.join_shard()        # live rebalance, <= 1/N of copies move

Module tour:

* :mod:`~repro.placement.config` — frozen :class:`ShardConfig` /
  :class:`TenantConfig` value objects;
* :mod:`~repro.placement.ring` — keyed consistent-hash ring with
  bounded-load routing;
* :mod:`~repro.placement.tenants` — per-tenant namespaces and
  conservation-law quota ledgers;
* :mod:`~repro.placement.fanout` — the Check-N-Run fan-out tree;
* :mod:`~repro.placement.rebalance` — copy-first live migration with
  exact moved/received/inflight accounting;
* :mod:`~repro.placement.fleet` — :class:`ShardedCluster`, the façade
  composing all of the above over one
  :class:`~repro.core.cluster.NDPipeCluster`.

The placement policies themselves (``RingPlacement``,
``RoundRobinPlacement``) and ``IngestDataPlane`` live in
:mod:`repro.core.dataplane`, the seam the single-shard cluster also uses.
"""

from .config import ShardConfig, TenantConfig
from .fanout import FanoutTree
from .fleet import ShardedCluster
from .metrics import PlacementMetrics
from .rebalance import MigrationLedger, MovePlan, ShardRebalancer
from .ring import ConsistentHashRing, RingError
from .tenants import (
    QuotaLedger,
    TenantNamespace,
    TenantRegistry,
    UnknownTenantError,
)

__all__ = [
    "ConsistentHashRing",
    "FanoutTree",
    "MigrationLedger",
    "MovePlan",
    "PlacementMetrics",
    "QuotaLedger",
    "RingError",
    "ShardConfig",
    "ShardRebalancer",
    "ShardedCluster",
    "TenantConfig",
    "TenantNamespace",
    "TenantRegistry",
    "UnknownTenantError",
]
