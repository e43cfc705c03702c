"""Typed, validated configs for the sharded multi-tenant fleet.

:class:`~repro.core.config.Config` dataclasses like
:class:`~repro.core.config.ClusterConfig`: frozen, a single
``validated()`` choke point that names the offending field, and strict
``to_dict``/``from_dict`` round-trips for manifests and CLI plumbing.

:class:`ShardConfig` sizes the shard layer itself — ring geometry,
replica-set width, fan-out branching.  The bounded-load factor
(:data:`~repro.placement.ring.LOAD_FACTOR`) and the rebalance batch
(:data:`~repro.placement.rebalance.REBALANCE_BATCH`) are constants.
:class:`TenantConfig` describes one tenant namespace and its quotas;
a fleet takes a tuple of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.config import Config

__all__ = ["ShardConfig", "TenantConfig"]


@dataclass(frozen=True)
class ShardConfig(Config):
    """Every plain-value knob of a sharded PipeStore fleet."""

    #: PipeStore shards in the initial fleet
    num_shards: int = 8
    #: virtual nodes per shard on the consistent-hash ring; more vnodes
    #: smooth the load split and shrink per-join movement variance
    vnodes: int = 64
    #: salt for the ring's keyed hash — two rings with the same seed and
    #: membership place every key identically, regardless of join order
    ring_seed: int = 0
    #: copies of every photo, including the primary (1 = no replication)
    replication: int = 1
    #: branching factor of the Check-N-Run distribution tree; the Tuner
    #: uplinks ``fanout`` deltas per round instead of one per shard
    fanout: int = 2

    def validated(self) -> "ShardConfig":
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if not 1 <= self.replication <= self.num_shards:
            raise ValueError(
                f"replication {self.replication} must be in "
                f"[1, {self.num_shards}]")
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        return self


@dataclass(frozen=True)
class TenantConfig(Config):
    """One tenant namespace: an isolation domain with a byte quota.

    The quota is an admission-time limit enforced by the fleet's
    :class:`~repro.placement.tenants.TenantNamespace` ledger; ``None``
    means unmetered.  ``weight`` scales the tenant's share of synthetic
    multi-tenant traces (:func:`repro.workloads.continuous
    .multi_tenant_trace`), not its quota.
    """

    #: namespace name; prefixes every photo key the tenant owns
    name: str = "default"
    #: resident-byte ceiling across the tenant's photos (None = unmetered)
    byte_quota: Optional[int] = None
    #: relative share of synthetic trace traffic
    weight: float = 1.0

    def validated(self) -> "TenantConfig":
        if not self.name or "/" in self.name or self.name.strip() != self.name:
            raise ValueError(
                f"tenant name must be a non-empty token without '/', got "
                f"{self.name!r}")
        if self.byte_quota is not None and self.byte_quota < 1:
            raise ValueError(
                f"byte_quota must be >= 1 or None, got {self.byte_quota}")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ValueError(
                f"weight must be a positive finite float, got {self.weight}")
        return self
