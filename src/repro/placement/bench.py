"""Shared sharding benchmark: the ROADMAP item-1 acceptance numbers.

Three parts, one result dict (both ``repro shard-bench`` and
``benchmarks/bench_sharding.py`` run this, so the CLI smoke number and
the recorded ``BENCH_sharding.json`` trajectory can never drift apart):

* **placement** — a multi-tenant Zipf trace over a ~1M-user population
  is placed through the consistent-hash ring; records keyspace spread,
  quota-admission accounting, and the exact number of keys a shard
  join/leave re-homes (the ring's ≤ 1/N guarantee, counted not claimed);
* **fanout** — two identically-seeded sharded fleets fine-tune one
  round each and redistribute the same delta, one by Tuner unicast and
  one over the fan-out tree; records each strategy's exact Tuner-egress
  bytes at equal model freshness;
* **migration** — a live ``join_shard`` on a replicated fleet, with the
  migration ledger's exact moved/received/inflight accounting and a
  post-join scrub proving zero unrecoverable photos.  Landing that
  fleet's corpus through :class:`~repro.core.dataplane.RingPlacement`
  is counted too: ring walks, availability probes, object-store puts
  and database upserts, each per landed photo.

Every headline number is a deterministic integer counter for a given
seed, so the perf gate pins them ``exact``.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.pipestore import PipeStore
from ..models.registry import tiny_model
from ..obs.tracing import wall_clock
from ..storage.objectstore import ObjectStore
from ..storage.photodb import PhotoDatabase
from ..workloads.continuous import multi_tenant_trace
from .config import ShardConfig, TenantConfig
from .fleet import ShardedCluster
from .ring import ConsistentHashRing
from .tenants import QuotaLedger

__all__ = ["run_sharding_bench", "SHARDING_BENCH_DEFAULTS"]

#: the trace/fleet the recorded BENCH_sharding.json numbers come from
SHARDING_BENCH_DEFAULTS = {
    "num_shards": 8,
    "vnodes": 64,
    "replication": 2,
    "fanout": 2,
    "num_uploads": 200_000,
    "num_users": 1_000_000,
    "skew": 1.1,
    "tenants": {"acme": 3.0, "globex": 1.5, "initech": 1.0},
    "upload_bytes": 8192,
    "fleet_photos": 96,
}


def _placement_part(seed: int, p: Dict) -> Dict:
    """Part A: population-scale ring placement + quota admission."""
    trace = multi_tenant_trace(
        p["num_uploads"], p["tenants"], num_users=p["num_users"],
        skew=p["skew"], seed=seed)
    ids = trace.photo_ids()
    ring = ConsistentHashRing(
        vnodes=p["vnodes"], seed=seed,
        shards=[f"shard-{i}" for i in range(p["num_shards"])])
    t0 = wall_clock()
    before = ring.placement_map(ids)
    map_s = wall_clock() - t0
    counts = {s: 0 for s in ring.shards}
    for shard in before.values():
        counts[shard] += 1
    mean = len(ids) / len(ring)
    # join a shard: only keys re-homed TO the newcomer may move
    ring.add_shard(f"shard-{p['num_shards']}")
    after_join = ring.placement_map(ids)
    join_moved = ConsistentHashRing.moved_keys(before, after_join)
    join_clean = all(after_join[k] == f"shard-{p['num_shards']}"
                     for k in join_moved)
    # leave again: movement bounded by what the leaver owned
    ring.remove_shard(f"shard-{p['num_shards']}")
    after_leave = ring.placement_map(after_join)
    leave_moved = ConsistentHashRing.moved_keys(after_join, after_leave)
    # quota admission over the whole trace, bulk-accounted per tenant:
    # acme's byte quota covers ~60% of its offered bytes, so the ledger
    # provably rejects (and the conservation law holds at scale)
    tenant_counts = trace.tenant_counts()
    quotas = {
        "acme": int(tenant_counts["acme"] * p["upload_bytes"] * 0.6),
        "globex": None,
        "initech": None,
    }
    admission = {}
    for name in trace.tenants:
        ledger = QuotaLedger(byte_quota=quotas[name])
        rejected = 0
        for _ in range(tenant_counts[name]):
            if ledger.offer(p["upload_bytes"]) is not None:
                rejected += 1
        ledger.check()
        admission[name] = {
            "offered": tenant_counts[name],
            "admitted": ledger.admitted,
            "rejected": rejected,
            "resident_bytes": ledger.resident_bytes,
        }
    return {
        "keys": len(ids),
        "num_users": p["num_users"],
        "distinct_users": trace.distinct_users(),
        "keys_per_s": len(ids) / map_s if map_s > 0 else 0.0,
        "shard_counts": counts,
        "spread_max_over_mean": max(counts.values()) / mean,
        "join": {
            "moved": len(join_moved),
            "fraction": len(join_moved) / len(ids),
            "bound": 1.0 / (p["num_shards"] + 1) + 0.10,
            "all_to_new_shard": join_clean,
        },
        "leave": {
            "moved": len(leave_moved),
            "fraction": len(leave_moved) / len(ids),
            "bound": 1.0 / (p["num_shards"] + 1) + 0.10,
        },
        "admission": admission,
    }


def _build_fleet(seed: int, p: Dict, metrics=None) -> ShardedCluster:
    return ShardedCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ShardConfig(num_shards=p["num_shards"], vnodes=p["vnodes"],
                    ring_seed=seed, replication=p["replication"],
                    fanout=p["fanout"]),
        tenants=[TenantConfig(name=n) for n in sorted(p["tenants"])],
        metrics=metrics)


def _seed_corpus(fleet: ShardedCluster, seed: int, p: Dict) -> None:
    rng = np.random.default_rng(seed + 1)
    shape = fleet.cluster.tuner.model.input_shape
    images = rng.random((p["fleet_photos"],) + tuple(shape),
                        dtype=np.float32)
    labels = rng.integers(0, 8, size=p["fleet_photos"])
    per = p["fleet_photos"] // len(p["tenants"])
    for i, tenant in enumerate(sorted(p["tenants"])):
        lo = i * per
        hi = p["fleet_photos"] if i == len(p["tenants"]) - 1 else lo + per
        fleet.ingest(images[lo:hi], tenant=tenant,
                     train_labels=labels[lo:hi])


def _tuner_egress(fleet: ShardedCluster) -> int:
    net = fleet.cluster.network
    tuner = fleet.cluster.tuner.name
    return sum(net.bytes_between(tuner, s.store_id)
               for s in fleet.cluster.stores)


def _fanout_part(seed: int, p: Dict) -> Dict:
    """Part B: unicast vs tree distribution of the identical delta."""
    results = {}
    for strategy in ("unicast", "fanout"):
        fleet = _build_fleet(seed, p)
        _seed_corpus(fleet, seed, p)
        egress_before = _tuner_egress(fleet)
        fleet.finetune(epochs=1, num_runs=1, fanout=(strategy == "fanout"))
        versions = sorted({s.model_version
                           for s in fleet.cluster.stores})
        results[strategy] = {
            "tuner_egress_bytes": _tuner_egress(fleet) - egress_before,
            "store_versions": versions,
            "tuner_version": fleet.cluster.tuner.version,
            "relayed": int(fleet.metrics.fanout_sends.value(hop="relay")
                           if strategy == "fanout" else 0),
        }
    uni = results["unicast"]["tuner_egress_bytes"]
    fan = results["fanout"]["tuner_egress_bytes"]
    return {
        **results,
        "freshness_equal": (
            results["unicast"]["store_versions"]
            == results["fanout"]["store_versions"]
            and len(results["fanout"]["store_versions"]) == 1),
        "egress_saving_bytes": uni - fan,
        "egress_saving_fraction": (uni - fan) / uni if uni else 0.0,
    }


@contextmanager
def _counting(targets: Dict[str, Tuple[type, str]],
              ) -> Iterator[Dict[str, int]]:
    """Count calls to each ``(class, method)`` — reads, for a property —
    while the block runs; every class is restored on the way out."""
    counts = dict.fromkeys(targets, 0)
    restore: List[Tuple[type, str, object]] = []

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    try:
        for name, (cls, attr) in targets.items():
            original = inspect.getattr_static(cls, attr)
            restore.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr,
                    property(counted(name, original.fget))
                    if isinstance(original, property)
                    else counted(name, original))
        yield counts
    finally:
        for cls, attr, original in restore:
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)


def _migration_part(seed: int, p: Dict) -> Dict:
    """Part C: live join on a replicated fleet, ledger-exact; its corpus
    landing is counted first."""
    fleet = _build_fleet(seed, p)
    with _counting({"ring_walks": (ConsistentHashRing, "replica_set"),
                    "availability_probes": (PipeStore, "is_available"),
                    "object_puts": (ObjectStore, "put"),
                    "db_upserts": (PhotoDatabase, "upsert")}) as counts:
        _seed_corpus(fleet, seed, p)
    landed = len(fleet.cluster.database)
    summary = fleet.join_shard()
    scrub = fleet.scrub_and_repair()
    ledger = fleet.ledger().to_dict()
    return {
        "join": {k: summary[k]
                 for k in ("shard", "num_shards", "photos_total",
                           "objects_total", "objects_moved",
                           "moved_fraction")},
        "bound": 1.0 / summary["num_shards"] + 0.10,
        "within_bound": summary["moved_fraction"]
        <= 1.0 / summary["num_shards"] + 0.10,
        "ledger": ledger,
        "rebalance_bytes": int(fleet.metrics.rebalance_bytes.total()),
        "unrecoverable": len(scrub.unrecoverable),
        "landing": {name: count / landed for name, count in counts.items()},
    }


def run_sharding_bench(seed: int = 0,
                       overrides: Optional[Dict] = None) -> Dict:
    """Run all three parts; returns the canonical result dict."""
    p = dict(SHARDING_BENCH_DEFAULTS)
    if overrides:
        unknown = sorted(set(overrides) - set(p))
        if unknown:
            raise ValueError(
                f"unknown overrides {unknown}; pick from {sorted(p)}")
        p.update(overrides)
    return {
        "seed": seed,
        "config": p,
        "placement": _placement_part(seed, p),
        "fanout": _fanout_part(seed, p),
        "migration": _migration_part(seed, p),
    }
