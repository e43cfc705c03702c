"""Continuous operation: the photo service's day-by-day production loop.

Ties the whole system together the way §3.1's production deployment runs:
every day new photos arrive and are labelled online; a maintenance policy
(scheduled or drift-triggered, §2.2) decides when to fine-tune; each
fine-tune is followed by a near-data offline-relabel campaign so the
database catches up with the refreshed model.  The log records accuracy,
label freshness, update counts, and network traffic per day.

It also holds the request traces: :func:`open_loop_requests`,
:func:`diurnal_requests` and :func:`flash_crowd_requests` share one
sampler whose draw order is pinned (per arrival an exponential gap, an
acceptance uniform when thinned, a uniform for the Zipf rank; the pool
from its own ``pool_seed``).  Every logical serving number follows from
the trace: changing the draws means re-blessing ``BENCH_serving*.json``
and both serve workloads' logical metrics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.cluster import NDPipeCluster
from ..core.driftdetect import MaintenancePolicy
from ..data.drift import DriftingPhotoWorld
from ..serving.admission import ServeRequest


@dataclass
class DayRecord:
    """What happened on one operational day."""

    day: int
    uploads: int
    top1: float
    top5: float
    fine_tuned: bool
    labels_refreshed: int
    #: photos whose DB label predates the current model version (end of day)
    stale_labels: int


@dataclass
class OperationLog:
    """The full continuous-operation trace."""

    policy: str
    days: List[DayRecord] = field(default_factory=list)
    traffic_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def updates(self) -> int:
        return sum(1 for d in self.days if d.fine_tuned)

    @property
    def mean_top1(self) -> float:
        if not self.days:
            raise ValueError("no days recorded")
        return float(np.mean([d.top1 for d in self.days]))


#: argument kinds, as (test, rule): sizes, then rates, periods and
#: durations, then skews and start times
_COUNT = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")


def _check(kind, **values: float) -> None:
    test, rule = kind
    for name, value in values.items():
        if not test(value):
            raise ValueError(f"{name} must be {rule}, got {value}")


def _zipf_cdf(pool_size: int, skew: float) -> List[float]:
    """Popularity CDF over pool ranks, built exactly as
    ``Generator.choice`` builds it from a ``p`` vector, so
    ``bisect_right(cdf, rng.random())`` is that call's draw: the same
    double consumed, the same rank returned."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** skew
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _sampled_requests(num_requests: int, max_rate_rps: float, seed: int,
                      pool_size: int, skew: float, image_size: int,
                      channels: int, pool_seed: int, id_prefix: str,
                      rate_fn: Optional[Callable[[float], float]] = None,
                      ) -> List[ServeRequest]:
    """Poisson arrivals at ``max_rate_rps`` over a Zipf photo pool.

    Given ``rate_fn`` the process is thinned (Lewis–Shedler): a candidate
    is kept with probability ``rate_fn(t) / max_rate_rps``, one uniform
    each; without it no uniform is drawn.  ``pool_seed`` is independent
    of ``seed``, so the pool is made after the ranks and only drawn rows
    are kept, one array per rank, shared by its requests.
    """
    _check(_COUNT, num_requests=num_requests, pool_size=pool_size,
           image_size=image_size, channels=channels)
    _check(_NON_NEGATIVE, skew=skew)
    cdf = _zipf_cdf(pool_size, skew)
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    ranks: List[int] = []
    t = 0.0
    while len(ranks) < num_requests:
        t += float(rng.exponential(1.0 / max_rate_rps))
        if rate_fn is not None:
            rate = rate_fn(t)
            if not 0.0 <= rate <= max_rate_rps:
                raise ValueError(
                    f"rate_fn({t}) = {rate} outside [0, {max_rate_rps}]")
            if rng.random() >= rate / max_rate_rps:
                continue
        arrivals.append(t)
        ranks.append(bisect_right(cdf, rng.random()))
    pool = np.random.default_rng(pool_seed).random(
        (pool_size, channels, image_size, image_size))
    rows = {rank: pool[rank].copy() for rank in set(ranks)}
    return [ServeRequest(request_id=f"{id_prefix}-{i:06d}", arrival_s=at,
                         pixels=rows[rank], train_label=rank % 10)
            for i, (at, rank) in enumerate(zip(arrivals, ranks))]


def open_loop_requests(num_requests: int, rate_rps: float, seed: int = 0,
                       pool_size: int = 64, skew: float = 1.1,
                       image_size: int = 16, channels: int = 3,
                       pool_seed: int = 1234) -> List[ServeRequest]:
    """Open-loop Poisson upload traffic for the serving layer.

    Arrivals are a Poisson process at ``rate_rps`` (seeded exponential
    inter-arrival times on the deterministic clock — the generator never
    waits for the server, which is what makes the load *offered* rather
    than closed-loop).  Photo content is drawn from a finite pool of
    ``pool_size`` distinct images with a Zipf-like popularity skew
    (probability of rank ``r`` proportional to ``1 / r**skew``), the way
    a photo service sees repeated uploads of popular content — and what
    gives the serving feature-row cache hits to work with.

    The pool is generated from ``pool_seed``, *separately* from the
    arrival-process ``seed``: two traces with different seeds offer the
    same photo population in a different order, so cache behaviour is
    comparable across seeds.  Each request's ``train_label`` is a
    deterministic function of its pool image.
    """
    _check(_POSITIVE, rate_rps=rate_rps)
    return _sampled_requests(
        num_requests, rate_rps, seed, pool_size, skew, image_size, channels,
        pool_seed, id_prefix="req")


def diurnal_requests(num_requests: int, base_rps: float, peak_rps: float,
                     period_s: float, seed: int = 0, pool_size: int = 64,
                     skew: float = 1.1, image_size: int = 16,
                     channels: int = 3, pool_seed: int = 1234,
                     ) -> List[ServeRequest]:
    """A day-night cycle: sinusoidal rate from ``base_rps`` (trough, at
    t=0) up to ``peak_rps`` (mid-period) with period ``period_s``.  Use a
    short ``period_s`` to compress a simulated day into bench time."""
    _check(_POSITIVE, base_rps=base_rps, peak_rps=peak_rps,
           period_s=period_s)
    if peak_rps < base_rps:
        raise ValueError(
            f"need base_rps <= peak_rps, got {base_rps}, {peak_rps}")

    def rate(t: float) -> float:
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / period_s))
        return base_rps + (peak_rps - base_rps) * phase

    return _sampled_requests(
        num_requests, peak_rps, seed, pool_size, skew, image_size, channels,
        pool_seed, id_prefix="diurnal", rate_fn=rate)


def flash_crowd_requests(num_requests: int, base_rps: float,
                         flash_rps: float, flash_start_s: float,
                         flash_duration_s: float, seed: int = 0,
                         pool_size: int = 64, skew: float = 1.1,
                         image_size: int = 16, channels: int = 3,
                         pool_seed: int = 1234) -> List[ServeRequest]:
    """A viral burst: steady ``base_rps`` except for a window of
    ``flash_rps`` starting at ``flash_start_s`` — the trace that sheds on
    a hard-bounded queue and merely delays under backpressure credits."""
    _check(_POSITIVE, base_rps=base_rps, flash_rps=flash_rps,
           flash_duration_s=flash_duration_s)
    _check(_NON_NEGATIVE, flash_start_s=flash_start_s)
    if flash_rps < base_rps:
        raise ValueError(
            f"need base_rps <= flash_rps, got {base_rps}, {flash_rps}")

    def rate(t: float) -> float:
        if flash_start_s <= t < flash_start_s + flash_duration_s:
            return flash_rps
        return base_rps

    return _sampled_requests(
        num_requests, flash_rps, seed, pool_size, skew, image_size, channels,
        pool_seed, id_prefix="flash", rate_fn=rate)


@dataclass(frozen=True)
class TenantUpload:
    """One upload event in a multi-tenant trace."""

    tenant: str
    user_id: int
    photo_id: str


@dataclass
class MultiTenantTrace:
    """A population-scale multi-tenant upload trace, held as arrays.

    A million events live as three numpy arrays (tenant index, user
    rank, sequence number) rather than a million Python objects;
    :meth:`photo_ids` and :meth:`__iter__` materialise views on demand.
    Photo ids are tenant-qualified (``tenant/u<user>/p<seq>``), the
    ``<tenant>/<key>`` convention :meth:`~repro.placement.fleet.
    ShardedCluster.ingest` uses, so they feed straight into ring
    placement.
    """

    tenants: List[str]
    tenant_idx: np.ndarray  # (N,) int — index into tenants
    user_ids: np.ndarray    # (N,) int — Zipf-popular user ranks
    num_users: int
    skew: float
    seed: int

    def __len__(self) -> int:
        return len(self.tenant_idx)

    def upload(self, i: int) -> TenantUpload:
        tenant = self.tenants[int(self.tenant_idx[i])]
        user = int(self.user_ids[i])
        return TenantUpload(
            tenant=tenant, user_id=user,
            photo_id=f"{tenant}/u{user:07d}/p{i:08d}")

    def __iter__(self):
        for i in range(len(self)):
            yield self.upload(i)

    def photo_ids(self) -> List[str]:
        """All tenant-qualified ids, in arrival order (vectorised)."""
        names = np.asarray(self.tenants, dtype=object)[self.tenant_idx]
        return [f"{t}/u{u:07d}/p{i:08d}"
                for i, (t, u) in enumerate(zip(names, self.user_ids))]

    def tenant_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.tenant_idx, minlength=len(self.tenants))
        return {t: int(c) for t, c in zip(self.tenants, counts)}

    def distinct_users(self) -> int:
        return int(np.unique(self.user_ids).size)


def multi_tenant_trace(num_uploads: int, tenants: Dict[str, float],
                       num_users: int = 1_000_000, skew: float = 1.1,
                       seed: int = 0) -> MultiTenantTrace:
    """Sample a multi-tenant upload trace over a Zipf user population.

    ``tenants`` maps tenant name -> relative traffic weight.  Each upload
    first picks a tenant by weight, then a user by Zipf popularity
    (probability of rank ``r`` proportional to ``1 / r**skew``) over a
    ``num_users``-strong population — both draws are vectorised
    inverse-CDF lookups, so a ~1M-user trace costs two ``searchsorted``
    calls, not a million RNG round-trips.
    """
    _check(_COUNT, num_uploads=num_uploads, num_users=num_users)
    _check(_NON_NEGATIVE, skew=skew)
    if not tenants:
        raise ValueError("need at least one tenant")
    _check(_POSITIVE, **{f"weight of tenant {name!r}": weight
                         for name, weight in tenants.items()})
    names = sorted(tenants)
    weights = np.array([tenants[n] for n in names], dtype=np.float64)
    rng = np.random.default_rng(seed)
    tenant_cdf = np.cumsum(weights)
    tenant_cdf /= tenant_cdf[-1]
    tenant_idx = np.searchsorted(
        tenant_cdf, rng.random(num_uploads), side="right")
    user_weights = 1.0 / np.arange(1, num_users + 1, dtype=np.float64) ** skew
    user_cdf = np.cumsum(user_weights)
    user_cdf /= user_cdf[-1]
    user_ids = np.searchsorted(
        user_cdf, rng.random(num_uploads), side="right")
    return MultiTenantTrace(
        tenants=names, tenant_idx=tenant_idx.astype(np.int64),
        user_ids=user_ids.astype(np.int64),
        num_users=num_users, skew=skew, seed=seed)


def run_continuous_operation(cluster: NDPipeCluster,
                             world: DriftingPhotoWorld,
                             policy: MaintenancePolicy,
                             horizon_days: int = 14,
                             uploads_per_day: int = 40,
                             eval_size: int = 120,
                             finetune_epochs: int = 2,
                             num_runs: int = 1,
                             relabel_after_update: bool = True,
                             seed: int = 0) -> OperationLog:
    """Drive the cluster through ``horizon_days`` of drifting uploads.

    The cluster's model should already be base-trained (uploads carry
    ground-truth training labels, standing in for user tags).  Returns the
    per-day operation log.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if uploads_per_day < 1:
        raise ValueError("uploads_per_day must be >= 1")
    log = OperationLog(policy=policy.name)
    upload_rng = np.random.default_rng(seed + 1)

    for day in range(1, horizon_days + 1):
        x_up, y_up = world.sample(uploads_per_day, day, rng=upload_rng)
        cluster.ingest(x_up, train_labels=y_up)

        x_eval, y_eval = world.sample(
            eval_size, day, rng=np.random.default_rng(seed + 100 + day))
        top1, top5 = cluster.evaluate(x_eval, y_eval)

        fine_tuned = False
        labels_refreshed = 0
        if policy.should_update(day, top1):
            cluster.finetune(epochs=finetune_epochs, num_runs=num_runs)
            policy.notify_updated(day)
            fine_tuned = True
            if relabel_after_update:
                labels_refreshed = cluster.offline_relabel().photos_processed
            top1, top5 = cluster.evaluate(x_eval, y_eval)

        stale = len(cluster.database.outdated_ids(cluster.tuner.version))
        log.days.append(DayRecord(
            day=day, uploads=uploads_per_day, top1=top1, top5=top5,
            fine_tuned=fine_tuned, labels_refreshed=labels_refreshed,
            stale_labels=stale,
        ))
    log.traffic_by_kind = cluster.traffic_summary()
    return log
