"""The four fleet-scale workloads, driven through the public API only.

Load shape: one process, one single-threaded closed-loop caller for
ingest / fine-tune / relabel; the serving traces are open loop on the
serving layer's *logical* clock, so latency counts from the scheduled
arrival and the generator is never late (lateness is zero by
construction).  The seed only shapes generated inputs
(``DriftingPhotoWorld.sample``, ``open_loop_requests``,
``flash_crowd_requests``); program configuration is constant.

Each workload is ``setup()`` (untimed: build + generate + warm up),
``measure(rec, cal)`` (the timed, traced program work, with the cheap
correctness gates inline; every operation is one calibrated section, see
``calibrate.py``) and ``finish()`` (read-back verification and
the metric arithmetic, outside the timed region).  A gate that fails
raises :class:`GateError`; the runner turns that into a non-zero exit.

Sizes scale linearly with ``--seconds`` (``scale = seconds / 10``); at
the frozen ``run_seconds`` every workload measures for roughly that long
on the authoring box, and ``--seconds 50`` is the ROADMAP's fleet rung
(10 240 photos on 16 stores).  ``--scale smoke`` is the test size: a
twentieth of the work on 4-store fleets.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro import (
    ClusterConfig,
    InferenceServer,
    NDPipeCluster,
    NetworkFabric,
    ServingConfig,
    ShardConfig,
    ShardedCluster,
    TenantConfig,
)
from repro.data import DriftingPhotoWorld, WorldConfig
from repro.durability import inspect_checkpoint
from repro.models.registry import tiny_model
from repro.nn import inference_mode
from repro.serving import StreamConfig, StreamingFrontend
from repro.workloads.continuous import flash_crowd_requests, open_loop_requests

from .metrics import (
    FLASH,
    FLEET_WRITE,
    LADDER,
    LIFECYCLE,
    Measured,
    exact_percentile,
    median_rate,
    supported_tail,
)

__all__ = ["GateError", "Outcome", "UNTRACED", "WORKLOAD_CLASSES"]

MODEL = "ResNet50"
#: ``--scale smoke`` shrinks every fleet to this many stores, so the
#: per-store fixed costs (model replicas, checkpoint frames) fit a test
SMOKE_STORES = 4


class GateError(AssertionError):
    """A correctness gate inside the runner failed."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


class _Untraced:
    """Stands in for the SpanRecorder when tracing is off."""

    @staticmethod
    def operation(name: str):
        return nullcontext()


UNTRACED = _Untraced()


@contextmanager
def _timed(rec, cal, name: str):
    """One operation: a calibrated timing around a traced span.  The
    calibrator's kernel runs outside the span, so it is never attributed."""
    with cal.section() as timing:
        with rec.operation(name):
            yield timing


@dataclass
class Outcome:
    detail: Dict[str, Measured]
    attempted: int
    failed: int
    #: numbers read from the program's own reports, for per-layer extras
    facts: Dict[str, float]
    #: human-readable context printed beside the metrics
    notes: Dict[str, Any] = field(default_factory=dict)


def _model():
    return tiny_model(MODEL)


def _photos(seed: int, count: int):
    """``count`` labelled day-0 photos; the world is fixed, the draw seeded."""
    world = DriftingPhotoWorld(WorldConfig())
    return world.sample(count, 0, rng=np.random.default_rng(seed))


def _unreadable(stores, database, photo_ids) -> int:
    """Photos whose primary copy is missing or fails its CRC32."""
    by_id = {store.store_id: store for store in stores}
    bad = 0
    for pid in photo_ids:
        objects = by_id[database.lookup(pid).location].objects
        keys = (objects.raw_key(pid), objects.preproc_key(pid))
        if not all(objects.exists(k) and objects.verify(k) for k in keys):
            bad += 1
    return bad


def _stored_bytes(stores) -> int:
    return sum(store.objects.volume.used_bytes for store in stores)


def _fabric_facts(kinds: Dict[str, int]) -> Dict[str, float]:
    return {f"core.fabric.bytes_{kind}": float(num)
            for kind, num in kinds.items()}


def _round_facts(facts: Dict[str, float], tuner, num_stores: int) -> None:
    """Fold the Tuner's latest distribution round into the layer facts."""
    stats = tuner.distributions[-1]
    reached = num_stores - len(stats.stores_missed) - len(stats.stores_fenced)
    uplinks = reached - len(stats.stores_relayed)
    facts["core.checknrun.reduction_factor"] = stats.reduction_factor
    for name, amount in (
            ("core.tuner.stores_updated", reached),
            ("core.checknrun.delta_bytes", stats.bytes_per_store),
            ("placement.fanout.tuner_egress_bytes",
             uplinks * stats.bytes_per_store)):
        facts[name] = facts.get(name, 0.0) + amount


def _chunk_metrics(photos: List[int], seconds: List[float], full: int):
    """(median rate, tail latency) over upload chunks; the tail only looks
    at full-size chunks so a quota-shortened chunk does not read as fast."""
    full_ms = [1e3 * s for p, s in zip(photos, seconds) if p == full]
    pct, tail = supported_tail(full_ms)
    return (Measured(median_rate(photos, seconds), len(photos)),
            Measured(tail, len(full_ms), f"p{pct:.0f} of full chunks"))


# ---------------------------------------------------------------------------
class LifecycleFleet:
    """Ingest -> 3 pipelined FT-DMP rounds -> 3 full relabel sweeps -> scrub."""

    name = LIFECYCLE
    STORES = 16
    CHUNK = 64
    ROUNDS = 3
    SWEEPS = 3
    #: held-out photos behind accuracy_after_finetune (fewer only when the
    #: run itself is smaller): 2048 keeps its sampling noise near 1 %
    EVAL_PHOTOS = 2048

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.seed = seed
        self.stores = SMOKE_STORES if smoke else self.STORES
        self.photos = self.CHUNK * max(2, round(32 * scale))
        self.eval_photos = min(self.EVAL_PHOTOS, self.photos)
        self.config = {
            "cluster": ClusterConfig(num_stores=self.stores,
                                     replication=1).to_dict(),
            "model": MODEL, "photos": self.photos, "chunk": self.CHUNK,
            "finetune": {"rounds": self.ROUNDS, "epochs": 2, "num_runs": 4},
            "relabel_sweeps": self.SWEEPS, "eval_photos": self.eval_photos,
        }

    def setup(self) -> None:
        self.images, self.labels = _photos(self.seed, self.photos)
        self.eval_images, self.eval_labels = _photos(
            self.seed + 1_000_003, self.eval_photos)
        self.cluster = NDPipeCluster(
            _model, ClusterConfig(num_stores=self.stores, replication=1))
        warm = NDPipeCluster(_model, ClusterConfig(num_stores=2))
        warm.ingest(self.images[:self.CHUNK],
                    train_labels=self.labels[:self.CHUNK])
        warm.finetune(epochs=1)
        warm.offline_relabel(only_outdated=False)

    def measure(self, rec, cal) -> None:
        cluster = self.cluster
        self.ids: List[str] = []
        self.chunk_s: List[float] = []
        self.facts: Dict[str, float] = {}
        for start in range(0, self.photos, self.CHUNK):
            stop = start + self.CHUNK
            with _timed(rec, cal, "ingest_chunk") as timing:
                self.ids += cluster.ingest(
                    self.images[start:stop],
                    train_labels=self.labels[start:stop])
            self.chunk_s.append(timing.seconds)
        gate(len(cluster.database) == self.photos == len(set(self.ids)),
             f"database holds {len(cluster.database)} of {self.photos} photos")
        self.finetune_rates: List[float] = []
        for _ in range(self.ROUNDS):
            with _timed(rec, cal, "finetune_round") as timing:
                report = cluster.finetune(epochs=2, num_runs=4)
            gate(report.images_extracted == self.photos
                 and not report.photos_deferred,
                 f"fine-tune extracted {report.images_extracted} images")
            gate(all(s.model_version == cluster.tuner.version
                     for s in cluster.stores),
                 "a store is behind the Tuner's version after a round")
            self.finetune_rates.append(
                report.images_extracted / timing.seconds)
            _round_facts(self.facts, cluster.tuner, len(cluster.stores))
        self.relabel_rates: List[float] = []
        for _ in range(self.SWEEPS):
            with _timed(rec, cal, "relabel_sweep") as timing:
                stats = cluster.offline_relabel(only_outdated=False)
            gate(stats.photos_processed == self.photos and not stats.degraded,
                 f"relabel processed {stats.photos_processed} photos")
            self.relabel_rates.append(stats.photos_processed / timing.seconds)
        with _timed(rec, cal, "scrub"):
            scrub = cluster.scrub_and_repair()
        gate(scrub.corrupt_found == 0 and not scrub.unrecoverable,
             "scrub found corrupt or unrecoverable objects")
        self.facts["scrub_objects"] = scrub.objects_checked

    def finish(self) -> Outcome:
        cluster = self.cluster
        with inference_mode():  # forward only: no autograd graph to build
            top1, _top5 = cluster.evaluate(self.eval_images, self.eval_labels)
        failed = _unreadable(cluster.stores, cluster.database, self.ids)
        traffic = cluster.traffic_summary()
        ingest, tail = _chunk_metrics(
            [self.CHUNK] * len(self.chunk_s), self.chunk_s, self.CHUNK)
        stored_ratio = (_stored_bytes(cluster.stores)
                        / float(self.images.nbytes))
        self.facts.update(_fabric_facts(traffic))
        self.facts["photos"] = self.photos
        self.facts["storage.objectstore.stored_bytes_per_user_byte"] = \
            stored_ratio
        return Outcome(
            detail={
                "ingest_photos_per_s": ingest,
                "upload_chunk_tail_ms": tail,
                "finetune_images_per_s": Measured(
                    statistics.median(self.finetune_rates), self.ROUNDS),
                "relabel_photos_per_s": Measured(
                    statistics.median(self.relabel_rates), self.SWEEPS),
                "accuracy_after_finetune": Measured(top1, self.eval_photos),
                "net_bytes_per_photo": Measured(
                    sum(traffic.values()) / self.photos, self.photos),
            },
            attempted=self.photos, failed=failed, facts=self.facts,
            notes={"traffic_bytes": traffic})


# ---------------------------------------------------------------------------
class FleetWrite:
    """Tenant uploads on a replicated ring -> fan-out fine-tune -> two
    joins -> fail/recover -> scrub -> checkpoint -> restore elsewhere."""

    name = FLEET_WRITE
    SHARDS = 16
    REPLICATION = 3
    CHUNK = 50
    TENANTS = ("acme", "globex", "initech")
    #: the last tenant may hold this share of what it offers, so its
    #: byte quota fills mid-run
    QUOTA_SHARE = 0.6
    FAILED_STORE = 3

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.seed = seed
        chunks = len(self.TENANTS) * max(1, round(32 * scale / 3))
        self.uploads = self.CHUNK * chunks
        self.shard_config = ShardConfig(
            num_shards=SMOKE_STORES if smoke else self.SHARDS,
            replication=self.REPLICATION, fanout=2)
        self.config = {
            "shards": self.shard_config.to_dict(), "model": MODEL,
            "uploads": self.uploads, "chunk": self.CHUNK,
            "tenants": list(self.TENANTS), "quota_share": self.QUOTA_SHARE,
            "finetune": {"epochs": 1}, "joins": 2,
        }

    def _fleet(self, shard_config: ShardConfig) -> ShardedCluster:
        return ShardedCluster(_model, shard_config, self.tenant_configs)

    def setup(self) -> None:
        self.images, self.labels = _photos(self.seed, self.uploads)
        per_tenant = self.uploads // len(self.TENANTS)
        quota = int(per_tenant * self.QUOTA_SHARE) * self.images[0].nbytes
        self.tenant_configs = [
            TenantConfig(name=name,
                         byte_quota=quota if name == self.TENANTS[-1] else None)
            for name in self.TENANTS]
        self.fleet = self._fleet(self.shard_config)
        warm = ShardedCluster(_model, ShardConfig(num_shards=2, replication=2))
        warm.ingest(self.images[:8], train_labels=self.labels[:8])
        warm.finetune(epochs=1)

    def measure(self, rec, cal) -> None:
        fleet = self.fleet
        self.ids: List[str] = []
        self.rejections: List[str] = []
        self.chunk_photos: List[int] = []
        self.chunk_s: List[float] = []
        self.facts: Dict[str, float] = {}
        for index, start in enumerate(range(0, self.uploads, self.CHUNK)):
            stop = start + self.CHUNK
            tenant = self.TENANTS[index % len(self.TENANTS)]
            with _timed(rec, cal, "write_chunk") as timing:
                ids, rejected = fleet.ingest(
                    self.images[start:stop], tenant=tenant,
                    train_labels=self.labels[start:stop])
            self.ids += ids
            self.rejections += rejected
            if ids:
                self.chunk_photos.append(len(ids))
                self.chunk_s.append(timing.seconds)
        fleet.tenants.check()
        ledgers = fleet.tenants.to_dict()
        gate(len(self.ids) + len(self.rejections) == self.uploads
             and sum(v["admitted"] for v in ledgers.values()) == len(self.ids)
             and sum(v["rejected"] for v in ledgers.values())
             == len(self.rejections),
             f"tenant ledgers disagree with the offered uploads: {ledgers}")
        gate(len(fleet.database) == len(self.ids),
             f"database holds {len(fleet.database)} of {len(self.ids)} "
             "admitted photos")
        with _timed(rec, cal, "finetune_round"):
            report = fleet.finetune(epochs=1)
        gate(report.images_extracted == len(self.ids),
             f"fine-tune extracted {report.images_extracted} images")
        gate(all(s.model_version == fleet.tuner.version for s in fleet.stores),
             "a shard is behind the Tuner's version after the round")
        _round_facts(self.facts, fleet.tuner, len(fleet.stores))
        moved_fractions = []
        for _ in range(2):
            with _timed(rec, cal, "join_shard"):
                summary = fleet.join_shard()
            ledger = summary["ledger"]
            gate(ledger["objects_moved"] == ledger["objects_received"]
                 and ledger["objects_inflight"] == 0
                 and ledger["objects_failed"] == 0,
                 f"migration ledger does not balance: {ledger}")
            moved_fractions.append(summary["moved_fraction"])
        victim = fleet.stores[self.FAILED_STORE]
        with _timed(rec, cal, "fail_recover"):
            victim.fail()
            orphans = fleet.reingest_orphans(victim.store_id)
            fleet.recover(victim.store_id)
        gate(victim.is_available
             and victim.model_version == fleet.tuner.version,
             "the failed store did not come back at the Tuner's version")
        with _timed(rec, cal, "scrub"):
            scrub = fleet.scrub_and_repair()
        gate(scrub.corrupt_found == 0 and not scrub.unrecoverable,
             "scrub found corrupt or unrecoverable objects")
        with _timed(rec, cal, "checkpoint") as checkpoint:
            blob = fleet.checkpoint()
        with _timed(rec, cal, "size_restore_target"):
            # restore rejects a mismatched store set: 18 shards after joins
            shards = inspect_checkpoint(blob)["num_stores"]
            self.restored = self._fleet(ShardConfig.from_dict({
                **self.shard_config.to_dict(), "num_shards": shards}))
        with _timed(rec, cal, "restore") as restore:
            self.restored.restore(blob)
        self.durable_s = checkpoint.seconds + restore.seconds
        self.checkpoint_bytes = len(blob)
        self.facts.update({
            "scrub_objects": scrub.objects_checked,
            "core.controlplane.orphans_reingested": len(orphans),
            "placement.rebalance.objects_moved": ledger["objects_moved"],
            "placement.rebalance.inflight": ledger["objects_inflight"],
            "placement.rebalance.moved_frac":
                statistics.mean(moved_fractions),
            "placement.ring.load_skips": fleet.metrics.load_skips.total(),
            "placement.tenants.admitted": len(self.ids),
            "placement.tenants.rejected": len(self.rejections),
        })

    def finish(self) -> Outcome:
        fleet, restored = self.fleet, self.restored
        admitted = len(self.ids)
        gate(restored.database.snapshot_labels()
             == fleet.database.snapshot_labels(),
             "restored fleet's label database differs")
        gate(all(len(restored.replicas.holders(pid)) >= self.REPLICATION
                 for pid in self.ids),
             "a photo has fewer holders than the replication factor")
        failed = _unreadable(restored.stores, restored.database, self.ids)
        traffic = fleet.traffic_summary()
        write, tail = _chunk_metrics(self.chunk_photos, self.chunk_s,
                                     self.CHUNK)
        user_bytes = admitted * self.images[0].nbytes
        stored_ratio = _stored_bytes(fleet.stores) / user_bytes
        self.facts.update(_fabric_facts(traffic))
        self.facts.update({
            "photos": admitted,
            "storage.objectstore.stored_bytes_per_user_byte": stored_ratio,
            "durability.checkpoint.bytes": self.checkpoint_bytes,
            "durability.checkpoint.bytes_per_photo":
                self.checkpoint_bytes / admitted,
        })
        return Outcome(
            detail={
                "write_photos_per_s": write,
                "upload_chunk_tail_ms": tail,
                "durable_mb_per_s": Measured(
                    2 * self.checkpoint_bytes / 1e6 / self.durable_s),
                "stored_bytes_per_user_byte": Measured(stored_ratio, admitted),
                "durable_frac": Measured(
                    (admitted - failed) / self.uploads, self.uploads),
                "net_bytes_per_photo": Measured(
                    sum(traffic.values()) / admitted, admitted),
            },
            attempted=self.uploads, failed=failed, facts=self.facts,
            notes={"quota_rejections_expected": len(self.rejections),
                   "tenant_ledgers": fleet.tenants.to_dict(),
                   "traffic_bytes": traffic,
                   "restored_shards": len(restored.stores)})


# ---------------------------------------------------------------------------
def _serving_facts(reports, stream: bool) -> Dict[str, float]:
    """Serving-layer counts over every serve call of the measured section."""
    batches = [size for r in reports for size in r.batch_sizes]
    facts = {
        "requests": sum(r.offered for r in reports),
        "serving.admission.offered": sum(r.offered for r in reports),
        "serving.cache.hits": sum(r.cache_hits for r in reports),
        "serving.cache.misses": sum(r.cache_misses for r in reports),
        "serving.cache.evictions": sum(r.cache_evictions for r in reports),
        "serving.batcher.mean_batch": statistics.mean(batches),
        "serving.batcher.final_batch_target": reports[-1].final_batch_target,
    }
    if stream:
        waits = [w for r in reports for w in r.credit_waits_s]
        facts.update({
            "serving.admission.shed_deadline": sum(r.expired for r in reports),
            "serving.dispatcher.redispatches":
                sum(r.redispatches for r in reports),
            "serving.loop.scale_ups": sum(r.scale_ups for r in reports),
            "serving.loop.scale_downs": sum(r.scale_downs for r in reports),
            "serving.loop.out_of_order":
                sum(r.out_of_order for r in reports),
            "serving.loop.p99_credit_wait_ms":
                1e3 * exact_percentile(waits, 99),
        })
    else:
        facts.update({
            "serving.admission.shed_queue_full":
                sum(r.shed["queue_full"] for r in reports),
            "serving.admission.shed_deadline":
                sum(r.shed["deadline"] for r in reports),
        })
    return facts


def _latency_metrics(reports, deadline_s: float, host_rps: List[float]):
    latencies = [lat for r in reports for lat in r.latencies_s]
    offered = sum(r.offered for r in reports)
    within = sum(1 for lat in latencies if lat <= deadline_s)
    return {
        "serve_sim_p99_ms": Measured(
            1e3 * exact_percentile(latencies, 99), len(latencies),
            f"logical clock; p50 {1e3 * exact_percentile(latencies, 50):.3f} ms"),
        "serve_goodput_frac": Measured(within / offered, offered),
        "serve_host_rps": Measured(statistics.median(host_rps), len(host_rps)),
    }


class ServeUploadLadder:
    """``cluster.serve_uploads`` at four Poisson rates, then four
    reference traces at the second rung."""

    name = LADDER
    STORES = 8
    REPLICATION = 2
    RATES_RPS = (250.0, 500.0, 1000.0, 2000.0)
    REFERENCE_RUNG = 1
    REFERENCE_TRACES = 4
    #: a rung passes when this share of offered requests meets the deadline
    PASS_SHARE = 0.99

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.seed = seed
        self.stores = SMOKE_STORES if smoke else self.STORES
        self.requests = max(50, round(800 * scale))
        self.serving = ServingConfig(replicas=2)
        self.config = {
            "cluster": ClusterConfig(num_stores=self.stores,
                                     replication=self.REPLICATION).to_dict(),
            "serving": self.serving.to_dict(), "model": MODEL,
            "ladder_rps": list(self.RATES_RPS),
            "requests_per_trace": self.requests,
            "reference": {"rps": self.RATES_RPS[self.REFERENCE_RUNG],
                          "traces": self.REFERENCE_TRACES},
            "generator_lateness_s": 0.0,
        }

    def _trace(self, rate_rps: float, seed: int):
        # pool_size == num_requests and no skew: mostly-unique photos, so
        # the tensor cache mostly misses (preprocess + deflate per request)
        return open_loop_requests(
            self.requests, rate_rps, seed=seed, pool_size=self.requests,
            skew=0.0, pool_seed=seed + 500_009)

    def setup(self) -> None:
        self.rungs = [self._trace(rate, self.seed * 1000 + 17 + i)
                      for i, rate in enumerate(self.RATES_RPS)]
        reference_rps = self.RATES_RPS[self.REFERENCE_RUNG]
        self.references = [self._trace(reference_rps, self.seed + k)
                           for k in range(self.REFERENCE_TRACES)]
        self.cluster = NDPipeCluster(_model, ClusterConfig(
            num_stores=self.stores, replication=self.REPLICATION))
        warm = NDPipeCluster(_model, ClusterConfig(num_stores=2))
        warm.serve_uploads(self.rungs[0][:32], self.serving)

    def measure(self, rec, cal) -> None:
        cluster = self.cluster
        deadline_s = self.serving.effective_deadline_s
        self.ids: List[str] = []
        self.rung_reports = []
        self.max_rate = 0.0
        for rate, trace in zip(self.RATES_RPS, self.rungs):
            with _timed(rec, cal, "ladder_rung"):
                report, ids = cluster.serve_uploads(trace, self.serving)
            self._check(report, ids)
            within = sum(1 for lat in report.latencies_s if lat <= deadline_s)
            if within >= self.PASS_SHARE * report.offered:
                self.max_rate = max(self.max_rate, rate)
            self.rung_reports.append(report)
        self.reference_reports = []
        self.host_rps: List[float] = []
        for trace in self.references:
            with _timed(rec, cal, "reference_trace") as timing:
                report, ids = cluster.serve_uploads(trace, self.serving)
            self._check(report, ids)
            self.reference_reports.append(report)
            self.host_rps.append(report.offered / timing.seconds)
        gate(self.max_rate > 0, "no ladder rung met the deadline")

    def _check(self, report, ids: List[str]) -> None:
        gate(report.offered == report.completed + report.shed_total,
             "serving report is not conserved")
        gate(len(ids) == report.completed == len(set(ids))
             and all(pid in self.cluster.database for pid in ids),
             "landed photo ids differ from the completed requests")
        self.ids += ids

    def finish(self) -> Outcome:
        cluster = self.cluster
        reports = self.reference_reports
        offered = sum(r.offered for r in reports)
        unserved = offered - sum(r.completed for r in reports)
        unreadable = _unreadable(cluster.stores, cluster.database, self.ids)
        traffic = cluster.traffic_summary()
        landed = len(self.ids)
        facts = _serving_facts(self.rung_reports + reports, stream=False)
        facts.update(_fabric_facts(traffic))
        facts.update({
            "photos": landed,
            "serving.admission.max_rate_rps": self.max_rate,
            "storage.objectstore.stored_bytes_per_user_byte":
                _stored_bytes(cluster.stores)
                / (landed * float(self.rungs[0][0].pixels.nbytes)),
        })
        detail = _latency_metrics(
            reports, self.serving.effective_deadline_s, self.host_rps)
        detail["serve_max_rate_rps"] = Measured(
            self.max_rate, len(self.RATES_RPS))
        detail["net_bytes_per_photo"] = Measured(
            sum(traffic.values()) / landed, landed)
        ladder = {f"{rate:g}_rps": {
            "completed": r.completed, "shed": dict(r.shed),
            "p99_ms": 1e3 * r.p99_latency_s, "mean_batch": r.mean_batch}
            for rate, r in zip(self.RATES_RPS, self.rung_reports)}
        return Outcome(detail=detail, attempted=offered,
                       failed=unserved + unreadable, facts=facts,
                       notes={"ladder": ladder, "traffic_bytes": traffic})


# ---------------------------------------------------------------------------
class ServeStreamFlash:
    """``StreamingFrontend.serve`` on flash-crowd traces; no storage."""

    name = FLASH
    POOL = 64
    SKEW = 1.1
    BASE_RPS = 600.0
    FLASH_RPS = 6000.0
    FULL_TRACE = 3000

    def __init__(self, seed: int, scale: float, smoke: bool = False):
        self.seed = seed
        self.traces = max(1, round(3 * scale))
        # below one full trace per run the trace itself shrinks, burst
        # window included, so the shape (base -> 10x burst -> base) stays
        self.requests = min(self.FULL_TRACE, max(300, round(9000 * scale)))
        self.serving = ServingConfig(replicas=1, deadline_s=1.0)
        self.stream = StreamConfig(min_replicas=1, max_replicas=6)
        self.config = {
            "serving": self.serving.to_dict(),
            "stream": self.stream.to_dict(), "model": MODEL,
            "traces": self.traces, "requests_per_trace": self.requests,
            "pool_size": self.POOL, "skew": self.SKEW,
            "base_rps": self.BASE_RPS, "flash_rps": self.FLASH_RPS,
            "generator_lateness_s": 0.0,
        }

    def _trace(self, seed: int):
        shrink = self.requests / self.FULL_TRACE
        return flash_crowd_requests(
            self.requests, self.BASE_RPS, self.FLASH_RPS,
            flash_start_s=1.0 * shrink, flash_duration_s=0.5 * shrink,
            seed=seed, pool_size=self.POOL, skew=self.SKEW)

    def _replica(self, index: int) -> InferenceServer:
        while index >= len(self.replicas):
            self.replicas.append(InferenceServer(
                _model(), name=f"stream-replica-{len(self.replicas)}"))
        return self.replicas[index]

    def _frontend(self, network: NetworkFabric) -> StreamingFrontend:
        return StreamingFrontend(self._replica, self.serving, self.stream,
                                 network=network)

    def setup(self) -> None:
        self.inputs = [self._trace(self.seed + k) for k in range(self.traces)]
        self.replicas: List[InferenceServer] = []
        self._replica(self.stream.max_replicas - 1)
        self._frontend(NetworkFabric()).serve(self.inputs[0][:64])

    def measure(self, rec, cal) -> None:
        self.reports = []
        self.host_rps: List[float] = []
        self.net_bytes = 0
        for trace in self.inputs:
            network = NetworkFabric()
            frontend = self._frontend(network)
            with _timed(rec, cal, "flash_trace") as timing:
                report = frontend.serve(trace)
            gate(report.conserved and report.queue_full == 0,
                 "streaming report is not conserved")
            gate(len(set(report.completion_order)) == report.completed,
                 "a request completed twice")
            self.reports.append(report)
            self.host_rps.append(report.offered / timing.seconds)
            self.net_bytes += network.total_bytes

    def finish(self) -> Outcome:
        offered = sum(r.offered for r in self.reports)
        unserved = offered - sum(r.completed for r in self.reports)
        detail = _latency_metrics(
            self.reports, self.serving.effective_deadline_s, self.host_rps)
        detail["net_bytes_per_photo"] = Measured(
            self.net_bytes / offered, offered)
        return Outcome(
            detail=detail, attempted=offered, failed=unserved,
            facts=_serving_facts(self.reports, stream=True),
            notes={"peak_replicas": [r.peak_replicas for r in self.reports],
                   "expired": sum(r.expired for r in self.reports)})


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    LifecycleFleet, FleetWrite, ServeUploadLadder, ServeStreamFlash)}
