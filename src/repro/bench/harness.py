"""Unified perf-trajectory harness: one lifecycle, four BENCH files.

The per-figure benchmarks regenerate paper tables; this harness answers
a different question — *is the implementation getting faster or slower
across PRs?*  It runs the seeded end-to-end scenarios the paper's
systems story is built on and records each one in the shared
:mod:`repro.obs.benchjson` schema (v2, with per-metric gate
directions):

* ``BENCH_ingest``   — upload-path throughput: preprocess + classify +
  store ``scale.photos`` drift-world photos on a tiny cluster;
* ``BENCH_finetune`` — FT-DMP rounds: feature extraction on the stores
  plus classifier training and delta distribution from the Tuner;
* ``BENCH_relabel``  — offline NPE relabel sweeps over every stored
  photo;
* ``BENCH_serving``  — the adaptive-vs-batch=1 serving comparison
  (shared with ``benchmarks/bench_serving.py`` so the two writers can
  never disagree; its clock is logical, so its numbers are
  deterministic).

Every scenario reports ops/s, p50/p99 latency, bytes moved, and wall
time.  Counters and byte totals are deterministic for a given seed and
scale and carry ``direction: exact``.  Raw wall-clock numbers are
recorded but *informational* — absolute seconds don't transfer across
machines and are too noisy at smoke scale to gate on.  What the gate
(:mod:`repro.bench.gate`) compares instead is the **calibrated** speed
factor: a fixed numpy reference workload (:func:`machine_calibration_s`)
is timed in a snip immediately adjacent to *every* timed sample, and
throughput is expressed as work per calibration unit using the median
of the per-sample paired ratios.  Pairing matters — on a shared
machine the absolute speed drifts between processes and even between
seconds, but two measurements taken back-to-back sit in the same load
regime, so their ratio is stable where a globally-calibrated number is
not.  Calibrated ratios are also machine-portable, so a baseline
blessed on one host gates a run on another.  All timing goes through
:func:`repro.obs.tracing.wall_clock`, the one sanctioned wall-clock
seam (ND001).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cluster import NDPipeCluster
from ..core.config import ClusterConfig
from ..data.drift import DriftingPhotoWorld, WorldConfig
from ..models.registry import tiny_model
from ..obs.benchjson import BenchResult, bench_payload, write_bench_json
from ..obs.tracing import wall_clock
from ..placement.bench import SHARDING_BENCH_DEFAULTS, run_sharding_bench
from ..serving.bench import (
    BENCH_DEFAULTS,
    STREAM_BENCH_DEFAULTS,
    run_serving_comparison,
    run_streaming_bench,
)
from ..serving.dispatcher import ACCELERATOR, MODEL

__all__ = [
    "HarnessScale", "SCALES", "SCENARIOS",
    "run_harness", "bless_harness", "write_results", "serving_payload",
    "serving_stream_payload", "sharding_payload", "machine_calibration_s",
]

HIGHER = "higher_is_better"
LOWER = "lower_is_better"
EXACT = "exact"


def _calibration_snip() -> float:
    """One timed run of the fixed reference workload.

    A small, BLAS-plus-elementwise numpy loop shaped like the hot paths
    the harness times (GEMM + transcendental + reduction).
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    b = rng.standard_normal((96, 96))
    t0 = wall_clock()
    acc = a
    for _ in range(32):
        acc = np.tanh(acc @ b)
        acc = acc - acc.mean(axis=0)
    float(acc.sum())
    return wall_clock() - t0


def machine_calibration_s(reps: int = 5) -> float:
    """Seconds this machine takes for the fixed reference workload.

    Taking the *minimum* over ``reps`` snips gives a low-noise measure
    of machine speed; dividing measured times by it yields
    machine-portable numbers.
    """
    return min(_calibration_snip() for _ in range(reps))


class _PairedClock:
    """Times samples with a calibration snip adjacent to each one.

    ``cals[i]`` is the best reference-workload time measured in the
    windows immediately before and after sample ``i`` — the machine's
    momentary speed while that sample ran.  Gating on the ratio of the
    two cancels load drift that a single global calibration cannot.
    """

    def __init__(self) -> None:
        self._snips: List[float] = [_calibration_snip()]
        self.samples: List[float] = []

    def time(self, fn):
        t0 = wall_clock()
        out = fn()
        self.samples.append(wall_clock() - t0)
        self._snips.append(_calibration_snip())
        return out

    @property
    def cals(self) -> List[float]:
        return [min(self._snips[i], self._snips[i + 1])
                for i in range(len(self.samples))]


@dataclass(frozen=True)
class HarnessScale:
    """How big one harness run is; recorded in every payload's config."""

    name: str
    #: PipeStore fleet size
    stores: int
    #: photos ingested (and later relabelled)
    photos: int
    #: drift-world image edge length
    image_size: int
    #: ingest latency samples (the upload stream is split into this
    #: many timed chunks)
    chunks: int
    #: Tuner epochs per fine-tune round
    epochs: int
    #: timed fine-tune rounds (each continues training the same tuner)
    finetune_repeats: int
    #: timed relabel samples (of :data:`RELABEL_SWEEPS` full sweeps each)
    relabel_repeats: int


SCALES: Dict[str, HarnessScale] = {
    "smoke": HarnessScale("smoke", stores=2, photos=48, image_size=16,
                          chunks=8, epochs=1, finetune_repeats=4,
                          relabel_repeats=6),
    "fast": HarnessScale("fast", stores=3, photos=144, image_size=16,
                         chunks=12, epochs=2, finetune_repeats=3,
                         relabel_repeats=3),
    "paper": HarnessScale("paper", stores=4, photos=480, image_size=16,
                          chunks=20, epochs=2, finetune_repeats=5,
                          relabel_repeats=4),
}

SCENARIOS = ("ingest", "finetune", "relabel", "serving", "serving_stream",
             "sharding")

#: full relabel sweeps in one timed relabel sample.  One sweep of the
#: smoke corpus is under a millisecond, too short a window for the gate's
#: 15 % bound: six A/A smoke runs at one sweep a sample spread -23 % to
#: +19 % of their median, at 64 back-to-back sweeps of the same photos
#: about -5 % to +10 % on a shared 2-vCPU host.
RELABEL_SWEEPS = 64


def _percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _scenario_results(prefix: str, samples: Sequence[float],
                      cals: Sequence[float], ops_unit: str,
                      work_per_sample: float, wall_s: float, cal_s: float,
                      bytes_moved: int, work: int,
                      work_unit: str) -> List[BenchResult]:
    """One lifecycle scenario's report.

    ``samples`` are per-unit wall times (one per chunk / round /
    sweep), each covering ``work_per_sample`` ops; ``cals[i]`` is the
    paired calibration time for sample ``i``.  Raw seconds are
    informational; the gated timing number is the calibrated speed
    factor — the *median* of the per-sample ``work_per_sample *
    cal/sample`` ratios, each ratio taken inside one load window so
    machine-level drift divides out.  (The best ratio is tempting but
    wrong: sample and snip noise are imperfectly correlated, so the
    extreme windows are the most *mismatched* ones.)  The calibrated
    p50 is reported but not gated: some scenarios have only a handful
    of samples, so their median latency wobbles where the paired
    ratios do not.
    """
    p50 = _percentile(samples, 50)
    factors = [work_per_sample * c / s for s, c in zip(samples, cals)]
    return [
        BenchResult(f"{prefix}_ops_per_s", work / wall_s, ops_unit),
        BenchResult(f"{prefix}_p50_latency_s", p50, "s"),
        BenchResult(f"{prefix}_p99_latency_s", _percentile(samples, 99), "s"),
        BenchResult(f"{prefix}_wall_s", wall_s, "s"),
        BenchResult(f"{prefix}_speed_factor", _percentile(factors, 50),
                    "ops/cal", direction=HIGHER),
        BenchResult(f"{prefix}_p50_latency_cal", p50 / cal_s, "cal"),
        BenchResult(f"{prefix}_bytes_moved", bytes_moved, "bytes",
                    direction=EXACT),
        BenchResult(f"{prefix}_work", work, work_unit, direction=EXACT),
        BenchResult("machine_calibration_s", cal_s, "s"),
    ]


def _scale_config(scale: HarnessScale, seed: int) -> Dict:
    config = {f"scale_{k}": v for k, v in asdict(scale).items()
              if k != "name"}
    config["scale"] = scale.name
    config["seed"] = seed
    return config


def _build_cluster(scale: HarnessScale, seed: int) -> NDPipeCluster:
    return NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ClusterConfig(num_stores=scale.stores, nominal_raw_bytes=8192,
                      batch_size=32, seed=seed),
    )


def _sample_world(scale: HarnessScale, seed: int):
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=scale.image_size,
        noise=0.3, seed=seed,
    ))
    return world.sample(scale.photos, 0, rng=np.random.default_rng(seed + 1))


def _run_lifecycle(scale: HarnessScale, seed: int,
                   scenarios: Iterable[str]) -> Dict[str, Dict]:
    """Ingest -> finetune -> relabel on one cluster, timing each stage.

    Earlier stages always run (a fine-tune needs ingested photos) but
    are only *recorded* when requested; later stages nothing records do
    not run.
    """
    wanted = set(scenarios)
    payloads: Dict[str, Dict] = {}
    _warmup(seed)
    cal_s = machine_calibration_s()
    cluster = _build_cluster(scale, seed)
    x, y = _sample_world(scale, seed)
    config = _scale_config(scale, seed)

    # -- ingest: the upload stream, split into timed chunks ---------------
    chunk = max(1, scale.photos // scale.chunks)
    clock = _PairedClock()
    sizes: List[int] = []
    start = wall_clock()
    for lo in range(0, len(x), chunk):
        hi = min(lo + chunk, len(x))
        clock.time(lambda lo=lo, hi=hi: cluster.ingest(
            x[lo:hi], train_labels=y[lo:hi]))
        sizes.append(hi - lo)
    ingest_wall = wall_clock() - start
    per_photo = [s / n for s, n in zip(clock.samples, sizes)]
    ingest_bytes = sum(cluster.traffic_summary().values())
    if "ingest" in wanted:
        payloads["BENCH_ingest"] = bench_payload(
            "BENCH_ingest",
            _scenario_results(
                "ingest", per_photo, clock.cals, "photos/s", 1.0,
                ingest_wall, cal_s, ingest_bytes, len(cluster.database),
                "photos"),
            config=config,
        )

    if not wanted & {"finetune", "relabel"}:
        return payloads

    # -- finetune: repeated FT-DMP rounds on the ingested corpus ----------
    clock = _PairedClock()
    traffic_before = sum(cluster.traffic_summary().values())
    fronts_before = _front_rows_run(cluster)
    images = 0
    start = wall_clock()
    for _ in range(scale.finetune_repeats):
        report = clock.time(lambda: cluster.finetune(epochs=scale.epochs))
        images += report.images_extracted
    finetune_wall = wall_clock() - start
    finetune_bytes = sum(cluster.traffic_summary().values()) - traffic_before
    if "finetune" in wanted:
        payloads["BENCH_finetune"] = bench_payload(
            "BENCH_finetune",
            _scenario_results(
                "finetune", clock.samples, clock.cals, "images/s",
                images / scale.finetune_repeats, finetune_wall, cal_s,
                finetune_bytes, images, "images") + [
                BenchResult("finetune_front_rows",
                            _front_rows_run(cluster) - fronts_before,
                            "rows", direction=EXACT)],
            config=config,
        )

    if "relabel" not in wanted:
        return payloads

    # -- relabel: full offline NPE sweeps over every stored photo ---------
    def sweeps() -> int:
        return sum(cluster.offline_relabel(only_outdated=False)
                   .photos_processed for _ in range(RELABEL_SWEEPS))

    clock = _PairedClock()
    traffic_before = sum(cluster.traffic_summary().values())
    photos = 0
    start = wall_clock()
    for _ in range(scale.relabel_repeats):
        photos += clock.time(sweeps)
    relabel_wall = wall_clock() - start
    relabel_bytes = sum(cluster.traffic_summary().values()) - traffic_before
    payloads["BENCH_relabel"] = bench_payload(
        "BENCH_relabel",
        _scenario_results(
            "relabel", clock.samples, clock.cals, "photos/s",
            photos / scale.relabel_repeats, relabel_wall, cal_s,
            relabel_bytes, photos, "photos"),
        config=config,
    )
    return payloads


def _front_rows_run(cluster: NDPipeCluster) -> int:
    """Frozen-front rows the stores have run: their ``feat/`` misses that
    took no row ingest left (a fine-tune round's only front passes)."""
    metrics = cluster.metrics
    return int(metrics.get("pipestore_feature_misses_total").total()
               - metrics.get("pipestore_feature_rows_reused_total").total())


def _warmup(seed: int) -> None:
    """One tiny untimed lifecycle so BLAS/code caches are hot."""
    scale = HarnessScale("warmup", stores=1, photos=8, image_size=16,
                         chunks=1, epochs=1, finetune_repeats=1,
                         relabel_repeats=1)
    cluster = _build_cluster(scale, seed)
    x, y = _sample_world(scale, seed)
    cluster.ingest(x, train_labels=y)
    cluster.finetune(epochs=1)
    cluster.offline_relabel(only_outdated=False)


def serving_payload(result: Dict) -> Dict:
    """The canonical BENCH_serving payload for one comparison result.

    Shared by the harness and ``benchmarks/bench_serving.py`` so the
    recorded trajectory cannot drift between the two writers.  The
    serving bench runs on a logical clock, so every number here is
    deterministic and the trace always runs at the fixed
    :data:`~repro.serving.bench.BENCH_DEFAULTS` size regardless of the
    harness scale.
    """
    rows: List[BenchResult] = []
    for name in ("adaptive", "baseline"):
        r = result[name]
        rows += [
            BenchResult("serving_throughput_rps", r["throughput_rps"],
                        "requests/s", {"frontend": name}, direction=HIGHER),
            BenchResult("serving_p50_latency_s", r["p50_latency_s"], "s",
                        {"frontend": name}, direction=LOWER),
            BenchResult("serving_p99_latency_s", r["p99_latency_s"], "s",
                        {"frontend": name}, direction=LOWER),
            BenchResult("serving_completed", r["completed"], "requests",
                        {"frontend": name}, direction=HIGHER),
            BenchResult("serving_shed", sum(r["shed"].values()), "requests",
                        {"frontend": name}, direction=LOWER),
            BenchResult("serving_mean_batch", r["mean_batch"], "images",
                        {"frontend": name}),
        ]
    adaptive = result["adaptive"]
    rows += [
        BenchResult("serving_speedup", result["speedup"], "x",
                    direction=HIGHER),
        BenchResult("serving_cache_hits", adaptive["cache_hits"], "lookups",
                    {"frontend": "adaptive"}, direction=HIGHER),
        BenchResult("serving_cache_misses", adaptive["cache_misses"],
                    "lookups", {"frontend": "adaptive"}, direction=LOWER),
    ]
    return bench_payload("BENCH_serving", rows, config={
        **BENCH_DEFAULTS,
        "seed": result["seed"],
        "latency_budget_s": result["latency_budget_s"],
        "model": MODEL,
        "accelerator": ACCELERATOR.name,
        "replicas": result["config"]["replicas"],
        # accounting fix (PR 7): makespan is the last batch's completion
        # time, not its start time — throughput_rps dropped accordingly
        "makespan_accounting": "t_done",
    })


def serving_stream_payload(result: Dict) -> Dict:
    """The canonical BENCH_serving_stream payload for one streaming run.

    Shared by the harness and ``benchmarks/bench_serving_stream.py``.
    The streaming bench runs entirely on the logical clock, so *every*
    number is deterministic: counters gate ``exact`` (including the
    ``queue_full == 0`` protocol guarantee), rates and latencies gate
    directionally.
    """
    s = result["streaming"]
    sync = result["sync"]
    rows: List[BenchResult] = [
        BenchResult("stream_throughput_rps", s["throughput_rps"],
                    "requests/s", direction=HIGHER),
        BenchResult("stream_p50_latency_s", s["p50_latency_s"], "s",
                    direction=LOWER),
        BenchResult("stream_p99_latency_s", s["p99_latency_s"], "s",
                    direction=LOWER),
        BenchResult("stream_p99_credit_wait_s", s["p99_credit_wait_s"], "s",
                    direction=LOWER),
        BenchResult("stream_completed", s["completed"], "requests",
                    direction=EXACT),
        BenchResult("stream_cancelled", s["cancelled"], "requests",
                    direction=EXACT),
        BenchResult("stream_expired", s["expired"], "requests",
                    direction=EXACT),
        # the protocol guarantee the gate pins at zero forever
        BenchResult("stream_queue_full", s["queue_full"], "requests",
                    direction=EXACT),
        BenchResult("stream_out_of_order", s["out_of_order"], "completions",
                    direction=EXACT),
        BenchResult("stream_redispatches", s["redispatches"], "requests",
                    direction=EXACT),
        BenchResult("stream_scale_ups", s["scale_ups"], "events",
                    direction=EXACT),
        BenchResult("stream_scale_downs", s["scale_downs"], "events",
                    direction=EXACT),
        BenchResult("stream_peak_replicas", s["peak_replicas"], "replicas",
                    direction=EXACT),
        BenchResult("stream_mean_batch", s["mean_batch"], "images"),
        # the synchronous PR 5 front end on the same trace: it must shed
        # where the credit window merely delays
        BenchResult("sync_completed", sync["completed"], "requests",
                    direction=EXACT),
        BenchResult("sync_queue_full", sync["shed"]["queue_full"],
                    "requests", direction=EXACT),
        BenchResult("sync_throughput_rps", sync["throughput_rps"],
                    "requests/s"),
    ]
    return bench_payload("BENCH_serving_stream", rows, config={
        **{k: STREAM_BENCH_DEFAULTS[k]
           for k in ("num_requests", "pool_size", "skew", "base_rps",
                     "flash_rps", "flash_start_s", "flash_duration_s")},
        "seed": result["seed"],
        "trace": result["trace"],
        "latency_budget_s": result["latency_budget_s"],
        "model": MODEL,
        "accelerator": ACCELERATOR.name,
        "replicas": result["config"]["replicas"],
        "credits": result["stream_config"]["credits"],
        "min_replicas": result["stream_config"]["min_replicas"],
        "max_replicas": result["stream_config"]["max_replicas"],
    })


def sharding_payload(result: Dict) -> Dict:
    """The canonical BENCH_sharding payload for one sharding-bench run.

    Shared by the harness, ``repro shard-bench``, and
    ``benchmarks/bench_sharding.py``.  Every headline is a deterministic
    integer counter for a given seed, so the gate pins them ``exact``:
    the ring's join/leave movement, the quota ledger's admission split,
    both distribution strategies' Tuner-egress bytes (fan-out strictly
    below unicast at equal freshness), and the migration ledger's
    moved/received/inflight books.  Wall-clock placement throughput is
    recorded but informational.
    """
    placement = result["placement"]
    fanout = result["fanout"]
    migration = result["migration"]
    rows: List[BenchResult] = [
        BenchResult("shard_keys_placed", placement["keys"], "keys",
                    direction=EXACT),
        BenchResult("shard_keys_per_s", placement["keys_per_s"], "keys/s"),
        BenchResult("shard_spread_max_over_mean",
                    placement["spread_max_over_mean"], "x",
                    direction=LOWER),
        BenchResult("shard_join_keys_moved", placement["join"]["moved"],
                    "keys", direction=EXACT),
        BenchResult("shard_join_moved_fraction",
                    placement["join"]["fraction"], "fraction",
                    direction=LOWER),
        BenchResult("shard_leave_keys_moved", placement["leave"]["moved"],
                    "keys", direction=EXACT),
        # movement clean-ness: every re-homed key landed on the newcomer
        BenchResult("shard_join_all_to_new",
                    int(placement["join"]["all_to_new_shard"]), "bool",
                    direction=EXACT),
    ]
    for tenant, a in sorted(placement["admission"].items()):
        rows += [
            BenchResult("tenant_admitted", a["admitted"], "uploads",
                        {"tenant": tenant}, direction=EXACT),
            BenchResult("tenant_rejected", a["rejected"], "uploads",
                        {"tenant": tenant}, direction=EXACT),
        ]
    rows += [
        BenchResult("fanout_tuner_egress_bytes",
                    fanout["fanout"]["tuner_egress_bytes"], "bytes",
                    {"strategy": "fanout"}, direction=EXACT),
        BenchResult("fanout_tuner_egress_bytes",
                    fanout["unicast"]["tuner_egress_bytes"], "bytes",
                    {"strategy": "unicast"}, direction=EXACT),
        BenchResult("fanout_egress_saving_bytes",
                    fanout["egress_saving_bytes"], "bytes",
                    direction=EXACT),
        BenchResult("fanout_freshness_equal",
                    int(fanout["freshness_equal"]), "bool",
                    direction=EXACT),
        BenchResult("fanout_relayed", fanout["fanout"]["relayed"],
                    "sends", direction=EXACT),
        BenchResult("shard_objects_moved",
                    migration["ledger"]["objects_moved"], "objects",
                    direction=EXACT),
        BenchResult("shard_objects_received",
                    migration["ledger"]["objects_received"], "objects",
                    direction=EXACT),
        BenchResult("shard_objects_inflight",
                    migration["ledger"]["objects_inflight"], "objects",
                    direction=EXACT),
        BenchResult("shard_rebalance_bytes",
                    migration["rebalance_bytes"], "bytes",
                    direction=EXACT),
        BenchResult("shard_join_within_bound",
                    int(migration["within_bound"]), "bool",
                    direction=EXACT),
        BenchResult("shard_unrecoverable", migration["unrecoverable"],
                    "photos", direction=EXACT),
    ]
    return bench_payload("BENCH_sharding", rows, config={
        **{k: v for k, v in SHARDING_BENCH_DEFAULTS.items()
           if k != "tenants"},
        "tenants": ",".join(sorted(SHARDING_BENCH_DEFAULTS["tenants"])),
        "seed": result["seed"],
    })


def run_harness(scale: HarnessScale, seed: int = 0,
                scenarios: Optional[Iterable[str]] = None) -> Dict[str, Dict]:
    """Run the requested scenarios; returns ``{bench_name: payload}``."""
    wanted = tuple(scenarios) if scenarios is not None else SCENARIOS
    unknown = sorted(set(wanted) - set(SCENARIOS))
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; pick from {SCENARIOS}")
    payloads: Dict[str, Dict] = {}
    lifecycle = [s for s in wanted
                 if s not in ("serving", "serving_stream", "sharding")]
    if lifecycle:
        payloads.update(_run_lifecycle(scale, seed, lifecycle))
    if "serving" in wanted:
        payloads["BENCH_serving"] = serving_payload(
            run_serving_comparison(seed=seed))
    if "serving_stream" in wanted:
        payloads["BENCH_serving_stream"] = serving_stream_payload(
            run_streaming_bench(seed=seed))
    if "sharding" in wanted:
        payloads["BENCH_sharding"] = sharding_payload(
            run_sharding_bench(seed=seed))
    return payloads


def bless_harness(scale: HarnessScale, seed: int = 0,
                  scenarios: Optional[Iterable[str]] = None,
                  reps: int = 3) -> Dict[str, Dict]:
    """Run the harness ``reps`` times and record per-metric medians.

    A single run's timing sits somewhere inside its noise band; if a
    baseline is blessed at one extreme, a later check at the other
    extreme can exceed the tolerance without any real regression.
    Blessing the *median of several runs* centres the baseline, so a
    check only fails when it drifts more than the tolerance from the
    middle of the distribution.  Deterministic scenarios (serving, and
    every ``exact`` counter) are identical across reps, so the median
    is a no-op for them.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    runs = [run_harness(scale, seed=seed, scenarios=scenarios)
            for _ in range(reps)]
    merged: Dict[str, Dict] = {}
    for bench, payload in runs[0].items():
        entries = []
        for i, entry in enumerate(payload["results"]):
            siblings = [run[bench]["results"][i] for run in runs]
            keys = {(e["metric"], tuple(sorted(e.get("labels", {}).items())))
                    for e in siblings}
            if len(keys) != 1:
                raise RuntimeError(
                    f"harness runs disagree on result order at {bench}[{i}]")
            vals = [e["value"] for e in siblings]
            if all(v == vals[0] for v in vals):  # deterministic: keep type
                entries.append(dict(entry))
            else:
                entries.append({**entry, "value": float(np.median(vals))})
        merged[bench] = {**payload, "results": entries}
    return merged


def write_results(payloads: Dict[str, Dict],
                  directory) -> List[Tuple[str, Path]]:
    """Persist each payload as ``<directory>/<bench>.json``."""
    written = []
    for bench, payload in sorted(payloads.items()):
        results = [
            BenchResult(
                metric=e["metric"], value=e["value"], unit=e["unit"],
                labels=dict(e.get("labels", {})),
                direction=e.get("direction"),
            )
            for e in payload["results"]
        ]
        path = write_bench_json(directory, bench, results,
                                config=payload["config"])
        written.append((bench, path))
    return written
