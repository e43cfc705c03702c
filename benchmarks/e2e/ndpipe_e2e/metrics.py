"""Metric vocabulary of the end-to-end benchmark.

Two tables, one source of truth each:

* :data:`DETAIL_METRICS` — every end-to-end number the runner measures,
  under the names later issues refer to, each with the workloads it is
  defined on and its own regression bound (``exact`` = the value must
  repeat bit for bit under an equal seed).  ``--repeat N --agree`` gates
  on this table.
* :data:`CONTRACT_METRICS` — the dense projection ``BENCHMARK.json``
  lists under ``end_to_end``.  The driver wants every metric on every
  workload, so each contract metric names, per workload, the detail
  metric that fills it (``front_door_per_s`` is ``ingest_photos_per_s``
  on ``lifecycle_fleet`` and ``serve_host_rps`` on the serving
  workloads, and so on).  Bounds here are relative and also have to
  cover seed-to-seed variation, because the driver varies the seed.

Every host-time metric (rates, ``*_s``, ``upload_chunk_tail_ms``) is in
*calibrated* seconds — see ``calibrate.py`` — and still bounded at 25 %,
not the 10 % one would like: on the authoring box (2 shared vCPUs) ten
quiet runs of unchanged code spread 3-6 % between their quartiles, and a
bound has to sit at about three times the spread to not raise false
alarms.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "CONTRACT_METRICS", "DETAIL_METRICS", "WORKLOADS", "ContractMetric",
    "DetailMetric", "Measured", "exact_percentile", "median_rate",
    "supported_tail",
]

LIFECYCLE = "lifecycle_fleet"
FLEET_WRITE = "fleet_write"
LADDER = "serve_upload_ladder"
FLASH = "serve_stream_flash"

#: workload name -> the one-line reason it is in the benchmark
WORKLOADS: Dict[str, str] = {
    LIFECYCLE: "the paper's main loop on 16 stores: batched ingest, FT-DMP "
               "rounds, full relabel sweeps; nn-bound, reads and writes "
               "the object store",
    FLEET_WRITE: "same storage layers used the other way: replicated "
                 "batch-1 tenant uploads on a 16-shard ring, rebalance, "
                 "recovery, checkpoint/restore; codec- and placement-bound",
    LADDER: "the real upload path (admission, cache misses, SLO batcher, "
            "dispatcher, landing into storage) at four Poisson rates that "
            "bracket capacity, on the logical clock",
    FLASH: "same serving layers used differently: Zipf cache hits, credit "
           "window, autoscaling, out-of-order completion under a flash "
           "crowd; storage untouched",
}

STORAGE = (LIFECYCLE, FLEET_WRITE)
SERVING = (LADDER, FLASH)
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class DetailMetric:
    name: str
    unit: str
    better: str
    #: ``"rel"`` (share of the first set's median), ``"abs"`` or ``"exact"``
    kind: str
    bound: float
    workloads: Tuple[str, ...]
    definition: str


DETAIL_METRICS: List[DetailMetric] = [
    DetailMetric("setup_s", "s", "lower", "rel", 0.50, ALL,
                 "cluster/fleet construction + input generation + one "
                 "untimed warm-up slice; median of the set-ups in a run"),
    DetailMetric("ingest_photos_per_s", "photos/s", "higher", "rel", 0.25,
                 (LIFECYCLE,), "median chunk rate of cluster.ingest"),
    DetailMetric("finetune_images_per_s", "images/s", "higher", "rel", 0.25,
                 (LIFECYCLE,), "median over rounds of images_extracted / "
                 "round wall, delta distribution included"),
    DetailMetric("relabel_photos_per_s", "photos/s", "higher", "rel", 0.25,
                 (LIFECYCLE,), "median over full offline_relabel sweeps"),
    DetailMetric("accuracy_after_finetune", "fraction", "higher", "abs", 0.01,
                 (LIFECYCLE,), "top-1 of cluster.evaluate on a held-out "
                 "sample drawn by the runner"),
    DetailMetric("net_bytes_per_photo", "bytes", "lower", "exact", 0.0, ALL,
                 "sum of fabric bytes over all traffic kinds / photos "
                 "(requests on serve_stream_flash)"),
    DetailMetric("write_photos_per_s", "photos/s", "higher", "rel", 0.25,
                 (FLEET_WRITE,), "median chunk rate of fleet.ingest over "
                 "admitted photos"),
    DetailMetric("durable_mb_per_s", "MB/s", "higher", "rel", 0.25,
                 (FLEET_WRITE,), "checkpoint bytes x2 / (checkpoint() + "
                 "restore() wall)"),
    DetailMetric("stored_bytes_per_user_byte", "ratio", "lower", "exact", 0.0,
                 (FLEET_WRITE,), "bytes held by all object stores / raw "
                 "pixel bytes admitted"),
    DetailMetric("durable_frac", "fraction", "higher", "exact", 0.0,
                 (FLEET_WRITE,), "photos readable with a valid CRC from "
                 "the restored fleet / photos offered (quota rejections "
                 "are the expected difference)"),
    DetailMetric("upload_chunk_tail_ms", "ms", "lower", "rel", 0.25, STORAGE,
                 "host latency of one full upload chunk at the highest "
                 "percentile with ten chunks beyond it"),
    DetailMetric("serve_max_rate_rps", "rps", "higher", "exact", 0.0,
                 (LADDER,), "highest ladder rung at which >= 99 % of "
                 "offered requests complete within effective_deadline_s"),
    DetailMetric("serve_sim_p99_ms", "ms", "lower", "exact", 0.0, SERVING,
                 "p99 latency on the logical clock over all requests of "
                 "the reference / flash traces"),
    DetailMetric("serve_goodput_frac", "fraction", "higher", "exact", 0.0,
                 SERVING, "completed within deadline / offered; shed, "
                 "expired and failed dispatches count as misses"),
    DetailMetric("serve_host_rps", "requests/s", "higher", "rel", 0.25,
                 SERVING, "median over traces of offered requests / host "
                 "wall of the serve (+ landing) call"),
    DetailMetric("measured_wall_s", "s", "lower", "rel", 0.25, ALL,
                 "calibrated host seconds summed over every operation of the "
                 "measured section (fixed work); raw seconds printed beside"),
    DetailMetric("peak_rss_mb", "MB", "lower", "rel", 0.15, ALL,
                 "ru_maxrss, one fresh process per workload"),
]


@dataclass(frozen=True)
class ContractMetric:
    name: str
    unit: str
    better: str
    bound: float
    #: workload -> name of the detail metric that fills this one there
    source: Dict[str, str]


def _same(name: str) -> Dict[str, str]:
    return {workload: name for workload in ALL}


CONTRACT_METRICS: List[ContractMetric] = [
    ContractMetric("front_door_per_s", "1/s", "higher", 0.25, {
        LIFECYCLE: "ingest_photos_per_s", FLEET_WRITE: "write_photos_per_s",
        LADDER: "serve_host_rps", FLASH: "serve_host_rps"}),
    ContractMetric("measured_wall_s", "s", "lower", 0.25,
                   _same("measured_wall_s")),
    ContractMetric("tail_latency_ms", "ms", "lower", 0.25, {
        LIFECYCLE: "upload_chunk_tail_ms", FLEET_WRITE: "upload_chunk_tail_ms",
        LADDER: "serve_sim_p99_ms", FLASH: "serve_sim_p99_ms"}),
    ContractMetric("good_frac", "fraction", "higher", 0.15, {
        LIFECYCLE: "accuracy_after_finetune", FLEET_WRITE: "durable_frac",
        LADDER: "serve_goodput_frac", FLASH: "serve_goodput_frac"}),
    ContractMetric("net_bytes_per_photo", "bytes", "lower", 0.02,
                   _same("net_bytes_per_photo")),
    ContractMetric("peak_rss_mb", "MB", "lower", 0.15, _same("peak_rss_mb")),
    ContractMetric("setup_s", "s", "lower", 0.25, _same("setup_s")),
]


@dataclass(frozen=True)
class Measured:
    """One measured value and how many samples stand behind it."""

    value: float
    samples: int = 1
    note: str = ""


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Order-statistic percentile (no interpolation), so a logical-clock
    tail is deterministic for a deterministic trace."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def supported_tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) at the highest rank that still has ten samples
    beyond it; never below the median, which is all a short run supports."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(math.ceil(n / 2), n - 10)
    return 100.0 * rank / n, ordered[rank - 1]


def median_rate(work: Sequence[float], seconds: Sequence[float]) -> float:
    """Median of per-chunk rates: one scheduler stall moves one sample,
    not the result (total work / total wall would absorb it)."""
    return statistics.median(w / s for w, s in zip(work, seconds))
