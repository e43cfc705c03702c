"""NPE — the near-data processing engine inside a PipeStore (§5.4).

* :func:`npe_task_times` — the NPE model the system uses: calibrated
  per-image milliseconds for each PipeStore subtask at every Fig. 12
  optimisation level (Naive -> +Offload -> +Comp -> +Batch).  It drives
  fig12 and fig19 and seeds the serving layer's ``slo_batch_size``.
* :class:`ThreadedPipeline` — a probe-only thread pipeline.  No PipeStore
  runs through it; it exists so the end-to-end benchmark's ``npe.*`` probe
  can measure what overlapping read, decode and infer on worker threads
  buys over running them serially (under the GIL, close to nothing).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Union

from ..lint.guards import guarded_by
from ..models.graph import ModelGraph
from ..obs.tracing import wall_clock
from ..sim.specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    PREPROCESSED_BYTES,
    RAW_IMAGE_BYTES,
    AcceleratorSpec,
    CpuSpec,
    DiskSpec,
    ST1_RAID,
    STORAGE_CPU,
    TESLA_T4,
)

#: NPE optimisation levels, in the order Fig. 12 applies them
ABLATION_LEVELS = ("Naive", "+Offload", "+Comp", "+Batch")


# ---------------------------------------------------------------------------
# The probe's thread pipeline
# ---------------------------------------------------------------------------
_SENTINEL = object()

#: items each inter-stage queue holds before its producer blocks
QUEUE_DEPTH = 8


@dataclass
class StageStats:
    name: str
    items: int = 0
    busy_seconds: float = 0.0


@guarded_by("_stats_lock", "stats")
class ThreadedPipeline:
    """A bounded-queue, one-thread-per-stage pipeline over real callables.

    ``stages`` is a sequence of ``(name, fn)`` pairs, each ``fn`` mapping
    item -> item.  Items flow in submission order and output order is
    preserved.  ``stats`` holds each stage's items and busy seconds for
    the latest ``run()`` only.

    A stage exception aborts the whole run: the feeder stops submitting,
    every stage drains its input until the sentinel arrives (so no thread
    ever blocks on a full queue), all threads are joined, and the first
    error is re-raised to the caller.
    """

    def __init__(self, stages: Sequence):
        if not stages:
            raise ValueError("need at least one stage")
        self._stages: List = list(stages)
        self._stats_lock = threading.Lock()
        self.stats = [StageStats(name) for name, _ in self._stages]

    def run(self, items: Iterable) -> List:
        """Push every item through all stages; returns outputs in order."""
        with self._stats_lock:
            self.stats = [StageStats(name) for name, _ in self._stages]
        queues = [queue.Queue(maxsize=QUEUE_DEPTH)
                  for _ in range(len(self._stages) + 1)]
        results: List = []
        errors: List[BaseException] = []
        abort = threading.Event()

        def worker(index: int, fn: Callable):
            with self._stats_lock:
                stats = self.stats[index]
            while True:
                item = queues[index].get()
                if item is _SENTINEL:
                    queues[index + 1].put(_SENTINEL)
                    return
                if abort.is_set():
                    # drain mode: keep consuming so upstream stages and
                    # the feeder never block on a full queue
                    continue
                try:
                    start = wall_clock()
                    out = fn(item)
                    stats.busy_seconds += wall_clock() - start
                    stats.items += 1
                except BaseException as exc:  # propagate to the caller
                    errors.append(exc)
                    abort.set()
                    continue
                queues[index + 1].put(out)

        threads = [
            threading.Thread(target=worker, args=(i, fn), daemon=True)
            for i, (_, fn) in enumerate(self._stages)
        ]
        for thread in threads:
            thread.start()
        feeder_error: List[BaseException] = []

        def feeder():
            try:
                for item in items:
                    if abort.is_set():
                        return
                    queues[0].put(item)
            except BaseException as exc:
                feeder_error.append(exc)
                abort.set()
            finally:
                queues[0].put(_SENTINEL)

        feed_thread = threading.Thread(target=feeder, daemon=True)
        feed_thread.start()
        while True:
            out = queues[-1].get()
            if out is _SENTINEL:
                break
            results.append(out)
        feed_thread.join()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        if feeder_error:
            raise feeder_error[0]
        return results


# ---------------------------------------------------------------------------
# The Fig. 12 ablation cost model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NpeConfig:
    """What the optimisation level changes about PipeStore execution."""

    level: str
    #: inference reads: raw JPEG (Naive) vs preprocessed binary (+Offload)
    #: vs compressed binary (+Comp)
    read_bytes_inference: int
    read_bytes_finetune: int
    preprocess_on_store: bool
    decompress: bool
    batch_size: int
    decompress_cores: int = 2


def _level_config(level: str) -> NpeConfig:
    if level == "Naive":
        return NpeConfig(level, RAW_IMAGE_BYTES, PREPROCESSED_BYTES,
                         preprocess_on_store=True, decompress=False,
                         batch_size=1, decompress_cores=1)
    if level == "+Offload":
        return NpeConfig(level, PREPROCESSED_BYTES, PREPROCESSED_BYTES,
                         preprocess_on_store=False, decompress=False,
                         batch_size=1, decompress_cores=1)
    if level == "+Comp":
        return NpeConfig(level, COMPRESSED_PREPROCESSED_BYTES,
                         COMPRESSED_PREPROCESSED_BYTES,
                         preprocess_on_store=False, decompress=True,
                         batch_size=1, decompress_cores=2)
    if level == "+Batch":
        return NpeConfig(level, COMPRESSED_PREPROCESSED_BYTES,
                         COMPRESSED_PREPROCESSED_BYTES,
                         preprocess_on_store=False, decompress=True,
                         batch_size=128, decompress_cores=2)
    raise ValueError(f"unknown NPE level {level!r}; use one of {ABLATION_LEVELS}")


def npe_task_times(graph: ModelGraph, level: Union[str, NpeConfig],
                   task: str = "inference",
                   accelerator: AcceleratorSpec = TESLA_T4,
                   cpu: CpuSpec = STORAGE_CPU,
                   disk: DiskSpec = ST1_RAID,
                   preprocess_cores: int = 1) -> Dict[str, float]:
    """Per-image milliseconds of each PipeStore subtask at one NPE level.

    ``task`` is ``"inference"`` (Read / Preproc / Decomp / FE&Cl) or
    ``"finetune"`` (Read / Decomp / FE).  This regenerates Fig. 12.
    ``level`` is an ablation-level name or a custom :class:`NpeConfig`.
    """
    if task not in ("inference", "finetune"):
        raise ValueError("task must be 'inference' or 'finetune'")
    cfg = level if isinstance(level, NpeConfig) else _level_config(level)
    times: Dict[str, float] = {}

    read_bytes = (cfg.read_bytes_inference if task == "inference"
                  else cfg.read_bytes_finetune)
    times["Read"] = 1e3 * read_bytes / (disk.read_mbps * 1e6)

    if task == "inference":
        if cfg.preprocess_on_store:
            rate = cpu.preprocess_ips(preprocess_cores)
            times["Preproc"] = 1e3 / rate
        else:
            times["Preproc"] = 0.0

    if cfg.decompress:
        rate = cpu.decompress_ips(cfg.decompress_cores, read_bytes)
        times["Decomp"] = 1e3 / rate
    else:
        times["Decomp"] = 0.0

    if task == "inference":
        ips = accelerator.inference_ips(graph, cfg.batch_size)
        times["FE&Cl"] = 1e3 / ips
    else:
        # fine-tuning trains at 4x the inference batch (§6.1)
        batch = cfg.batch_size * 4 if cfg.batch_size > 1 else 1
        ips = accelerator.fe_ips(graph, graph.num_partition_points() - 2,
                                 batch, training=True)
        times["FE"] = 1e3 / ips
    return times


def npe_ablation(graph: ModelGraph, task: str = "inference",
                 accelerator: AcceleratorSpec = TESLA_T4,
                 ) -> Dict[str, Dict[str, float]]:
    """All four optimisation levels (the full Fig. 12 panel)."""
    return {
        level: npe_task_times(graph, level, task, accelerator)
        for level in ABLATION_LEVELS
    }


def npe_pipeline_stage_times(times: Dict[str, float]) -> Dict[str, float]:
    """Fold subtask times into the 3 physical pipeline stages.

    The pipeline has exactly three stages — disk read, CPU work, and the
    accelerator — and Preproc and Decomp both run on the *same* CPU
    stage, so their times add rather than pipeline against each other.
    """
    return {
        "read": times.get("Read", 0.0),
        "cpu": times.get("Preproc", 0.0) + times.get("Decomp", 0.0),
        "accelerator": times.get("FE&Cl", times.get("FE", 0.0)),
    }


def npe_throughput_ips(graph: ModelGraph, level: Union[str, NpeConfig],
                       task: str = "inference",
                       accelerator: AcceleratorSpec = TESLA_T4,
                       ) -> float:
    """Steady-state PipeStore throughput: 3-stage pipelined bottleneck.

    The bottleneck is ``max(Read, Preproc + Decomp, FE)`` — *not* the max
    over subtasks, because preprocessing and decompression share the CPU
    stage (a config enabling both is slower than either alone).
    """
    times = npe_task_times(graph, level, task, accelerator)
    slowest_ms = max(npe_pipeline_stage_times(times).values())
    if slowest_ms <= 0:
        return float("inf")
    return 1e3 / slowest_ms
