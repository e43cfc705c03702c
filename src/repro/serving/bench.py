"""Shared serving benchmark: adaptive micro-batching vs batch=1 baseline.

One traffic trace, two front ends under the same p99 latency budget:

* **adaptive** — the full serving layer (NPE-seeded batch controller,
  feature-row cache, replica dispatch);
* **baseline** — the same machinery pinned to synchronous batch=1, i.e.
  the pre-serving ``InferenceServer.classify`` path with admission
  control bolted on so shedding (and therefore the latency budget) is
  identical.

Both ``repro serve-bench`` and ``benchmarks/bench_serving.py`` run this,
so the CLI smoke number and the recorded BENCH_serving.json trajectory
can never drift apart.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..core.cluster import InferenceServer
from ..models.registry import tiny_model
from ..workloads.continuous import (
    diurnal_requests,
    flash_crowd_requests,
    open_loop_requests,
)
from .config import ServingConfig, StreamConfig
from .dispatcher import MODEL
from .frontend import ServingFrontend
from .stream import StreamingFrontend

__all__ = ["run_serving_comparison", "run_streaming_bench",
           "BENCH_DEFAULTS", "STREAM_BENCH_DEFAULTS"]

#: the trace the recorded BENCH_serving.json numbers come from
BENCH_DEFAULTS = {
    "num_requests": 3000,
    "rate_rps": 1500.0,
    "pool_size": 64,
    "skew": 1.1,
}

#: the flash-crowd trace the recorded BENCH_serving_stream.json numbers
#: come from: steady base load with a burst the static PR 5 queue sheds
STREAM_BENCH_DEFAULTS = {
    "num_requests": 3000,
    "pool_size": 64,
    "skew": 1.1,
    "base_rps": 600.0,
    "flash_rps": 6000.0,
    "flash_start_s": 1.0,
    "flash_duration_s": 0.5,
    "peak_rps": 3000.0,
    "period_s": 4.0,
}


def _build_frontend(config: ServingConfig, seed: int) -> ServingFrontend:
    replicas = [
        InferenceServer(tiny_model(MODEL, seed=seed + i),
                        name=f"serve-replica-{i}")
        for i in range(config.replicas)
    ]
    return ServingFrontend(replicas, config)


def run_serving_comparison(seed: int = 0,
                           num_requests: int = BENCH_DEFAULTS["num_requests"],
                           rate_rps: float = BENCH_DEFAULTS["rate_rps"],
                           pool_size: int = BENCH_DEFAULTS["pool_size"],
                           skew: float = BENCH_DEFAULTS["skew"],
                           config: Optional[ServingConfig] = None) -> Dict:
    """Serve one Poisson trace adaptively and synchronously; compare.

    Returns a plain dict (JSON-ready): both reports, the offered load,
    and the throughput speedup at the shared latency budget.
    """
    adaptive_config = (config if config is not None
                       else ServingConfig()).validated()
    baseline_config = replace(adaptive_config, min_batch=1, max_batch=1,
                              initial_batch=1)
    requests = open_loop_requests(num_requests=num_requests,
                                  rate_rps=rate_rps, seed=seed,
                                  pool_size=pool_size, skew=skew)
    adaptive = _build_frontend(adaptive_config, seed).serve(requests)
    baseline = _build_frontend(baseline_config, seed).serve(requests)
    speedup = (adaptive.throughput_rps / baseline.throughput_rps
               if baseline.throughput_rps > 0 else float("inf"))
    return {
        "seed": seed,
        "offered_rps": rate_rps,
        "num_requests": num_requests,
        "pool_size": pool_size,
        "skew": skew,
        "latency_budget_s": adaptive_config.effective_deadline_s,
        "config": adaptive_config.to_dict(),
        "adaptive": adaptive.to_dict(),
        "baseline": baseline.to_dict(),
        "speedup": speedup,
    }


def _stream_trace(trace: str, seed: int, num_requests: int, pool_size: int,
                  skew: float):
    d = STREAM_BENCH_DEFAULTS
    if trace == "flash":
        return flash_crowd_requests(
            num_requests=num_requests, base_rps=d["base_rps"],
            flash_rps=d["flash_rps"], flash_start_s=d["flash_start_s"],
            flash_duration_s=d["flash_duration_s"], seed=seed,
            pool_size=pool_size, skew=skew)
    if trace == "diurnal":
        return diurnal_requests(
            num_requests=num_requests, base_rps=d["base_rps"],
            peak_rps=d["peak_rps"], period_s=d["period_s"], seed=seed,
            pool_size=pool_size, skew=skew)
    if trace == "poisson":
        return open_loop_requests(
            num_requests=num_requests, rate_rps=d["base_rps"], seed=seed,
            pool_size=pool_size, skew=skew)
    raise ValueError(f"unknown trace {trace!r}; "
                     f"expected flash, diurnal, or poisson")


def run_streaming_bench(seed: int = 0, trace: str = "flash",
                        num_requests: int =
                        STREAM_BENCH_DEFAULTS["num_requests"],
                        pool_size: int = STREAM_BENCH_DEFAULTS["pool_size"],
                        skew: float = STREAM_BENCH_DEFAULTS["skew"],
                        config: Optional[ServingConfig] = None,
                        stream: Optional[StreamConfig] = None) -> Dict:
    """The one serving loop's two protocols on one trace.

    The same offered load plays through both: the streaming credit-window
    protocol (with autoscaling) and the bounded-queue protocol of
    :class:`ServingFrontend` (the ``sync`` side, in-order delivery at
    dispatch) at a static replica count.  The headline comparison is the shedding
    behaviour — the streaming side must show zero ``queue_full`` while
    the synchronous side drops — plus the out-of-order completion count
    that only the streaming protocol can exhibit.
    """
    # one replica to start, a 1 s client deadline (the SLO still steers
    # batching at 100 ms): the flash then *delays* the streaming side
    # while it scales out, and drowns the synchronous bounded queue
    serving_config = (config if config is not None
                      else ServingConfig(replicas=1,
                                         deadline_s=1.0)).validated()
    stream_config = (stream if stream is not None
                     else StreamConfig(min_replicas=1,
                                       max_replicas=6)).validated()
    requests = _stream_trace(trace, seed, num_requests, pool_size, skew)

    def factory(index: int):
        return InferenceServer(
            tiny_model(MODEL, seed=seed + index),
            name=f"stream-replica-{index}")

    streaming = StreamingFrontend(factory, serving_config,
                                  stream_config).serve(requests)
    sync = _build_frontend(serving_config, seed).serve(requests)
    return {
        "seed": seed,
        "trace": trace,
        "num_requests": num_requests,
        "pool_size": pool_size,
        "skew": skew,
        "latency_budget_s": serving_config.effective_deadline_s,
        "config": serving_config.to_dict(),
        "stream_config": stream_config.to_dict(),
        "streaming": streaming.to_dict(),
        "sync": sync.to_dict(),
    }
