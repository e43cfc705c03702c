"""Micro-probes for layers the workloads cannot isolate from outside.

They run in the traced invocation only, after the seams are restored, so
neither the end-to-end numbers nor the span arithmetic see them.  Each
probe answers one question a later issue will ask:

* ``nn.fwd_*`` — what a forward pass costs at batch 1 (what
  ``serve_stream_flash`` pays per request) against batch 32;
* ``npe.*`` — what overlapping read / inflate+decode / infer in a
  ``ThreadedPipeline`` buys over running the same three calls serially,
  i.e. what a GIL-free PipeStore backend could give relabel;
* ``ring.placements_per_s`` — raw consistent-hash placement speed;
* ``obs.*`` — per-call cost of the program's own instrumentation.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

import numpy as np

from repro import ClusterConfig, MetricsRegistry, NDPipeCluster, Tracer
from repro.core import ThreadedPipeline
from repro.models.registry import tiny_model
from repro.nn import Tensor, inference_mode
from repro.placement import ConsistentHashRing
from repro.storage.compression import inflate
from repro.storage.imageformat import decode_preprocessed

__all__ = ["run_probes"]

_clock = time.perf_counter


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        begin = _clock()
        fn()
        samples.append(_clock() - begin)
    return statistics.median(samples)


def _nn_probe(repeats: int) -> Dict[str, float]:
    model = tiny_model("ResNet50")
    model.eval()
    rng = np.random.default_rng(0)
    one = Tensor(rng.random((1,) + model.input_shape, dtype=np.float32))
    many = Tensor(rng.random((32,) + model.input_shape, dtype=np.float32))
    with inference_mode():
        model(one)  # warm
        b1 = _median_seconds(lambda: model(one), repeats)
        b32 = _median_seconds(lambda: model(many), max(3, repeats // 4))
    return {"nn.fwd_b1_ms": 1e3 * b1, "nn.fwd_b32_us_per_img": 1e6 * b32 / 32}


def _npe_probe(photos: int) -> Dict[str, float]:
    """One store's photos through read -> inflate+decode -> infer."""
    batch = 32
    cluster = NDPipeCluster(lambda: tiny_model("ResNet50"),
                            ClusterConfig(num_stores=1))
    rng = np.random.default_rng(0)
    ids = cluster.ingest(rng.random((photos, 3, 16, 16), dtype=np.float32))
    store = cluster.stores[0]
    items = [ids[i:i + batch] for i in range(0, len(ids), batch)]

    def read(chunk: List[str]):
        return [store.objects.get(store.objects.preproc_key(pid))
                for pid in chunk]

    def decode(blobs):
        return np.stack([decode_preprocessed(inflate(b)) for b in blobs])

    def infer(array):
        with inference_mode():
            return store.model(Tensor(array)).data.argmax(axis=1)

    begin = _clock()
    for chunk in items:
        infer(decode(read(chunk)))
    serial_s = _clock() - begin
    pipeline = ThreadedPipeline(
        [("read", read), ("decode", decode), ("infer", infer)])
    begin = _clock()
    pipeline.run(items)
    pipeline_s = _clock() - begin
    out = {"npe.serial_photos_per_s": photos / serial_s,
           "npe.pipeline_photos_per_s": photos / pipeline_s,
           "npe.overlap_gain": serial_s / pipeline_s}
    for stage in pipeline.stats:
        out[f"npe.stage_{stage.name}_busy_share"] = (
            stage.busy_seconds / pipeline_s)
    return out


def _ring_probe(keys: int) -> Dict[str, float]:
    ring = ConsistentHashRing(
        vnodes=64, shards=[f"pipestore-{i}" for i in range(16)])
    names = [f"acme/photo-{i:08d}" for i in range(keys)]
    begin = _clock()
    for name in names:
        ring.primary(name)
    return {"ring.placements_per_s": keys / (_clock() - begin)}


def _obs_probe(calls: int) -> Dict[str, float]:
    registry = MetricsRegistry()
    counter = registry.counter("probe_total", "probe")
    histogram = registry.histogram("probe_seconds", "probe")
    tracer = Tracer(max_spans=calls)

    def spans():
        for _ in range(calls):
            with tracer.span("probe"):
                pass

    def per_call_ns(fn: Callable[[], None]) -> float:
        begin = _clock()
        fn()
        return 1e9 * (_clock() - begin) / calls

    return {
        "obs.counter_inc_ns": per_call_ns(
            lambda: [counter.inc() for _ in range(calls)]),
        "obs.histogram_observe_ns": per_call_ns(
            lambda: [histogram.observe(0.01) for _ in range(calls)]),
        "obs.span_ns": per_call_ns(spans),
    }


def run_probes(scale: float) -> Dict[str, float]:
    """Every probe metric by name; sizes shrink with ``scale`` for smoke."""
    size = min(1.0, scale)
    out: Dict[str, float] = {}
    out.update(_nn_probe(repeats=max(8, round(60 * size))))
    out.update(_npe_probe(photos=32 * max(2, round(16 * size))))
    out.update(_ring_probe(keys=max(2_000, round(200_000 * size))))
    out.update(_obs_probe(calls=max(2_000, round(100_000 * size))))
    return out
