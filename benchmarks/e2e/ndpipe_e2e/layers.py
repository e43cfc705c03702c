"""The program's layers: which public seams the traced run wraps, which
per-layer metrics come out, and which end-to-end metric each should move.

Layers are this repo's modules.  Every non-probe layer ``L`` emits
``L.calls`` (exact), ``L.self_s`` (span time minus child spans) and
``L.share`` (self / traced wall); the extra names per layer are listed in
:data:`EXTRAS`.  Probe-only layers (``core.npe``, ``obs``, ``bench``)
emit only their listed names.  Every name is printed for every workload;
a layer a workload does not touch reads 0 — that *is* the measurement
(``storage.objectstore.calls == 0`` on ``serve_stream_flash``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spans import Analysis, Seam, SpanRecorder

__all__ = ["EXTRAS", "INTERACTION_RULES", "LAYERS", "SEAMS",
           "layer_metrics", "per_layer_specs"]


# -- seam observers: counts taken where the work happens ---------------------
def _images(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counts["nn.images"] += args[1].shape[0]


def _codec_bytes(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counts["storage.compression.bytes_in"] += len(args[0])
    rec.counts["storage.compression.bytes_out"] += len(result)


def _replicas(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counts["core.dataplane.replicas_placed"] += len(result)


def _dispatcher(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.seen["dispatcher"][id(args[0])] = args[0]


def _seams(layer: str, module: str, *qualnames: str, observe=None) -> List[Seam]:
    return [Seam(layer, module, q, observe) for q in qualnames]


SEAMS: List[Seam] = [
    *_seams("nn", "repro.models.split", "SplitModel.forward",
            "SplitModel.forward_until", "SplitModel.forward_from",
            observe=_images),
    *_seams("storage.compression", "repro.storage.compression",
            "deflate", "inflate", observe=_codec_bytes),
    *_seams("storage.imageformat", "repro.storage.imageformat",
            "encode_photo", "encode_preprocessed", "decode_preprocessed",
            "decode_preprocessed_into", "preprocess"),
    *_seams("storage.objectstore", "repro.storage.objectstore",
            "ObjectStore.put", "ObjectStore.get", "ObjectStore.verify"),
    *_seams("storage.photodb", "repro.storage.photodb",
            "PhotoDatabase.upsert", "PhotoDatabase.lookup",
            "PhotoDatabase.outdated_ids"),
    *_seams("core.fabric", "repro.core.fabric", "NetworkFabric.send"),
    *_seams("core.pipestore", "repro.core.pipestore", "PipeStore.store_photo",
            "PipeStore.extract_features", "PipeStore.offline_infer",
            "PipeStore.apply_model_delta"),
    *_seams("core.dataplane", "repro.core.dataplane",
            "IngestDataPlane.land_upload", "IngestDataPlane.place_photo",
            "InferenceServer.classify",
            "InferenceServer.classify_preprocessed"),
    *_seams("core.dataplane", "repro.core.dataplane",
            "IngestDataPlane.place_replicas", observe=_replicas),
    *_seams("core.tuner", "repro.core.tuner", "Tuner.finetune",
            "Tuner.distribute_update"),
    *_seams("core.checknrun", "repro.core.checknrun", "encode_delta",
            "apply_delta"),
    *_seams("core.controlplane", "repro.core.controlplane",
            "RecoveryControlPlane.journal_put",
            "RecoveryControlPlane.reingest_orphans",
            "RecoveryControlPlane.recover",
            "RecoveryControlPlane.scrub_and_repair"),
    *_seams("placement.ring", "repro.placement.ring",
            "ConsistentHashRing.pick", "ConsistentHashRing.replica_set"),
    *_seams("placement.tenants", "repro.placement.tenants",
            "TenantRegistry.admit"),
    *_seams("placement.rebalance", "repro.placement.rebalance",
            "ShardRebalancer.rebalance"),
    *_seams("placement.fanout", "repro.placement.fleet",
            "ShardedCluster.distribute"),
    *_seams("durability.checkpoint", "repro.core.cluster",
            "NDPipeCluster.checkpoint", "NDPipeCluster.restore"),
    *_seams("serving.admission", "repro.serving.admission",
            "AdmissionQueue.offer", "AdmissionQueue.take"),
    *_seams("serving.cache", "repro.serving.cache", "TensorCache.lookup",
            "TensorCache.insert"),
    *_seams("serving.batcher", "repro.serving.batcher",
            "SloController.observe"),
    *_seams("serving.dispatcher", "repro.serving.dispatcher",
            "ReplicaDispatcher.dispatch", observe=_dispatcher),
    *_seams("serving.loop", "repro.serving.frontend", "ServingFrontend.serve"),
    *_seams("serving.loop", "repro.serving.stream", "StreamingFrontend.serve"),
]

#: span-derived layers, in print order
LAYERS: List[str] = list(dict.fromkeys(seam.layer for seam in SEAMS))

#: extra metric names per layer: (suffix-or-full-name, unit, better).  A
#: leading "." abbreviates the layer name.
EXTRAS: Dict[str, List[Tuple[str, str, str]]] = {
    "nn": [(".images_per_call", "images", "higher"),
           (".fwd_b1_ms", "ms", "lower"),
           (".fwd_b32_us_per_img", "us", "lower")],
    "storage.compression": [(".bytes_in", "bytes", "lower"),
                            (".bytes_out", "bytes", "lower")],
    "storage.objectstore": [(".puts_per_photo", "count", "lower"),
                            (".gets_per_photo", "count", "lower"),
                            (".stored_bytes_per_user_byte", "ratio", "lower")],
    "core.fabric": [(f".bytes_{kind}", "bytes", "lower") for kind in (
        "ingest", "replicate", "features", "model-delta", "model-full",
        "labels")],
    "core.dataplane": [(".replicas_placed", "count", "higher")],
    "core.tuner": [(".distribute_s", "s", "lower"),
                   (".stores_updated", "count", "higher")],
    "core.checknrun": [(".delta_bytes", "bytes", "lower"),
                       (".reduction_factor", "ratio", "higher")],
    "core.controlplane": [(".recover_s", "s", "lower"),
                          (".scrub_objects_per_s", "1/s", "higher"),
                          (".orphans_reingested", "count", "lower")],
    "core.npe": [("npe.pipeline_photos_per_s", "1/s", "higher"),
                 ("npe.serial_photos_per_s", "1/s", "higher"),
                 ("npe.overlap_gain", "ratio", "higher"),
                 ("npe.stage_read_busy_share", "fraction", "lower"),
                 ("npe.stage_decode_busy_share", "fraction", "lower"),
                 ("npe.stage_infer_busy_share", "fraction", "lower")],
    "placement.ring": [(".load_skips", "count", "lower"),
                       ("ring.placements_per_s", "1/s", "higher")],
    "placement.tenants": [(".admitted", "count", "higher"),
                          (".rejected", "count", "lower")],
    "placement.rebalance": [(".objects_moved", "count", "lower"),
                            (".moved_frac", "fraction", "lower"),
                            (".inflight", "count", "lower"),
                            (".objects_per_s", "1/s", "higher")],
    "placement.fanout": [(".tuner_egress_bytes", "bytes", "lower")],
    "durability.checkpoint": [(".bytes", "bytes", "lower"),
                              (".bytes_per_photo", "bytes", "lower")],
    "serving.admission": [(".offered", "count", "higher"),
                          (".shed_queue_full", "count", "lower"),
                          (".shed_deadline", "count", "lower"),
                          (".max_rate_rps", "rps", "higher")],
    "serving.cache": [(".hits", "count", "higher"),
                      (".misses", "count", "lower"),
                      (".evictions", "count", "lower")],
    "serving.batcher": [(".mean_batch", "requests", "higher"),
                        (".final_batch_target", "requests", "higher")],
    "serving.dispatcher": [(".replica_busy_s", "s", "lower"),
                           (".replica_stalled_s", "s", "lower"),
                           (".redispatches", "count", "lower")],
    "serving.loop": [(".us_per_request", "us", "lower"),
                     (".scale_ups", "count", "lower"),
                     (".scale_downs", "count", "lower"),
                     (".out_of_order", "count", "lower"),
                     (".p99_credit_wait_ms", "ms", "lower")],
    "obs": [("obs.counter_inc_ns", "ns", "lower"),
            ("obs.histogram_observe_ns", "ns", "lower"),
            ("obs.span_ns", "ns", "lower")],
    "bench": [("bench.trace_overhead_frac", "fraction", "lower"),
              ("bench.unattributed_share", "fraction", "lower"),
              ("bench.missing_seams", "count", "lower")],
}

#: printed beside the per-layer numbers: how to read them together
INTERACTION_RULES = (
    "with one caller and nothing contending, a faster layer saves at most "
    "its share of the chunk it sits in: nn.share on relabel is the ceiling "
    "for any autograd change, storage.compression.share on fleet_write "
    "ingest the ceiling for encode-once",
    "exact logical-clock metrics move only when batching/dispatch policy "
    "changes and must stay bit-identical under refactors",
    "serve_host_rps moves with host cost per request and must not be "
    "traded against serve_sim_p99_ms",
)


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs += [(f"{layer}.calls", "count", "lower"),
                  (f"{layer}.self_s", "s", "lower"),
                  (f"{layer}.share", "fraction", "lower")]
    for layer, extras in EXTRAS.items():
        specs += [(layer + name if name.startswith(".") else name, unit, better)
                  for name, unit, better in extras]
    return specs


def layer_metrics(recorder: SpanRecorder, analysis: Analysis,
                  facts: Dict[str, float], probes: Dict[str, float],
                  trace_overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``facts`` are the numbers the workload read from the program's own
    reports and ledgers (cache hits, fabric bytes per kind, ...); span
    counts, seam-observer counts and probe results fill the rest.
    """
    out = {name: 0.0 for name, _unit, _better in per_layer_specs()}
    for layer in LAYERS:
        out[f"{layer}.calls"] = float(analysis.calls.get(layer, 0))
        out[f"{layer}.self_s"] = analysis.self_s.get(layer, 0.0)
        out[f"{layer}.share"] = analysis.share(layer)
    counts = recorder.counts
    nn_calls = analysis.calls.get("nn", 0)
    if nn_calls:
        out["nn.images_per_call"] = counts["nn.images"] / nn_calls
    for name in ("storage.compression.bytes_in",
                 "storage.compression.bytes_out",
                 "core.dataplane.replicas_placed"):
        out[name] = counts[name]
    photos = facts.get("photos", 0.0)
    if photos:
        for verb in ("put", "get"):
            out[f"storage.objectstore.{verb}s_per_photo"] = (
                analysis.calls_by_name.get(
                    f"objectstore.ObjectStore.{verb}", 0) / photos)
    inclusive = analysis.inclusive_s
    out["core.tuner.distribute_s"] = inclusive.get(
        "tuner.Tuner.distribute_update", 0.0)
    out["core.controlplane.recover_s"] = inclusive.get(
        "controlplane.RecoveryControlPlane.recover", 0.0)
    scrub_s = inclusive.get(
        "controlplane.RecoveryControlPlane.scrub_and_repair", 0.0)
    if scrub_s:
        out["core.controlplane.scrub_objects_per_s"] = (
            facts.get("scrub_objects", 0.0) / scrub_s)
    rebalance_s = inclusive.get("rebalance.ShardRebalancer.rebalance", 0.0)
    if rebalance_s:
        out["placement.rebalance.objects_per_s"] = (
            facts.get("placement.rebalance.objects_moved", 0.0) / rebalance_s)
    dispatchers = recorder.seen["dispatcher"].values()
    out["serving.dispatcher.replica_busy_s"] = sum(
        d.busy_s for d in dispatchers)
    out["serving.dispatcher.replica_stalled_s"] = sum(
        d.stalled_s for d in dispatchers)
    requests = facts.get("requests", 0.0)
    if requests:
        out["serving.loop.us_per_request"] = (
            1e6 * analysis.self_s.get("serving.loop", 0.0) / requests)
    for name, value in {**facts, **probes}.items():
        if name in out:
            out[name] = float(value)
    out["bench.unattributed_share"] = analysis.share("bench")
    out["bench.missing_seams"] = float(len(recorder.missing))
    out["bench.trace_overhead_frac"] = trace_overhead_frac
    return out
