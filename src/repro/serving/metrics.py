"""One registration site for every serving metric family (ND004).

Both protocols of the one serving loop — the bounded queue of
:class:`~repro.serving.frontend.ServingFrontend` and the credit window
of :class:`~repro.serving.stream.StreamingFrontend` — report into the
same metric families (each into the ones its protocol has), and ND004
requires each family to have exactly one registration call site
repo-wide.  This module is that site: a :class:`ServingMetrics` bundle
registers (or re-binds, via the registry's get-or-create semantics)
every family and hands out bound children: an unlabelled family as its
single child, a labelled one as a :class:`~repro.obs.metrics.ChildMap`
keyed by its label value (``m.shed["deadline"].inc()``).
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry

__all__ = ["ServingMetrics"]


class ServingMetrics:
    """Bound children for the serving layer, one registry namespace.

    Constructing this against the same :class:`MetricsRegistry` twice
    returns the same children (registration and binding are
    get-or-create), so a cluster can host both front ends without
    forking the accounting.
    """

    def __init__(self, metrics: MetricsRegistry):
        self.registry = metrics
        # -- shared request accounting ----------------------------------
        self.offered = metrics.counter(
            "serving_requests_offered_total",
            "requests offered to the serving front end").labels()
        self.completed = metrics.counter(
            "serving_requests_completed_total",
            "requests classified and answered in time").labels()
        self.shed = metrics.counter(
            "serving_requests_shed_total",
            "requests shed by admission control",
            label_names=("reason",)).by_labels()
        self.queue_depth = metrics.gauge(
            "serving_queue_depth",
            "admission-queue depth after each batch").labels()
        self.batch = metrics.histogram(
            "serving_batch_size", "dispatched micro-batch sizes",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256)).labels()
        self.latency = metrics.histogram(
            "serving_latency_seconds",
            "request latency, arrival to answer").labels()
        self.batches = metrics.counter(
            "serving_batches_dispatched_total",
            "micro-batches dispatched per replica",
            label_names=("replica",)).by_labels()
        self.batch_target = metrics.gauge(
            "serving_batch_target",
            "the AIMD controller's current batch-size target").labels()
        self.batch_target_changes = metrics.counter(
            "serving_batch_target_changes_total",
            "batch-size target moves by the AIMD controller",
            label_names=("direction",)).by_labels()
        # -- split-point feature-row cache ------------------------------
        self.cache_hits = metrics.counter(
            "serving_cache_hits_total",
            "requests served from a cached split-point feature row "
            "(classifier tail only)").labels()
        self.cache_misses = metrics.counter(
            "serving_cache_misses_total",
            "feature-row cache misses paying host preprocessing and the "
            "frozen front").labels()
        self.cache_evictions = metrics.counter(
            "serving_cache_evictions_total",
            "cache entries evicted by the LRU byte budget").labels()
        self.cache_rejected = metrics.counter(
            "serving_cache_rejected_total",
            "cache inserts rejected because one feature row exceeds the "
            "whole byte budget").labels()
        # -- streaming protocol -----------------------------------------
        self.stream_requests = metrics.counter(
            "serving_stream_requests_total",
            "streaming requests resolved, by terminal status",
            label_names=("status",)).by_labels()
        self.stream_inflight = metrics.gauge(
            "serving_stream_inflight",
            "streaming requests dispatched and awaiting completion").labels()
        self.stream_credits = metrics.gauge(
            "serving_stream_credits_available",
            "client send credits currently available").labels()
        self.stream_credit_wait = metrics.histogram(
            "serving_stream_credit_wait_seconds",
            "client-side wait for a send credit before submission").labels()
        self.stream_redispatches = metrics.counter(
            "serving_stream_redispatches_total",
            "requests re-queued after a failed batch dispatch").labels()
        # -- elasticity --------------------------------------------------
        self.replica_count = metrics.gauge(
            "serving_replica_count",
            "replicas behind the dispatcher").labels()
        self.scale_events = metrics.counter(
            "serving_scale_events_total",
            "autoscaler replica-set changes",
            label_names=("direction",)).by_labels()
