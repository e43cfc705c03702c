"""``repro.obs`` — cluster-wide observability: metrics, tracing, bench JSON.

* :class:`MetricsRegistry` — labelled counters/gauges/histograms with
  Prometheus-text and JSON export; one registry is threaded through the
  whole :class:`~repro.core.cluster.NDPipeCluster`.
* :class:`Tracer` — nested timed spans on the wall clock, exported as
  Chrome ``trace_event`` JSON.
* :mod:`~repro.obs.benchjson` — the structured results schema the
  ``bench_fig*`` scripts write so the perf trajectory diffs across PRs.
"""

from .benchjson import BenchResult, bench_payload, load_bench_json, write_bench_json
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import Span, Tracer

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "Tracer", "Span",
    "BenchResult", "bench_payload", "write_bench_json", "load_bench_json",
]
