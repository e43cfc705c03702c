"""Bind once: hot paths validate a label set when they bind its child,
never per report, and a bound child is never slower than its family.

``_Instrument._key`` is the one place a label set is validated and
stringified.  Over a flash smoke trace, a ladder rung and an ingest
chunk it must run about once per (family, label set) the run binds —
a number that does not grow with the requests served.  The families a
component binds eagerly (``PipeStore.bind_metrics``, ``ServingMetrics``)
are bound before each measured window opens.
"""

import numpy as np
import pytest

from repro.core.cluster import InferenceServer, NDPipeCluster
from repro.core.config import ClusterConfig
from repro.models.registry import tiny_model
from repro.obs.metrics import MetricsRegistry, _Instrument
from repro.placement import ShardConfig, ShardedCluster
from repro.report import instrument_cost
from repro.serving import ServingConfig, StreamConfig, StreamingFrontend
from repro.serving.bench import STREAM_BENCH_DEFAULTS, _stream_trace
from repro.workloads.continuous import open_loop_requests


@pytest.fixture
def key_calls(monkeypatch):
    calls = []
    validate = _Instrument._key

    def counting(self, labels):
        calls.append(self.name)
        return validate(self, labels)

    monkeypatch.setattr(_Instrument, "_key", counting)
    return calls


def _label_sets(registry: MetricsRegistry) -> int:
    """Distinct (family, label set) pairs reported into labelled
    families (an unlabelled family never builds a key)."""
    return sum(len(entry["values"]) for entry in registry.to_dict().values()
               if entry.get("labels"))


def test_flash_smoke_trace_validates_per_label_set(key_calls):
    d = STREAM_BENCH_DEFAULTS
    requests = _stream_trace("flash", 0, d["num_requests"], d["pool_size"],
                             d["skew"])
    registry = MetricsRegistry()
    frontend = StreamingFrontend(
        lambda i: InferenceServer(tiny_model("ResNet50", seed=i),
                                  name=f"stream-replica-{i}"),
        ServingConfig(replicas=1, deadline_s=1.0),
        StreamConfig(min_replicas=1, max_replicas=6), metrics=registry)
    before = len(key_calls)
    report = frontend.serve(requests)
    assert report.completed > 2000
    assert len(key_calls) - before <= _label_sets(registry) < 40


def test_ladder_rung_validates_per_label_set(key_calls):
    cluster = NDPipeCluster(lambda: tiny_model("ResNet50"),
                            ClusterConfig(num_stores=2, replication=2))
    trace = open_loop_requests(200, 500.0, seed=0, pool_size=200, skew=0.0)
    before = len(key_calls)
    report, ids = cluster.serve_uploads(trace, ServingConfig(replicas=2))
    assert len(ids) > 100
    assert len(key_calls) - before <= _label_sets(cluster.metrics) < 80


def test_ingest_chunk_validates_per_label_set(key_calls):
    fleet = ShardedCluster(lambda: tiny_model("ResNet50"),
                           ShardConfig(num_shards=4, replication=2))
    images = np.random.default_rng(0).random((64, 3, 16, 16),
                                              dtype=np.float32)
    before = len(key_calls)
    ids, rejections = fleet.ingest(images, tenant="default")
    assert len(ids) == 64 and not rejections
    assert len(key_calls) - before <= _label_sets(fleet.metrics.registry) \
        < 40


def test_a_bound_child_is_not_slower_than_its_family():
    """Both spellings timed interleaved, best of 7, as ``repro report
    instrument-cost`` prints them."""
    assert [name for name, family, child in instrument_cost()
            if child > family] == []
