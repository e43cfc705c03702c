"""End-to-end observability: one cluster lifecycle, one metrics registry.

Runs ingest -> finetune -> offline relabel on a real NDPipeCluster (with
injected message drops so the retry path is exercised), then asserts
that the shared registry and tracer report the whole story: fabric bytes
by kind, retry/backoff totals, per-run FT-DMP stage times, and a
loadable Chrome trace.
"""

import json

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.faults.events import DropMessages
from repro.faults.injector import FaultInjector
from repro.models.registry import tiny_model


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


@pytest.fixture(scope="module")
def lifecycle():
    """One full flow with injected ingest drops; shared by every assert."""
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0,
    ))
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=2, nominal_raw_bytes=4096))
    injector = FaultInjector([
        DropMessages(at=1, count=2, kind="ingest"),
    ]).attach(cluster)

    x, y = world.sample(12, 0, rng=np.random.default_rng(3))
    cluster.ingest(x, train_labels=y)
    cluster.finetune(epochs=1, num_runs=2)
    cluster.offline_relabel()
    return cluster, injector


class TestMetricsAfterLifecycle:
    def test_fabric_bytes_reported_by_kind(self, lifecycle):
        cluster, _ = lifecycle
        bytes_total = cluster.metrics.get("fabric_bytes_total")
        # every byte the fabric accounted is in the registry
        assert bytes_total.total() == cluster.network.total_bytes
        transfers = cluster.metrics.get("fabric_transfers_total")
        for kind in ("ingest", "features", "labels"):
            assert cluster.network.bytes_of_kind(kind) > 0
            assert transfers.value(kind=kind) > 0

    def test_injected_drops_counted(self, lifecycle):
        cluster, injector = lifecycle
        assert len(injector.dropped) == 2
        dropped = cluster.metrics.get("fabric_dropped_total")
        assert dropped.value(kind="ingest") == 2

    def test_retry_and_backoff_totals(self, lifecycle):
        cluster, _ = lifecycle
        reg = cluster.metrics
        # two drops -> two retried attempts with accounted backoff
        assert reg.get("retry_retries_total").value() == 2
        assert reg.get("retry_backoff_seconds_total").value() == pytest.approx(
            cluster.retry.backoff_s)
        assert cluster.retry.backoff_s > 0
        assert reg.get("retry_attempts_total").value() == cluster.retry.attempts
        assert reg.get("retry_giveups_total").value() == 0

    def test_ftdmp_per_run_stage_times(self, lifecycle):
        cluster, _ = lifecycle
        reg = cluster.metrics
        # num_runs=2 -> one Store-stage and one Tuner-stage sample per run
        assert reg.get("ftdmp_store_stage_seconds").count() == 2
        assert reg.get("ftdmp_tuner_stage_seconds").count() == 2
        assert reg.get("ftdmp_store_stage_seconds").sum() > 0
        assert reg.get("ftdmp_runs_total").value() == 2

    def test_pipestore_and_cluster_counters(self, lifecycle):
        cluster, _ = lifecycle
        reg = cluster.metrics
        assert reg.get("cluster_photos_ingested_total").value() == 12
        assert reg.get("pipestore_photos_stored_total").total() == 12
        assert reg.get("pipestore_features_extracted_total").total() > 0
        assert reg.get("cluster_journal_entries").value() == cluster.journal_size
        # one distribution round per finetune call, one send per store
        mechanisms = reg.get("checknrun_distributions_total")
        assert mechanisms.value(mechanism="delta") == len(cluster.stores)

    def test_prometheus_export_carries_the_acceptance_families(self, lifecycle):
        cluster, _ = lifecycle
        text = cluster.metrics.export_prometheus()
        assert 'fabric_bytes_total{kind="ingest"' in text
        assert "retry_backoff_seconds_total" in text
        assert 'ftdmp_store_stage_seconds_bucket{le="+Inf"}' in text
        assert "# TYPE ftdmp_store_stage_seconds histogram" in text

    def test_json_export_parses(self, lifecycle):
        cluster, _ = lifecycle
        payload = json.loads(cluster.metrics.export_json())
        assert payload["fabric_bytes_total"]["type"] == "counter"
        assert payload["ftdmp_store_stage_seconds"]["type"] == "histogram"


class TestTraceAfterLifecycle:
    def test_flow_spans_recorded(self, lifecycle):
        cluster, _ = lifecycle
        names = {s.name for s in cluster.tracer.spans}
        assert {"cluster.ingest", "cluster.finetune",
                "cluster.offline_relabel", "ftdmp.store_stage",
                "ftdmp.tuner_stage", "ftdmp.distribute"} <= names
        # one Store-stage and one Tuner-stage span per FT-DMP run
        assert len(cluster.tracer.find("ftdmp.store_stage")) == 2
        assert len(cluster.tracer.find("ftdmp.tuner_stage")) == 2

    def test_stage_spans_nest_inside_finetune(self, lifecycle):
        cluster, _ = lifecycle
        finetune = cluster.tracer.find("cluster.finetune")[0]
        for span in cluster.tracer.find("ftdmp.store_stage"):
            assert span.depth > finetune.depth
            assert span.start_s >= finetune.start_s
            assert (span.start_s + span.duration_s
                    <= finetune.start_s + finetune.duration_s)

    def test_chrome_trace_loads(self, lifecycle):
        cluster, _ = lifecycle
        payload = json.loads(cluster.tracer.export_chrome_trace())
        events = payload["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in events)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "cluster.finetune" in names and "ftdmp.store_stage" in names
