"""Degraded-fleet behaviour: throughput and traffic vs failed PipeStores.

Not a paper figure — the operational counterpart the paper's fleet story
implies (§4, Fig. 7): when stores crash, survivors absorb the re-sharded
work.  Two views:

* the DES fleet (`simulate_offline_inference(failed_stores=...)`) —
  campaign makespan as the fleet degrades, which should track the ideal
  ``n / survivors`` slowdown closely because the campaign is
  embarrassingly parallel;
* the runnable cluster under a `FaultInjector` crash — accounted
  accelerator busy-seconds concentrate on survivors, and retry/backoff
  accounting shows what fault tolerance costs on the wire.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.faults import FaultInjector, StoreCrash
from repro.models.catalog import model_graph
from repro.models.registry import tiny_model
from repro.sim.cluster_sim import simulate_offline_inference

NUM_STORES = 8
IMAGES = 4096


def degraded_fleet_sweep():
    graph = model_graph("ResNet50")
    baseline = None
    rows = []
    for failed in range(NUM_STORES):
        result = simulate_offline_inference(
            graph, NUM_STORES, IMAGES, batch_size=128, failed_stores=failed)
        if baseline is None:
            baseline = result.makespan_s
        survivors = NUM_STORES - failed
        rows.append({
            "failed": failed,
            "survivors": survivors,
            "makespan_s": result.makespan_s,
            "throughput_ips": result.throughput_ips,
            "slowdown": result.makespan_s / baseline,
            "ideal": NUM_STORES / survivors,
        })
    return rows


def test_degraded_fleet_throughput(benchmark, report):
    rows = benchmark(degraded_fleet_sweep)

    text = format_table(
        ["failed", "survivors", "makespan_s", "throughput_ips",
         "slowdown", "ideal"],
        [[r[k] for k in ("failed", "survivors", "makespan_s",
                         "throughput_ips", "slowdown", "ideal")]
         for r in rows],
        title=f"offline inference, {NUM_STORES}-store fleet, "
              f"{IMAGES} images, N stores failed",
    )
    report("faults_degraded_fleet", text)

    # monotone: losing stores never speeds the campaign up
    makespans = [r["makespan_s"] for r in rows]
    assert makespans == sorted(makespans)
    baseline_ips = rows[0]["throughput_ips"]
    for r in rows:
        # never worse than proportional re-sharding...
        assert r["slowdown"] <= r["ideal"] * 1.05
        # ...and each survivor is at least as efficient as in the full
        # fleet (longer per-store streams amortise pipeline fill better)
        assert r["throughput_ips"] >= (baseline_ips * r["survivors"]
                                       / NUM_STORES)


def crashed_cluster_accounting():
    def factory():
        return tiny_model("ResNet50", num_classes=8, width=8, seed=5)

    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=4, nominal_raw_bytes=2048))
    rng = np.random.default_rng(0)
    x = rng.random((48, 3, 16, 16))
    y = rng.integers(0, 8, size=48)
    cluster.ingest(x, train_labels=y)
    injector = FaultInjector([
        StoreCrash(at=2, store_id="pipestore-3")]).attach(cluster)
    report = cluster.finetune(epochs=1, relocate_lost=True)
    stats = cluster.offline_relabel()
    return cluster, injector, report, stats


def test_crashed_cluster_busy_seconds(report):
    cluster, injector, ft, relabel = crashed_cluster_accounting()
    busy = {s.store_id: s.busy_seconds for s in cluster.stores}
    retry = cluster.retry

    def features(kind, store_id):
        return cluster.metrics.get(
            f"pipestore_feature_{kind}_total").value(store=store_id)

    lines = [
        f"fine-tune: extracted={ft.images_extracted} "
        f"repartitioned={ft.photos_repartitioned} "
        f"deferred={ft.photos_deferred} skipped={ft.skipped_stores}",
        f"relabel:   processed={relabel.photos_processed} "
        f"deferred={relabel.photos_deferred}",
        f"retry:     calls={retry.calls} retries={retry.retries} "
        f"giveups={retry.giveups} backoff_s={retry.backoff_s:.3f}",
        "accelerator busy seconds (crashed store does no work; the relabel "
        "sweep reads the features the fine-tune round stored):",
    ] + [f"  {sid}: {seconds:.4f}s  feature hits={features('hits', sid):.0f} "
         f"misses={features('misses', sid):.0f}"
         for sid, seconds in sorted(busy.items())]
    report("faults_crashed_cluster", "\n".join(lines))

    # the dead store extracted nothing after its crash; survivors absorbed
    # its shard, so the fleet still covered every photo
    assert ft.images_extracted == 48
    assert ft.photos_repartitioned == 12
    assert busy["pipestore-3"] == 0.0
    assert all(busy[f"pipestore-{i}"] > 0 for i in range(3))
    assert relabel.photos_processed == 48
