"""End-to-end serving front end: accounting, determinism, faults."""

import numpy as np
import pytest

from repro.core.cluster import InferenceServer, NDPipeCluster
from repro.core.config import ClusterConfig
from repro.faults import AddLatency, DropMessages, FaultInjector
from repro.models.registry import tiny_model
from repro.serving import ServingConfig, ServingFrontend
from repro.serving.bench import run_serving_comparison
from repro.storage.imageformat import quantise
from repro.workloads.continuous import open_loop_requests

SLO_S = 0.1


def _frontend(config=None, seed=0):
    config = config if config is not None else ServingConfig()
    replicas = [
        InferenceServer(tiny_model("ResNet50", seed=seed + i),
                        name=f"replica-{i}")
        for i in range(config.replicas)
    ]
    return ServingFrontend(replicas, config)


def _trace(num_requests=200, rate_rps=1500.0, seed=0, **kwargs):
    return open_loop_requests(num_requests=num_requests, rate_rps=rate_rps,
                              seed=seed, **kwargs)


def test_accounting_invariant_and_report_consistency():
    frontend = _frontend()
    report = frontend.serve(_trace())
    assert report.offered == 200
    assert report.offered == report.completed + report.shed_total
    assert len(report.latencies_s) == report.completed
    assert sum(report.batch_sizes) == report.completed
    assert report.makespan_s > 0
    assert report.cache_hits + report.cache_misses == report.completed
    # metrics mirror the report exactly (the ND004 families)
    metrics = frontend.metrics
    assert metrics.get("serving_requests_offered_total").value() == 200
    assert (metrics.get("serving_requests_completed_total").value()
            == report.completed)
    assert (metrics.get("serving_cache_hits_total").value()
            == report.cache_hits)
    assert (metrics.get("serving_cache_misses_total").value()
            == report.cache_misses)


def test_identical_runs_are_bit_identical():
    first = _frontend().serve(_trace())
    second = _frontend().serve(_trace())
    assert first.to_dict() == second.to_dict()
    assert first.latencies_s == second.latencies_s
    assert [o.label for o in first.completed_requests] == \
           [o.label for o in second.completed_requests]


def test_adaptive_meets_slo_and_beats_baseline_3x():
    result = run_serving_comparison(seed=0, num_requests=600)
    budget = result["latency_budget_s"]
    assert result["adaptive"]["p99_latency_s"] <= budget + 1e-9
    assert result["baseline"]["p99_latency_s"] <= budget + 1e-9
    assert result["speedup"] >= 3.0
    # the controller actually batches: mean batch well above synchronous
    assert result["adaptive"]["mean_batch"] > 4.0
    assert result["baseline"]["mean_batch"] == 1.0


def test_cache_hits_deterministic_across_arrival_seeds():
    """Misses are a property of the photo pool, not the arrival order."""
    from repro.serving.cache import content_key

    pool = dict(pool_size=32, pool_seed=77)
    all_keys = set()
    for seed in (0, 1, 2):
        trace = _trace(num_requests=400, seed=seed, **pool)
        distinct = {content_key(r.pixels) for r in trace}
        all_keys |= distinct
        report = _frontend().serve(trace)
        # every distinct photo misses exactly once, whatever the order
        assert report.cache_misses == len(distinct)
        assert report.cache_hits == report.completed - len(distinct)
        assert report.cache_evictions == 0
    # every arrival seed draws from the same shared pool
    assert len(all_keys) <= pool["pool_size"]


def test_queue_full_sheds_under_tiny_queue():
    config = ServingConfig(queue_capacity=4, max_batch=4, initial_batch=4)
    report = _frontend(config).serve(_trace(num_requests=300,
                                            rate_rps=20000.0))
    assert report.shed["queue_full"] > 0
    assert report.offered == report.completed + report.shed_total


def test_deadline_sheds_when_baseline_saturates():
    config = ServingConfig(min_batch=1, max_batch=1, initial_batch=1)
    report = _frontend(config).serve(_trace(num_requests=300))
    assert report.shed["deadline"] > 0
    assert report.offered == report.completed + report.shed_total
    # nothing completed late: sheds, not SLO violations
    assert report.p99_latency_s <= SLO_S + 1e-9


def test_dropped_dispatch_sheds_whole_batch_exactly():
    frontend = _frontend()
    # the retry policy makes 4 attempts; drop them all for one batch
    FaultInjector([DropMessages(at=1, count=4, kind="serve")]) \
        .attach_fabric(frontend.network)
    report = frontend.serve(_trace())
    assert report.shed["dispatch_failed"] > 0
    assert frontend.dispatcher.batches_failed == 1
    # the failed batch is shed in full, everything else completes
    assert report.offered == report.completed + report.shed_total
    assert frontend.retry.giveups == 1


def test_injected_latency_is_charged_to_requests():
    calm = _frontend().serve(_trace())
    frontend = _frontend()
    FaultInjector([AddLatency(at=1, seconds=0.04, count=1, kind="serve")]) \
        .attach_fabric(frontend.network)
    slowed = frontend.serve(_trace())
    assert slowed.offered == slowed.completed + slowed.shed_total
    # the delayed batch's requests observe the extra 40 ms
    assert max(slowed.latencies_s) >= max(calm.latencies_s) + 0.039
    assert frontend.network.injected_latency_s == pytest.approx(0.04)


def test_shed_accounting_exact_under_mixed_faults():
    frontend = _frontend()
    FaultInjector([
        DropMessages(at=1, count=4, kind="serve"),
        AddLatency(at=8, seconds=0.02, count=2, kind="serve"),
    ]).attach_fabric(frontend.network)
    report = frontend.serve(_trace(num_requests=400))
    assert report.offered == 400
    assert report.offered == report.completed + report.shed_total
    assert (frontend.metrics.get("serving_requests_shed_total")
            .value(reason="dispatch_failed")
            == report.shed["dispatch_failed"])


def test_cluster_serve_uploads_lands_completed_requests():
    cluster = NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=10, width=8, seed=7),
        ClusterConfig(num_stores=3),
    )
    requests = _trace(num_requests=60, rate_rps=800.0)
    report, photo_ids = cluster.serve_uploads(
        requests, ServingConfig(replicas=2))
    assert len(photo_ids) == report.completed
    assert len(cluster.database) == report.completed
    assert len(set(photo_ids)) == len(photo_ids)
    # every landed label matches what the serving replicas answered
    for outcome, photo_id in zip(report.completed_requests, photo_ids):
        record = cluster.database.lookup(photo_id)
        assert record.label == outcome.label
    # serving traffic rode the cluster's accounted fabric
    assert cluster.traffic_summary().get("serve", 0) > 0


def test_serve_uploads_lets_go_of_each_tensor_once_landed():
    """A landed photo's codes are the store's; the report keeps none
    (each is a view pinning its whole miss batch's codes).  Ids and
    labels are the ones recorded before the codes were let go."""
    cluster = NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=10, width=8, seed=7),
        ClusterConfig(num_stores=2),
    )
    requests = _trace(num_requests=24, rate_rps=800.0, seed=3, pool_size=16)
    report, photo_ids = cluster.serve_uploads(
        requests, ServingConfig(replicas=2))
    assert (report.completed, report.cache_misses) == (24, 11)
    assert all(o.codes is None for o in report.completed_requests)
    assert photo_ids == [f"photo-{i:08d}" for i in range(24)]
    assert [o.label for o in report.completed_requests] == (
        [3] * 13 + [0] + [3] * 8 + [0, 3])


def test_direct_serve_keeps_the_tensors_it_was_asked_for():
    cluster = NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=10, width=8, seed=7),
        ClusterConfig(num_stores=2),
    )
    frontend = cluster.make_serving_frontend(ServingConfig(replicas=2))
    requests = _trace(num_requests=24, rate_rps=800.0, seed=3, pool_size=16)
    report = frontend.serve(requests, collect_codes=True)
    assert report.cache_misses == 11
    # hits keep their codes too: the whole batch passed the front door
    for outcome in report.completed_requests:
        np.testing.assert_array_equal(outcome.codes,
                                      quantise(outcome.request.pixels))


def test_multi_replica_spreads_batches():
    config = ServingConfig(replicas=3)
    frontend = _frontend(config)
    report = frontend.serve(_trace(num_requests=400, rate_rps=4000.0))
    batches = frontend.metrics.get("serving_batches_dispatched_total")
    per_replica = [batches.value(replica=f"replica-{i}") for i in range(3)]
    assert all(v > 0 for v in per_replica)
    assert sum(per_replica) == len(report.batch_sizes)


def test_makespan_is_the_last_batch_completion():
    """Regression: makespan_s was recorded off the last batch's t_start,
    which collapses to the arrival time on a one-request trace."""
    frontend = _frontend(ServingConfig(replicas=1))
    trace = _trace(num_requests=1, rate_rps=100.0)
    report = frontend.serve(trace)
    assert report.completed == 1
    arrival = trace[0].arrival_s
    assert report.makespan_s == pytest.approx(arrival
                                              + report.latencies_s[0])
    assert report.makespan_s > arrival


def test_dispatcher_splits_injected_stall_from_busy_time():
    frontend = _frontend(ServingConfig(replicas=1))
    FaultInjector([
        AddLatency(at=1, seconds=0.04, count=1, kind="serve"),
    ]).attach_fabric(frontend.network)
    frontend.serve(_trace(num_requests=100))
    dispatcher = frontend.dispatcher
    # the injected fault latency is stall, not useful work
    assert dispatcher.stalled_s == pytest.approx(0.04)
    assert dispatcher.busy_s > 0.0


def test_failed_dispatch_time_is_stalled_not_busy():
    frontend = _frontend(ServingConfig(replicas=1))
    FaultInjector([
        DropMessages(at=1, count=4, kind="serve"),
    ]).attach_fabric(frontend.network)
    frontend.serve(_trace(num_requests=100))
    dispatcher = frontend.dispatcher
    assert dispatcher.batches_failed == 1
    # every second the replica lost to retries/backoff is accounted as
    # stall; busy_s only ever counts delivered work
    assert dispatcher.stalled_s > 0.0
    assert dispatcher.stalled_s == pytest.approx(
        frontend.retry.backoff_s + frontend.network.injected_latency_s)


def test_frontend_surfaces_cache_rejections():
    # a capacity below any feature row rejects every insert: the cache
    # stays empty, every photo misses once per batch it appears in (a
    # repeat inside the batch shares the row), and the rejection counter
    # mirrors into serving_cache_rejected_total
    from repro.serving.cache import content_key

    frontend = _frontend(ServingConfig(replicas=1,
                                       cache_capacity_bytes=64))
    report = frontend.serve(_trace(num_requests=50, pool_size=8))
    per_batch = {}
    for outcome in report.completed_requests:
        per_batch.setdefault(outcome.batch_index, set()).add(
            content_key(outcome.request.pixels))
    assert len(frontend.cache) == 0
    assert report.cache_misses == sum(len(keys)
                                      for keys in per_batch.values())
    assert report.cache_hits == report.completed - report.cache_misses
    assert report.cache_rejected_oversize == report.cache_misses > 0
    assert (frontend.metrics.get("serving_cache_rejected_total").value()
            == report.cache_rejected_oversize)
