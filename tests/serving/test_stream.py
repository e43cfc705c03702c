"""Streaming front end: determinism, cancellation, credits, chaos."""

import numpy as np
import pytest

from repro.core.cluster import InferenceServer
from repro.faults import DropMessages, FaultInjector
from repro.models.registry import tiny_model
from repro.serving import (
    CANCELLED,
    COMPLETED,
    EXPIRED,
    ServingConfig,
    StreamConfig,
    StreamingFrontend,
)
from repro.serving.admission import ServeRequest
from repro.serving.bench import run_streaming_bench
from repro.workloads.continuous import (
    diurnal_requests,
    flash_crowd_requests,
    multi_tenant_trace,
    open_loop_requests,
)

SLO_S = 0.1


def _factory(config, seed=0):
    def make(index):
        return InferenceServer(tiny_model("ResNet50", seed=seed + index),
                               name=f"stream-replica-{index}")
    return make


def _stream(config=None, stream=None, seed=0):
    config = (config if config is not None
              else ServingConfig(replicas=2)).validated()
    if stream is None:
        stream = StreamConfig(min_replicas=config.replicas,
                              max_replicas=config.replicas, autoscale=False)
    return StreamingFrontend(_factory(config, seed), config, stream)


def _trace(num_requests=200, rate_rps=1500.0, seed=0, **kwargs):
    return open_loop_requests(num_requests=num_requests, rate_rps=rate_rps,
                              seed=seed, **kwargs)


_PIXELS = np.random.default_rng(7).random((3, 16, 16))


def _req(rid, arrival_s, deadline_s=None):
    return ServeRequest(request_id=rid, arrival_s=arrival_s, pixels=_PIXELS,
                        deadline_s=deadline_s)


def test_conservation_and_zero_queue_full_under_flash():
    """Overload degrades to credit_wait delay, never queue_full drops."""
    frontend = _stream(stream=StreamConfig(credits=64, min_replicas=2,
                                           max_replicas=2, autoscale=False))
    trace = flash_crowd_requests(num_requests=600, base_rps=400.0,
                                 flash_rps=4000.0, flash_start_s=0.5,
                                 flash_duration_s=0.3)
    report = frontend.serve(trace)
    assert report.offered == 600
    assert report.queue_full == 0
    assert report.conserved
    assert report.offered == (report.completed + report.cancelled
                              + report.expired)
    # the flash actually exhausted the credit window: some requests waited
    assert max(report.credit_waits_s) > 0.0
    assert len(report.credit_waits_s) >= report.completed
    # metrics mirror the report (the ND004 families)
    metrics = frontend.metrics
    assert (metrics.get("serving_stream_requests_total")
            .value(status=COMPLETED) == report.completed)
    assert metrics.get("serving_stream_inflight").value() == 0
    assert (metrics.get("serving_stream_credits_available").value()
            == frontend.stream.credits)


def test_out_of_order_completion_across_replicas():
    frontend = _stream()
    trace = _trace(num_requests=300, rate_rps=2500.0)
    report = frontend.serve(trace)
    assert report.completed == 300
    # completions are reassembled per request id, and provably land out
    # of submission order once two replicas race
    assert report.out_of_order > 0
    assert sorted(report.completion_order) == \
           sorted(r.request_id for r in trace)
    assert report.completion_order != [r.request_id for r in trace]
    assert len(report.latencies_s) == report.completed


def test_identical_runs_are_bit_identical():
    trace = _trace(num_requests=250, rate_rps=2000.0)
    cancels = {trace[10].request_id: 0.05, trace[50].request_id: 0.01,
               trace[200].request_id: trace[200].arrival_s + 0.001}
    first = _stream().serve(_trace(num_requests=250, rate_rps=2000.0),
                            cancels)
    second = _stream().serve(_trace(num_requests=250, rate_rps=2000.0),
                             cancels)
    assert first.to_dict() == second.to_dict()
    assert first.completion_order == second.completion_order
    assert [o.request_id for o in first.outcomes] == \
           [o.request_id for o in second.outcomes]


def test_cancellation_in_every_phase():
    """One cancel each against a backlog, pending, and in-flight request."""
    config = ServingConfig(replicas=1, min_batch=1, max_batch=1,
                           initial_batch=1)
    frontend = _stream(config,
                       StreamConfig(credits=2, min_replicas=1,
                                    max_replicas=1, autoscale=False))
    # r0 dispatches immediately (in flight), r1 holds the second credit
    # (pending), r2 finds no credit (backlog)
    trace = [_req("r0", 0.0), _req("r1", 0.0), _req("r2", 0.0)]
    tick = frontend.dispatcher.min_service_s() / 8
    cancels = {"r2": tick, "r1": 2 * tick, "r0": 3 * tick}
    report = frontend.serve(trace, cancels)
    assert report.completed == 0
    assert report.cancelled == 3
    assert report.conserved
    by_id = {o.request_id: o for o in report.outcomes}
    assert all(o.status == CANCELLED for o in by_id.values())
    # the in-flight cancel latched: it resolved only when its batch
    # finished, on a real replica
    assert by_id["r0"].replica is not None
    assert by_id["r0"].t_resolved_s > 3 * tick
    # backlog/pending cancels resolved at the cancel instant
    assert by_id["r2"].t_resolved_s == pytest.approx(tick)
    assert by_id["r1"].t_resolved_s == pytest.approx(2 * tick)


def test_cancel_after_completion_is_noop():
    frontend = _stream(ServingConfig(replicas=1))
    report = frontend.serve([_req("r0", 0.0)], {"r0": 10.0})
    assert report.completed == 1 and report.cancelled == 0
    assert report.conserved


def test_unknown_cancellation_id_rejected():
    frontend = _stream(ServingConfig(replicas=1))
    with pytest.raises(ValueError, match="unknown request ids"):
        frontend.serve([_req("r0", 0.0)], {"ghost": 1.0})


def test_duplicate_request_ids_rejected():
    frontend = _stream(ServingConfig(replicas=1))
    with pytest.raises(ValueError, match="duplicate request_id"):
        frontend.serve([_req("r0", 0.0), _req("r0", 0.1)])


def test_deadline_expiry_is_conserved():
    config = ServingConfig(replicas=1, max_batch=4)
    probe = _stream(config)
    deadline = 4 * probe.dispatcher.min_service_s()
    frontend = _stream(config)
    trace = [_req(f"r{i}", 0.0, deadline_s=deadline) for i in range(60)]
    report = frontend.serve(trace)
    assert report.expired > 0
    assert report.completed > 0
    assert report.conserved
    assert report.queue_full == 0
    statuses = {o.status for o in report.outcomes}
    assert statuses == {COMPLETED, EXPIRED}


def test_dropped_dispatch_redispatches_instead_of_shedding():
    """Chaos: every retry of one batch transfer drops; the batch is
    re-queued (delayed), not dropped, and conservation stays exact."""
    frontend = _stream(ServingConfig(replicas=1))
    FaultInjector([
        DropMessages(at=1, count=4, kind="serve"),
    ]).attach_fabric(frontend.network)
    report = frontend.serve(_trace(num_requests=80, rate_rps=2000.0))
    assert report.redispatches > 0
    assert report.completed == 80
    assert report.queue_full == 0 and report.expired == 0
    assert report.conserved
    assert (frontend.metrics.get("serving_stream_redispatches_total").value()
            == report.redispatches)
    assert frontend.dispatcher.batches_failed == 1
    # the lost retry time is stall, not useful work
    assert frontend.dispatcher.stalled_s > 0.0


def test_autoscaler_grows_the_replica_set_under_flash():
    config = ServingConfig(replicas=1, deadline_s=1.0)
    frontend = _stream(config,
                       StreamConfig(min_replicas=1, max_replicas=4,
                                    window=4, cooldown=4))
    trace = flash_crowd_requests(num_requests=800, base_rps=500.0,
                                 flash_rps=6000.0, flash_start_s=0.2,
                                 flash_duration_s=0.5)
    report = frontend.serve(trace)
    assert report.scale_ups >= 1
    assert report.peak_replicas > 1
    assert report.peak_replicas <= 4
    assert report.conserved
    assert (frontend.metrics.get("serving_scale_events_total")
            .value(direction="up") == report.scale_ups)


def test_autoscaler_retires_replicas_when_calm_returns():
    """A flash followed by a long calm tail scales up then back down."""
    config = ServingConfig(replicas=1, deadline_s=2.0)
    frontend = _stream(config,
                       StreamConfig(min_replicas=1, max_replicas=4,
                                    window=4, cooldown=4))
    trace = flash_crowd_requests(num_requests=900, base_rps=150.0,
                                 flash_rps=6000.0, flash_start_s=0.2,
                                 flash_duration_s=0.1)
    report = frontend.serve(trace)
    assert report.scale_ups >= 1
    assert report.scale_downs >= 1
    assert report.final_replicas < report.peak_replicas
    assert report.conserved


def test_makespan_is_last_completion_time():
    frontend = _stream(ServingConfig(replicas=1))
    report = frontend.serve(_trace(num_requests=50, rate_rps=1000.0))
    completed = [o for o in report.outcomes if o.status == COMPLETED]
    assert report.makespan_s == max(o.t_resolved_s for o in completed)
    assert report.makespan_s > max(o.t_resolved_s - o.latency_s
                                   for o in completed)


def test_streaming_beats_sync_shedding_on_the_same_trace():
    # the whole recorded trace: with hits served from their feature rows
    # one replica absorbs a shorter burst without overflowing its queue
    result = run_streaming_bench(seed=0)
    s, sync = result["streaming"], result["sync"]
    assert s["queue_full"] == 0 and s["conserved"]
    assert sync["shed"]["queue_full"] > 0
    assert s["completed"] > sync["completed"]
    assert s["out_of_order"] > 0


NAN, INF = float("nan"), float("inf")


def _open(**kwargs):
    return lambda: open_loop_requests(**{
        "num_requests": 5, "rate_rps": 100.0, **kwargs})


def _diurnal(**kwargs):
    return lambda: diurnal_requests(**{
        "num_requests": 5, "base_rps": 100.0, "peak_rps": 200.0,
        "period_s": 1.0, **kwargs})


def _flash(**kwargs):
    return lambda: flash_crowd_requests(**{
        "num_requests": 5, "base_rps": 100.0, "flash_rps": 200.0,
        "flash_start_s": 0.0, "flash_duration_s": 1.0, **kwargs})


def _tenants(**kwargs):
    return lambda: multi_tenant_trace(**{
        "num_uploads": 5, "tenants": {"a": 1.0, "b": 2.0},
        "num_users": 10, **kwargs})


#: one generator call per degenerate input each must refuse
DEGENERATE = {
    "open_loop nan rate": _open(rate_rps=NAN),
    "open_loop inf rate": _open(rate_rps=INF),
    "open_loop zero rate": _open(rate_rps=0.0),
    "open_loop negative rate": _open(rate_rps=-1.0),
    "open_loop no requests": _open(num_requests=0),
    "open_loop empty pool": _open(pool_size=0),
    "open_loop negative skew": _open(skew=-0.5),
    "open_loop nan skew": _open(skew=NAN),
    "open_loop inf skew": _open(skew=INF),
    "open_loop zero image_size": _open(image_size=0),
    "open_loop zero channels": _open(channels=0),
    "diurnal zero period": _diurnal(period_s=0.0),
    "diurnal negative period": _diurnal(period_s=-1.0),
    "diurnal nan period": _diurnal(period_s=NAN),
    "diurnal inf period": _diurnal(period_s=INF),
    "diurnal inf peak": _diurnal(peak_rps=INF),
    "diurnal nan skew": _diurnal(skew=NAN),
    "flash nan base": _flash(base_rps=NAN),
    "flash inf flash_rps": _flash(flash_rps=INF),
    "flash nan start": _flash(flash_start_s=NAN),
    "flash inf duration": _flash(flash_duration_s=INF),
    "flash zero image_size": _flash(image_size=0),
    "tenants nan weight": _tenants(tenants={"a": 1.0, "b": NAN}),
    "tenants inf weight": _tenants(tenants={"a": INF}),
    "tenants nan skew": _tenants(skew=NAN),
    "tenants no users": _tenants(num_users=0),
}


class TestTraces:
    def test_flash_crowd_shape(self):
        trace = flash_crowd_requests(num_requests=400, base_rps=200.0,
                                     flash_rps=4000.0, flash_start_s=0.5,
                                     flash_duration_s=0.25)
        times = [r.arrival_s for r in trace]
        assert times == sorted(times)
        assert len({r.request_id for r in trace}) == 400
        assert all(r.request_id.startswith("flash-") for r in trace)
        assert trace[0].pixels.shape == (3, 16, 16)
        in_flash = sum(1 for t in times if 0.5 <= t < 0.75)
        before = sum(1 for t in times if 0.25 <= t < 0.5)
        assert in_flash > 4 * max(before, 1)

    def test_diurnal_shape(self):
        trace = diurnal_requests(num_requests=800, base_rps=100.0,
                                 peak_rps=2000.0, period_s=0.5)
        times = [r.arrival_s for r in trace]
        assert times == sorted(times)
        assert all(r.request_id.startswith("diurnal-") for r in trace)
        # the rate peaks mid-period: the middle half of the first period
        # carries far more arrivals than the trough edge
        mid = sum(1 for t in times if 0.125 <= t < 0.375)
        edge = sum(1 for t in times if t < 0.125)
        assert mid > 2 * max(edge, 1)

    def test_traces_share_the_photo_pool(self):
        from repro.serving.cache import content_key

        flash = flash_crowd_requests(num_requests=100, base_rps=500.0,
                                     flash_rps=1000.0, flash_start_s=0.1,
                                     flash_duration_s=0.1, pool_size=16)
        diurnal = diurnal_requests(num_requests=100, base_rps=500.0,
                                   peak_rps=1000.0, period_s=1.0,
                                   pool_size=16)
        open_loop = open_loop_requests(num_requests=100, rate_rps=500.0,
                                       pool_size=16)
        keys = {content_key(r.pixels)
                for r in flash + diurnal + open_loop}
        assert len(keys) <= 16

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            flash_crowd_requests(num_requests=10, base_rps=100.0,
                                 flash_rps=50.0, flash_start_s=0.0,
                                 flash_duration_s=1.0)
        with pytest.raises(ValueError):
            diurnal_requests(num_requests=10, base_rps=0.0,
                             peak_rps=100.0, period_s=1.0)
        with pytest.raises(ValueError):
            flash_crowd_requests(num_requests=10, base_rps=100.0,
                                 flash_rps=200.0, flash_start_s=-1.0,
                                 flash_duration_s=1.0)

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_degenerate_input_is_refused(self, case):
        with pytest.raises(ValueError):
            DEGENERATE[case]()
