"""One serving loop, two protocols: pinned logical outputs.

Both front ends run one event loop on :class:`repro.sim.engine.
Simulation`; whether it holds a ``StreamConfig`` picks the protocol.
The numbers pinned here were recorded from the two hand-written loops
the one loop replaced (a bounded-queue pull loop and a credit-window
heap loop), so they pin that the fold moved no logical output: reports,
batch sizes and numbering, dispatcher books, photo placement and
labels, outcome tuples, completion order and each front end's metrics
export.  Long sequences are pinned by a SHA-256 prefix of their
``json.dumps(..., sort_keys=True)``.

Re-pinned once since, when cache misses began crossing the serve hop as
8-bit codes (768 B a photo, not the 3 072 B fp32 input): fewer wire
bytes shorten each batch's ``wire_s``, so latencies, dispatcher books
and, where a batch forms differently, batch sizes moved.  Each test
names what it pinned before.  Labels did not move for any request its
replica served in both runs; the replicas here are built from distinct
seeds, so a request that moved to the other replica takes that model's
label.

The one place the loops' behaviour differs on purpose is tied arrivals:
the one loop dispatches on each arrival, where the bounded-queue pull
loop batched every arrival of one instant (the last test).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.cluster import InferenceServer, NDPipeCluster
from repro.core.config import ClusterConfig
from repro.faults import AddLatency, DropMessages, FaultInjector
from repro.models.registry import tiny_model
from repro.serving import (
    ServeRequest,
    ServingConfig,
    ServingFrontend,
    StreamConfig,
    StreamingFrontend,
)
from repro.workloads.continuous import open_loop_requests


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _replica(index):
    return InferenceServer(tiny_model("ResNet50", seed=index),
                           name=f"replica-{index}")


def _bounded(config):
    return ServingFrontend([_replica(i) for i in range(config.replicas)],
                           config)


def _faults(frontend):
    FaultInjector([DropMessages(at=1, count=4, kind="serve"),
                   AddLatency(at=8, seconds=0.02, count=2, kind="serve")]) \
        .attach_fabric(frontend.network)


def _bounded_run(frontend, trace):
    report = frontend.serve(trace)
    return {
        "report": [report.offered, report.completed, report.shed,
                   report.makespan_s, report.p50_latency_s,
                   report.p99_latency_s, report.mean_batch,
                   report.final_batch_target, report.cache_hits,
                   report.cache_misses],
        "batch_sizes": report.batch_sizes,
        "batch_index": [o.batch_index for o in report.completed_requests],
        "latencies": _digest(report.latencies_s),
        "dispatcher": [frontend.dispatcher.busy_s,
                       frontend.dispatcher.stalled_s],
        "metrics": _digest(frontend.metrics.export_json()),
    }


# -- the bounded queue ----------------------------------------------------------
def test_bounded_queue_under_drops_and_latency():
    """Before the codes wire: p50/p99 0.021171739353309182 /
    0.07603337480534703, mean batch 7.37037037037037, 170 hits / 30
    misses, 27 batches ``[1, 4, 12, 21, 44, 2, 12, 29, 10, 9, 1, 6, 2,
    10, 1, 5, 1, 5, 2, 6, 1, 7, 4, 1, 1, 1, 1]``, batch index
    2a0d3f7cfd5a72d8, latencies 6e4cd52b36f061f5, busy
    0.18411937617683374 s, metrics 1c18ef1626606fc2."""
    frontend = _bounded(ServingConfig(replicas=2))
    _faults(frontend)
    got = _bounded_run(frontend, open_loop_requests(200, 1500.0, seed=0,
                                                    pool_size=16))
    assert got["report"] == [
        200, 199, {"queue_full": 0, "deadline": 0, "dispatch_failed": 1},
        0.14869634741904697, 0.02114820914054323, 0.07600200118832576,
        7.653846153846154, 256, 169, 31]
    assert got["batch_sizes"] == [
        1, 4, 12, 21, 44, 2, 12, 29, 10, 8, 2, 6, 3, 6, 4, 5, 5, 2, 7, 1,
        7, 2, 3, 1, 1, 1]
    # the failed first batch was numbered 1: it used up its index
    assert got["batch_index"][:3] == [2, 3, 3]
    assert _digest(got["batch_index"]) == "56cc127e6877321c"
    assert got["latencies"] == "ed994058f70e12d1"
    assert got["dispatcher"] == [0.18323747713578228, 0.11000000000000001]
    assert got["metrics"] == "b97db2633a3d241b"


def test_bounded_queue_sheds_on_a_full_queue_at_20000_rps():
    """Before the codes wire: busy 0.026047602132224852 s, metrics
    ff16360a7449294e."""
    frontend = _bounded(ServingConfig(queue_capacity=4))
    got = _bounded_run(frontend, open_loop_requests(300, 20000.0, seed=1,
                                                    pool_size=32))
    assert got["report"][:3] == [
        300, 9, {"queue_full": 291, "deadline": 0, "dispatch_failed": 0}]
    assert got["batch_sizes"] == [1, 4, 4]
    assert got["batch_index"] == [1, 2, 2, 2, 2, 3, 3, 3, 3]
    assert got["dispatcher"] == [0.026033876174778047, 0.0]
    assert got["metrics"] == "3a967a4352e8ad98"


def test_serve_uploads_ladder_places_and_labels_as_before():
    """Four rungs of ``serve_uploads`` on a 4-store, replication-2
    cluster: photo id -> label and location.  The photos digest was
    re-pinned when uploads began passing the front door (labels of the
    rounded codes; 0b7336da1c7ee031 before) and did not move when misses
    began crossing as codes; the rungs' p99s did (8f200d3f066b0079
    before)."""
    cluster = NDPipeCluster(lambda: tiny_model("ResNet50"),
                            ClusterConfig(num_stores=4, replication=2))
    photos, reports = [], []
    for i, rate in enumerate((250.0, 500.0, 1000.0, 2000.0)):
        trace = open_loop_requests(120, rate, seed=17 + i, pool_size=120,
                                   skew=0.0, pool_seed=500_026 + i)
        report, ids = cluster.serve_uploads(trace, ServingConfig(replicas=2))
        reports.append([report.completed, report.p99_latency_s,
                        len(report.batch_sizes)])
        photos += [(pid, cluster.database.lookup(pid).label,
                    cluster.database.lookup(pid).location) for pid in ids]
    assert [r[0] for r in reports] == [120, 120, 120, 120]
    assert _digest(reports) == "130df1ce425ef0ee"
    assert _digest(photos) == "156e61d79fa6f575"


# -- the credit window ----------------------------------------------------------
def _stream_outcome(o):
    return [o.request_id, o.status, o.t_resolved_s, o.label, o.latency_s,
            o.replica, o.batch_index, o.batch_size, o.cache_hit]


def test_credit_window_under_drops_latency_and_cancels():
    """Before the codes wire: 117 completed, 83 expired, 24 out of order;
    outcomes 1b4117a77c59a879, completion order 66d2d2b98c66a1c7, credit
    waits f8073f8c2d59df1f, metrics 0aab6598764af3c1."""
    config = ServingConfig(replicas=2, max_batch=16)
    stream = StreamConfig(credits=8, min_replicas=1, max_replicas=3,
                          window=4, cooldown=4)
    frontend = StreamingFrontend(_replica, config, stream)
    _faults(frontend)
    trace = open_loop_requests(200, 3000.0, seed=4, pool_size=16)
    cancels = {trace[i].request_id: t for i, t in
               ((3, 0.0), (10, 0.004), (40, 0.01), (41, 0.0125),
                (90, 0.03), (150, 0.2), (7, 1e-5))}
    report = frontend.serve(trace, cancels)
    assert [report.completed, report.cancelled, report.expired,
            report.queue_full, report.redispatches, report.out_of_order,
            report.scale_ups, report.scale_downs] == [
        114, 0, 86, 0, 1, 27, 1, 0]
    assert _digest([_stream_outcome(o) for o in report.outcomes]) == \
        "961d20345f05ae4b"
    assert _digest(report.completion_order) == "82329b0a707c84a9"
    assert _digest(report.credit_waits_s) == "f2080a926db59880"
    assert _digest(frontend.metrics.export_json()) == "a271b189119f6fb5"


def test_negative_arrival_and_cancel_times_are_accepted():
    """Times below 0 run at clock 0, in time order: a cancel at -0.02
    runs before the arrival it names and is a no-op, one at -0.001
    catches its request waiting for a credit.  Outcomes ea919c2b6f4b2f5c
    before the codes wire (their times moved, nothing else)."""
    trace = [r._replace(arrival_s=r.arrival_s - 0.01)
             for r in open_loop_requests(40, 2000.0, seed=5, pool_size=8)]
    assert trace[0].arrival_s < 0
    frontend = StreamingFrontend(_replica, ServingConfig(replicas=1),
                                 StreamConfig(credits=4, min_replicas=1,
                                              max_replicas=2, window=2,
                                              cooldown=2))
    report = frontend.serve(trace, {trace[2].request_id: -0.02,
                                    trace[5].request_id: -0.001})
    assert (report.completed, report.cancelled) == (39, 1)
    assert report.conserved
    assert _digest([_stream_outcome(o) for o in report.outcomes]) == \
        "16dac3f7db009c1c"
    bounded = _bounded(ServingConfig(replicas=1)).serve(trace)
    assert bounded.completed == 40 and bounded.conserved


# -- one loop: the protocol is the StreamConfig ---------------------------------
def test_streaming_frontend_without_a_stream_config_is_the_bounded_queue():
    config = ServingConfig(replicas=2)
    trace = open_loop_requests(200, 1500.0, seed=0, pool_size=16)
    bounded = _bounded(config)
    unconfigured = StreamingFrontend(_replica, config)
    for frontend in (bounded, unconfigured):
        _faults(frontend)
    want, got = bounded.serve(trace), unconfigured.serve(trace)
    assert got.to_dict() == want.to_dict()
    assert got.latencies_s == want.latencies_s
    assert unconfigured.metrics.export_json() == \
        bounded.metrics.export_json()


def test_tied_arrivals_dispatch_on_each_arrival():
    """Twelve arrivals in three instants of four on two replicas.  The
    bounded-queue pull loop batched each instant whole ([4, 4, 4]); the
    one loop dispatches on each arrival, so the first two ride alone on
    the two free replicas and the rest wait for the first to free.
    Whether to hold a request for company is the batcher's policy, not
    the loop's."""
    pixels = np.random.default_rng(3).random((3, 16, 16))
    tied = [ServeRequest(f"t{i}", 0.001 * (i // 4), pixels)
            for i in range(12)]
    report = _bounded(ServingConfig(replicas=2, initial_batch=4)).serve(tied)
    assert report.batch_sizes == [1, 1, 10]
    assert [o.request_id for o in report.completed_requests][:2] == \
        ["t0", "t1"]
    assert report.completed == 12 and report.conserved
    # 0.010388069119528841 before the codes wire
    assert report.p99_latency_s == pytest.approx(0.010386108268465012)
