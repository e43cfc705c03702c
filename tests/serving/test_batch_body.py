"""The one batch body behind both front ends (MicroBatcher).

What both serving loops share is tested once here: row assembly, the
answers, where cache probes are counted, that a failed dispatch caches
nothing, what the batch controller is fed, and that a flash crowd no
longer collapses the target to batch 1.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster import InferenceServer
from repro.faults import DropMessages, FaultInjector
from repro.faults.errors import TransientFaultError
from repro.models.registry import tiny_model
from repro.nn.tensor import Tensor, inference_mode
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    StreamConfig,
    StreamingFrontend,
)
from repro.serving.admission import ServeRequest
from repro.serving.bench import STREAM_BENCH_DEFAULTS, run_streaming_bench
from repro.serving.cache import content_key
from repro.serving.stream import _ServeRun
from repro.storage.imageformat import preprocess, quantise
from repro.workloads.continuous import open_loop_requests


def _replica(config, index=0):
    return InferenceServer(tiny_model("ResNet50", seed=index),
                           name=f"replica-{index}")


def _sync(config=None):
    config = config if config is not None else ServingConfig()
    return ServingFrontend(
        [_replica(config, i) for i in range(config.replicas)], config)


def _stream(config=None, stream=None):
    config = config if config is not None else ServingConfig()
    if stream is None:
        stream = StreamConfig(min_replicas=config.replicas,
                              max_replicas=config.replicas, autoscale=False)
    return StreamingFrontend(lambda i: _replica(config, i), config, stream)


def _trace(num_requests=120, rate_rps=2000.0, seed=0, **kwargs):
    return open_loop_requests(num_requests=num_requests, rate_rps=rate_rps,
                              seed=seed, **kwargs)


def _metric(frontend, name, **labels):
    return frontend.metrics.get(name).value(**labels)


# -- assembly and answers -----------------------------------------------------
def test_rows_are_split_point_features_hit_or_miss():
    """Every request, hit or miss, passes the front door once; a miss
    leaves its split-point row in the cache under its codes; a repeat
    (later in the batch, or a later batch) is a hit, and the tail over
    cached rows answers bit for bit what the tail over fresh rows did."""
    frontend = _sync()
    trace = _trace(num_requests=12, pool_size=4)
    cold = frontend.batcher.run(trace, 0.0)
    warm = frontend.batcher.run(trace, 1.0)
    keys = [content_key(r.pixels) for r in trace]
    firsts = [keys.index(key) == at for at, key in enumerate(keys)]
    assert cold.hits == [not first for first in firsts]
    assert all(warm.hits)
    for batch in (cold, warm):
        for request, codes in zip(trace, batch.codes):
            np.testing.assert_array_equal(codes, quantise(request.pixels))
    assert warm.results == cold.results

    replica = frontend.dispatcher.replicas[0]
    distinct = [r.pixels for r, first in zip(trace, firsts) if first]
    with inference_mode():
        want = replica.model.forward_until(
            Tensor(preprocess(quantise(np.stack(distinct)) / 255)),
            replica.split).data
    _keys, rows = frontend.cache.lookup(quantise(np.stack(distinct)),
                                        replica.front_digest())
    np.testing.assert_array_equal(np.stack(rows), want)
    assert frontend.cache.resident_bytes == want.nbytes


def _mixed_batches(outcomes):
    """Batch indices holding both cache hits and misses."""
    kinds = {}
    for batch_index, hit in outcomes:
        kinds.setdefault(batch_index, set()).add(hit)
    return [index for index, seen in kinds.items() if len(seen) == 2]


def test_answers_equal_single_photo_classify_on_both_front_ends():
    """Labels per request equal a cold ``classify(pixels)`` whether the
    request ran the front or only the tail over its cached row, in
    batches mixing both; confidences inside the batched-vs-single
    tolerance tests/test_equivalence.py states."""
    trace = _trace(num_requests=150, rate_rps=4000.0, pool_size=24)
    pixels = {r.request_id: r.pixels for r in trace}
    oracle = _replica(ServingConfig())
    sync = _sync().serve(trace, collect_codes=True)
    answers = [(o.request.request_id, o.label, o.confidence)
               for o in sync.completed_requests]
    for outcome in sync.completed_requests:
        np.testing.assert_array_equal(outcome.codes,
                                      quantise(outcome.request.pixels))
    assert _mixed_batches((o.batch_index, o.cache_hit)
                          for o in sync.completed_requests)
    stream = _stream().serve(trace)
    done = [o for o in stream.outcomes if o.label is not None]
    answers += [(o.request_id, o.label, o.confidence) for o in done]
    assert _mixed_batches((o.batch_index, o.cache_hit) for o in done)
    assert len(answers) == sync.completed + stream.completed
    assert max(sync.batch_sizes + stream.batch_sizes) > 1
    assert sync.cache_hits > 0 and stream.cache_hits > 0
    for rid, label, confidence in answers:
        want_label, want_confidence = oracle.classify(pixels[rid])
        assert label == want_label, rid
        np.testing.assert_allclose(confidence, want_confidence,
                                   rtol=1e-9, atol=1e-12)


# -- a failed dispatch teaches the cache nothing ------------------------------
def test_failed_dispatch_leaves_the_cache_unchanged():
    """Rows enter the cache only after their batch was served: a batch
    every retry dropped leaves the entries as they were (its probes are
    counted), and its redispatch misses again."""
    frontend = _sync()
    trace = _trace(num_requests=10, pool_size=4)
    warmup = trace[:2]
    frontend.batcher.run(warmup, 0.0)
    entries = frontend.cache.stats()
    keys_before = list(frontend.cache._entries)
    FaultInjector([DropMessages(
        at=1, count=frontend.retry.max_attempts, kind="serve")]) \
        .attach_fabric(frontend.network)
    with pytest.raises(TransientFaultError):
        frontend.batcher.run(trace, 1.0)
    after = frontend.cache.stats()
    assert list(frontend.cache._entries) == keys_before
    for name in ("entries", "resident_bytes", "evictions",
                 "rejected_oversize"):
        assert after[name] == entries[name], name
    assert after["hits"] + after["misses"] == (
        entries["hits"] + entries["misses"] + len(trace))

    redo = frontend.batcher.run(trace, 2.0)
    warm = {content_key(r.pixels) for r in warmup}
    seen = set()
    for request, hit in zip(trace, redo.hits):
        key = content_key(request.pixels)
        assert hit == (key in warm or key in seen)
        seen.add(key)
    assert len(frontend.cache) == len(seen | warm)
    # the families a scrape reads match the cache's own books
    assert (_metric(frontend, "serving_cache_misses_total")
            == frontend.cache.stats()["misses"])


# -- cache families vs the report when a dispatch fails -----------------------
def test_sync_cache_families_match_report_when_a_dispatch_fails():
    frontend = _sync()
    FaultInjector([DropMessages(at=1, count=4, kind="serve")]) \
        .attach_fabric(frontend.network)
    report = frontend.serve(_trace(pool_size=16))
    assert report.shed["dispatch_failed"] > 0
    probes = report.cache_hits + report.cache_misses
    assert (_metric(frontend, "serving_cache_hits_total")
            + _metric(frontend, "serving_cache_misses_total")) == probes
    # the shed batch probed the cache too
    assert probes == report.completed + report.shed["dispatch_failed"]


def test_stream_cache_families_match_report_when_a_dispatch_fails():
    frontend = _stream()
    FaultInjector([DropMessages(at=1, count=4, kind="serve")]) \
        .attach_fabric(frontend.network)
    report = frontend.serve(_trace(pool_size=16))
    assert report.redispatches > 0 and report.completed == 120
    assert (_metric(frontend, "serving_cache_hits_total")
            == report.cache_hits)
    assert (_metric(frontend, "serving_cache_misses_total")
            == report.cache_misses)
    # a redispatched request probes again; the dropped batch cached
    # nothing, so its misses miss a second time
    assert (report.cache_hits + report.cache_misses
            == report.completed + report.redispatches)
    assert report.cache_misses > 16 and len(frontend.cache) == 16


# -- what the controller is fed -----------------------------------------------
def test_fully_cancelled_batch_still_steers_the_target():
    """The batch ran and cost its service time even though every answer
    was discarded: the batch controller hears about it (the autoscaler,
    which needs a sojourn sample, does not)."""
    config = ServingConfig(replicas=1, min_batch=1, max_batch=8,
                           initial_batch=4)
    frontend = _stream(config)
    pixels = np.random.default_rng(3).random((3, 16, 16))
    trace = [ServeRequest(request_id=f"r{i}", arrival_s=0.0, pixels=pixels)
             for i in range(4)]
    # r0 dispatches alone at t=0 (work-conserving); it is cancelled in
    # flight, r1..r3 while pending — no batch ever delivers an answer
    tick = frontend.dispatcher.min_service_s() / 8
    report = frontend.serve(trace, {r.request_id: tick for r in trace})
    assert report.completed == 0 and report.cancelled == 4
    assert report.conserved and report.batch_sizes == [1]
    # one cheap batch: well under budget * SLO_HEADROOM, so +ADDITIVE_STEP
    assert frontend.controller.batch_size == 8
    assert report.final_batch_target == 8
    assert _metric(frontend, "serving_batch_target") == 8
    assert _metric(frontend, "serving_batch_target_changes_total",
                   direction="up") == 1


def test_target_gauge_follows_the_controller_on_both_front_ends():
    for frontend in (_sync(), _stream()):
        seed = frontend.controller.batch_size
        assert _metric(frontend, "serving_batch_target") == seed
        report = frontend.serve(_trace(num_requests=400, rate_rps=20000.0,
                                       pool_size=8))
        controller = frontend.controller
        assert (_metric(frontend, "serving_batch_target")
                == controller.batch_size == report.final_batch_target)
        changes = frontend.metrics.get("serving_batch_target_changes_total")
        assert changes.value(direction="down") == controller.decreases
        assert changes.value(direction="up") == controller.increases


# -- the flash crowd no longer collapses to batch 1 ---------------------------
def _spy_on_dispatch(monkeypatch):
    """Record (target, waiting, batch) at every streaming dispatch."""
    instants = []
    dispatch = _ServeRun._dispatch

    def spying(run, ready):
        instants.append((run.f.controller.batch_size,
                         len(ready) + run.queue.depth(), len(ready)))
        return dispatch(run, ready)

    monkeypatch.setattr(_ServeRun, "_dispatch", spying)
    return instants


def test_flash_crowd_does_not_collapse_to_batch_one(monkeypatch):
    """The ``repro perf`` serving_stream smoke config.  Before the
    controller steered on service time this trace ran at mean batch 1.6
    with the target pinned at 1 and six replicas."""
    instants = _spy_on_dispatch(monkeypatch)
    s = run_streaming_bench(seed=0)["streaming"]
    assert s["completed"] == STREAM_BENCH_DEFAULTS["num_requests"]
    assert s["mean_batch"] >= 8
    assert s["final_batch_target"] > 1
    assert len(instants) > 100
    min_batch = ServingConfig().min_batch
    for target, waiting, batch in instants:
        assert batch <= target
        # never starved at the floor while a line is waiting
        assert not (target == min_batch and waiting > target)


# -- conservation, credit law, batch <= target under chaos --------------------
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000),
       num_requests=st.integers(1, 60),
       rate_rps=st.sampled_from([300.0, 3000.0, 30000.0]),
       credits=st.integers(1, 32),
       cancel_draws=st.lists(
           st.tuples(st.integers(0, 59), st.floats(0.0, 0.2)), max_size=12),
       drops=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 6)),
                      max_size=2))
def test_stream_laws_hold_over_traces_cancels_and_drops(
        monkeypatch, seed, num_requests, rate_rps, credits, cancel_draws,
        drops):
    instants = _spy_on_dispatch(monkeypatch)
    try:
        config = ServingConfig(replicas=2, max_batch=16)
        frontend = _stream(config, StreamConfig(
            credits=credits, min_replicas=1, max_replicas=3, window=4,
            cooldown=4))
        FaultInjector([DropMessages(at=at, count=count, kind="serve")
                       for at, count in drops]) \
            .attach_fabric(frontend.network)
        trace = _trace(num_requests=num_requests, rate_rps=rate_rps,
                       seed=seed, pool_size=8)
        cancels = {trace[i % num_requests].request_id: t
                   for i, t in cancel_draws}
        # serve() itself raises on a conservation or credit-law violation
        report = frontend.serve(trace, cancels)
        assert report.conserved and report.queue_full == 0
        assert report.offered == (report.completed + report.cancelled
                                  + report.expired)
        assert all(batch <= target for target, _waiting, batch in instants)
        assert all(1 <= size <= config.max_batch
                   for size in report.batch_sizes)
        dispatcher = frontend.dispatcher
        assert (dispatcher.batches_attempted
                == dispatcher.batches_dispatched + dispatcher.batches_failed)
        assert (_metric(frontend, "serving_cache_hits_total")
                + _metric(frontend, "serving_cache_misses_total")
                == report.cache_hits + report.cache_misses)
    finally:
        monkeypatch.undo()



def test_line_wakes_when_only_a_stalled_replica_remains():
    """A failed dispatch stalls replica 0 with no completion event to
    follow; when the autoscaler retires the idle replica 1 the last
    request must still be woken once the stall ends (the event loop
    used to drain with it pending — found by the sweep above)."""
    config = ServingConfig(replicas=2, max_batch=16)
    frontend = _stream(config, StreamConfig(
        credits=1, min_replicas=1, max_replicas=3, window=4, cooldown=4))
    FaultInjector([DropMessages(at=1, count=4, kind="serve")]) \
        .attach_fabric(frontend.network)
    report = frontend.serve(_trace(num_requests=5, rate_rps=300.0,
                                   pool_size=8))
    assert report.completed == 5 and report.redispatches == 1
    assert report.scale_downs == 1 and report.conserved
