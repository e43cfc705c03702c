"""Pooled front, logical clock: replicas run their frozen front over
misses pooled across logical batches, and nothing logical moves.

The oracle is the arithmetic serving ran before pooling, kept here: a
replica that computes each logical batch at dispatch — its front over
that batch's misses, one classifier tail over its rows.  Every logical
fact (latencies, batch sizes, sheds, makespan, cache books, completion
order, credit waits, scale events, fabric bytes) and every answer (label
and confidence, bit for bit) of the pooled replicas equals the oracle's.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataplane import InferenceServer, PendingAnswers
from repro.core.pipestore import softmax_top1
from repro.faults import DropMessages, FaultInjector
from repro.models.registry import TINY_FACTORIES, tiny_model
from repro.models.split import FRONT_ROWS
from repro.nn.tensor import Tensor, inference_mode
from repro.serving import (
    ReplicaDispatcher,
    ServingConfig,
    ServingFrontend,
    StreamConfig,
    StreamingFrontend,
)
from repro.storage.imageformat import model_input, quantise
from repro.workloads.continuous import open_loop_requests


class PerBatchReplica(InferenceServer):
    """The oracle: every logical batch computed when it is dispatched —
    the body ``InferenceServer.classify_split`` had before pooling, over
    the model inputs its misses' codes expand to."""

    def submit(self, misses, rows, flush_at):
        split = self.split
        with inference_mode():
            fresh = (None if misses is None else self.model.forward_until(
                Tensor(model_input(misses)), split).data)
            features = np.stack([fresh[row] if isinstance(row, int) else row
                                 for row in rows])
            logits = self.model.forward_from(Tensor(features), split).data
        answers = PendingAnswers(self, [])
        answers.settle(softmax_top1(logits))
        return answers, (None if fresh is None else list(fresh))


def _model(index):
    return tiny_model("ResNet50", num_classes=8, width=8, seed=index % 2)


def _sync(cls, config, drops=()):
    frontend = ServingFrontend(
        [cls(_model(i), name=f"replica-{i}") for i in range(config.replicas)],
        config)
    _attach(frontend, drops)
    return frontend


def _stream(cls, config, stream, drops=()):
    frontend = StreamingFrontend(
        lambda i: cls(_model(i), name=f"replica-{i}"), config, stream)
    _attach(frontend, drops)
    return frontend


def _attach(frontend, drops):
    if drops:
        FaultInjector([DropMessages(at=at, count=count, kind="serve")
                       for at, count in drops]).attach_fabric(frontend.network)


def _cache_books(report):
    return (report.cache_hits, report.cache_misses, report.cache_evictions,
            report.cache_rejected_oversize, report.final_batch_target)


CONFIGS = st.sampled_from([
    # a small max_batch flushes pools mid-serve; a small cache evicts
    # rows that are still promises
    dict(replicas=2, max_batch=8),
    dict(replicas=2, max_batch=16, cache_capacity_bytes=12 * 2048),
    dict(replicas=3, max_batch=256),
    dict(replicas=1, max_batch=4, cache_capacity_bytes=4 * 2048),
])
DROPS = st.lists(st.tuples(st.integers(1, 30), st.integers(1, 6)),
                 max_size=2)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_requests=st.integers(1, 80),
       rate_rps=st.sampled_from([300.0, 3000.0, 30000.0]),
       pool_size=st.sampled_from([4, 16, 200]), config=CONFIGS, drops=DROPS)
def test_sync_logical_and_answer_pin(seed, num_requests, rate_rps, pool_size,
                                     config, drops):
    """(a) + (c) on the synchronous front end."""
    config = ServingConfig(**config)
    trace = open_loop_requests(num_requests, rate_rps, seed=seed,
                               pool_size=pool_size)
    pooled = _sync(InferenceServer, config, drops)
    oracle = _sync(PerBatchReplica, config, drops)
    got, want = pooled.serve(trace), oracle.serve(trace)
    assert got.latencies_s == want.latencies_s
    assert got.batch_sizes == want.batch_sizes
    assert got.shed == want.shed
    assert got.makespan_s == want.makespan_s
    assert _cache_books(got) == _cache_books(want)
    assert pooled.network.total_bytes == oracle.network.total_bytes
    assert ([(o.request.request_id, o.label, o.confidence, o.cache_hit,
              o.replica, o.batch_index) for o in got.completed_requests]
            == [(o.request.request_id, o.label, o.confidence, o.cache_hit,
                 o.replica, o.batch_index) for o in want.completed_requests])
    assert all(o.label is not None for o in got.completed_requests)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_requests=st.integers(1, 80),
       rate_rps=st.sampled_from([300.0, 3000.0, 30000.0]),
       pool_size=st.sampled_from([4, 16, 200]), config=CONFIGS, drops=DROPS,
       credits=st.integers(1, 32), autoscale=st.booleans(),
       cancel_draws=st.lists(st.tuples(st.integers(0, 79),
                                       st.floats(0.0, 0.05)), max_size=10))
def test_stream_logical_and_answer_pin(seed, num_requests, rate_rps,
                                       pool_size, config, drops, credits,
                                       autoscale, cancel_draws):
    """(b) + (c) on the streaming front end, cancels included."""
    config = ServingConfig(**config)
    stream = StreamConfig(credits=credits, min_replicas=1, max_replicas=3,
                          window=4, cooldown=4, autoscale=autoscale)
    trace = open_loop_requests(num_requests, rate_rps, seed=seed,
                               pool_size=pool_size)
    cancels = {trace[i % num_requests].request_id: t
               for i, t in cancel_draws}
    pooled = _stream(InferenceServer, config, stream, drops)
    oracle = _stream(PerBatchReplica, config, stream, drops)
    got, want = pooled.serve(trace, cancels), oracle.serve(trace, cancels)
    assert got.to_dict() == want.to_dict()
    assert got.latencies_s == want.latencies_s
    assert got.batch_sizes == want.batch_sizes
    assert got.completion_order == want.completion_order
    assert got.credit_waits_s == want.credit_waits_s
    assert (got.scale_ups, got.scale_downs, got.peak_replicas) == (
        want.scale_ups, want.scale_downs, want.peak_replicas)
    assert pooled.network.total_bytes == oracle.network.total_bytes
    assert [vars(o) for o in got.outcomes] == [vars(o) for o in want.outcomes]


# -- (d) the premise: front rows do not depend on the batch around them ------
def _rows_at_every_cut(model, inputs, size):
    """Rows after each frozen stage (cut 1 .. num_stages - 1), the stages
    run directly over ``size``-row slices of ``inputs``: one whole-batch
    front pass when ``size`` is ``len(inputs)``."""
    cuts = [[] for _ in model.front.stages]
    for start in range(0, len(inputs), size):
        part = Tensor(inputs[start:start + size])
        for rows, stage in zip(cuts, model.front.stages):
            part = stage(part)
            rows.append(part.data.copy())  # the next stage may reuse it
    return [np.concatenate(rows) for rows in cuts]


@pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
def test_front_rows_are_batch_invariant(name):
    """At every cut, one whole-batch front pass gives the rows (bytes)
    that sub-batches of 1, 7 and ``FRONT_ROWS`` rows give, and so does
    ``forward_until`` of the whole batch, which takes its own."""
    model = tiny_model(name).freeze_features().eval()
    count = 2 * FRONT_ROWS + 5
    inputs = model_input(quantise(np.random.default_rng(1).random(
        (count,) + model.input_shape)))
    with inference_mode():
        whole = _rows_at_every_cut(model, inputs, count)
        for size in (1, 7, FRONT_ROWS):
            parts = _rows_at_every_cut(model, inputs, size)
            for cut, (got, want) in enumerate(zip(parts, whole), start=1):
                assert got.tobytes() == want.tobytes(), (size, cut)
        for cut, want in enumerate(whole, start=1):
            got = model.forward_until(Tensor(inputs), cut).data
            assert got.tobytes() == want.tobytes(), cut


# -- (e) edge cases -----------------------------------------------------------
def _misses(count, seed=0):
    return quantise(np.random.default_rng(seed).random((count, 3, 16, 16)))


def test_flush_at_max_batch_and_at_the_end_answer_alike():
    """Pools flushed as they fill and one pool flushed at the end give the
    same rows and answers as computing every batch alone."""
    batches = [_misses(n, seed=n) for n in (3, 1, 5, 2, 4)]
    rows = [list(range(len(b))) for b in batches]
    outcomes = []
    for flush_at in (2, 4, 10_000):
        replica = InferenceServer(_model(0))
        pending = [replica.submit(b, r, flush_at)
                   for b, r in zip(batches, rows)]
        replica.resolve()
        outcomes.append([(a.results(), np.stack([p.value() for p in f]))
                         for a, f in pending])
    oracle = PerBatchReplica(_model(0))
    alone = [oracle.submit(b, r, 1) for b, r in zip(batches, rows)]
    for got in outcomes:
        for (results, fresh), (answers, want) in zip(got, alone):
            assert results == answers.results()
            np.testing.assert_array_equal(fresh, np.stack(want))


def test_a_pool_fills_to_max_batch_and_resolves_itself():
    replica = InferenceServer(_model(0))
    first, _ = replica.submit(_misses(3), [0, 1, 2], flush_at=5)
    assert first._results is None
    second, fresh = replica.submit(_misses(2, seed=1), [1, 0], flush_at=5)
    assert first._results is not None and second._results is not None
    assert all(row.computed() is not None for row in fresh)


def test_a_changed_front_with_pending_work_raises():
    """A replica never answers with another front than the one its
    pending rows were keyed on."""
    replica = InferenceServer(_model(0))
    replica.submit(_misses(2), [0, 1], flush_at=256)
    state = replica.model.state_dict()
    replica.model.adopt({  # behind sync_model's back
        key: value * 1.01 for key, value in state.items()
        if key.startswith("stage_Conv1.")})
    with pytest.raises(RuntimeError, match="front weights changed"):
        replica.resolve()


def test_sync_model_answers_pending_work_with_the_weights_it_had():
    replica = InferenceServer(_model(0))
    oracle = PerBatchReplica(_model(0))
    inputs = _misses(3)
    answers, _fresh = replica.submit(inputs, [0, 1, 2], flush_at=256)
    want, _ = oracle.submit(inputs, [0, 1, 2], flush_at=256)
    state = replica.model.state_dict()
    replica.sync_model({key: value * 1.5 if key.startswith("stage_FC.")
                        else value for key, value in state.items()})
    assert answers.results() == want.results()


def test_a_retired_replica_still_answers_what_it_took(monkeypatch):
    """An autoscaler scale-down removes a replica holding pending work;
    its requests still get their answers, and they are the oracle's."""
    retired = []
    remove = ReplicaDispatcher.remove_idle_replica

    def spying(dispatcher, now_s):
        before = list(dispatcher.replicas)
        name = remove(dispatcher, now_s)
        if name is not None:
            gone = next(r for r in before if r.name == name)
            retired.append((name, len(gone._owed)))
        return name

    monkeypatch.setattr(ReplicaDispatcher, "remove_idle_replica", spying)
    config = ServingConfig(replicas=2, max_batch=64)
    stream = StreamConfig(min_replicas=1, max_replicas=3, window=2,
                          cooldown=2)
    trace = open_loop_requests(200, 600.0, seed=3, pool_size=200)
    got = _stream(InferenceServer, config, stream).serve(trace)
    assert any(owed for _name, owed in retired)
    monkeypatch.undo()
    want = _stream(PerBatchReplica, config, stream).serve(trace)
    assert got.scale_downs == want.scale_downs > 0
    by_retired = [o for o in got.outcomes
                  if o.replica in {name for name, _ in retired}]
    assert by_retired and all(o.label is not None for o in by_retired)
    assert [vars(o) for o in got.outcomes] == [vars(o) for o in want.outcomes]


def test_a_cancel_latched_answer_is_still_discarded():
    config = ServingConfig(replicas=1, min_batch=1, max_batch=8,
                           initial_batch=4)
    stream = StreamConfig(min_replicas=1, max_replicas=1, autoscale=False)
    trace = open_loop_requests(6, 30000.0, seed=2, pool_size=6)
    frontend = _stream(InferenceServer, config, stream)
    # in flight from t=0 (the first dispatch is work-conserving)
    tick = frontend.dispatcher.min_service_s() / 8
    report = frontend.serve(trace, {trace[0].request_id: tick})
    latched = [o for o in report.outcomes
               if o.request_id == trace[0].request_id]
    assert latched[0].status == "cancelled" and latched[0].label is None
    assert latched[0].batch_index is not None  # it rode a batch
    assert all(o.label is not None for o in report.outcomes
               if o.status == "completed")


# -- the drained-replica timeline ----------------------------------------------
def _spy_on_starts(monkeypatch):
    """Record (replica free_at, batch start) at every dispatch."""
    starts = []
    dispatch = ReplicaDispatcher.dispatch

    def spying(dispatcher, index, misses, rows, t_start):
        starts.append((dispatcher._free_at[index], t_start))
        return dispatch(dispatcher, index, misses, rows, t_start)

    monkeypatch.setattr(ReplicaDispatcher, "dispatch", spying)
    return starts


@pytest.mark.parametrize("front_end", ["sync", "stream"])
def test_no_batch_starts_before_its_replica_is_free_with_one_drained(
        monkeypatch, front_end):
    """With ``r1`` drained, every batch lands on ``r0`` and must start no
    earlier than ``r0`` frees.  The start time used to be the minimum over
    *all* replicas, the idle drained one included, so one replica seemed
    to serve 2 000 rps with no queue at all."""
    starts = _spy_on_starts(monkeypatch)
    config = ServingConfig(replicas=2)
    trace = open_loop_requests(200, 2000.0, seed=0, pool_size=200)
    if front_end == "sync":
        frontend = _sync(InferenceServer, config)
    else:
        frontend = _stream(InferenceServer, config, StreamConfig(
            min_replicas=2, max_replicas=2, autoscale=False))
    assert frontend.dispatcher.drain(frontend.dispatcher.replicas[1].name)
    report = frontend.serve(trace)
    assert len(starts) > 1
    assert all(t_start >= free_at for free_at, t_start in starts)
    assert frontend.dispatcher._free_at[1] == 0.0  # the drained one idled
    # one replica at 2 000 rps queues: the tail is past a lone batch's cost
    assert report.latency_percentile(99) > frontend.dispatcher.min_service_s()
