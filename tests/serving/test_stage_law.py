"""The stage law: each replica is a host-CPU stage, then an accelerator.

:meth:`~repro.serving.dispatcher.ReplicaDispatcher.dispatch` charges a
batch's wire and its misses' preprocessing to the replica's CPU stage
and its launch, front, tail and upserts to the accelerator stage, which
starts once both the batch's CPU stage and the previous batch's
accelerator stage are done.  The serial sum ``service_s`` survives as
the oracle for a batch dispatched onto an idle replica.  The sweep
records every dispatch's stage intervals from the dispatcher's own
books and checks them against each law, under drains, drops and the
autoscaler.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.cluster import InferenceServer
from repro.core.fabric import NetworkFabric
from repro.faults import DropMessages, FaultInjector
from repro.faults.errors import TransientFaultError
from repro.faults.retry import RetryPolicy
from repro.models.registry import tiny_model
from repro.serving import (
    ReplicaDispatcher,
    ServingConfig,
    StreamConfig,
    StreamingFrontend,
)
from repro.serving.frontend import ServingFrontend
from repro.storage.imageformat import quantise
from repro.workloads.continuous import open_loop_requests

#: float slack on comparisons of logical times built by different sums
EPS = 1e-12


def _replica(index):
    return InferenceServer(tiny_model("ResNet50", num_classes=8, width=8,
                                      seed=index), name=f"replica-{index}")


def _dispatcher(num=1):
    return ReplicaDispatcher([_replica(i) for i in range(num)],
                             ServingConfig(replicas=num).validated(),
                             NetworkFabric(), RetryPolicy(max_attempts=2))


def _codes(num, seed=0):
    return quantise(np.random.default_rng(seed).random((num, 3, 16, 16)))


def _wire_s(dispatcher, misses, rows):
    payload = (0 if misses is None else misses.nbytes) + sum(
        row.nbytes for row in rows if not isinstance(row, int))
    return payload / dispatcher.network.spec.bytes_per_s


# -- the oracle and the release rule, batch by batch --------------------------
def test_an_isolated_batch_costs_the_serial_sum_plus_wire():
    dispatcher = _dispatcher()
    for seed, (num_misses, num_hits) in enumerate(((1, 0), (5, 3), (0, 4))):
        t_start = dispatcher.free_s(0) + 1.0  # idle in both stages
        misses = _codes(num_misses, seed) if num_misses else None
        row = np.zeros(dispatcher.replicas[0].model.feature_dim_after(
            dispatcher.replicas[0].split), np.float32)
        rows = list(range(num_misses)) + [row] * num_hits
        _, _, t_done, _ = dispatcher.dispatch(0, misses, rows, t_start)
        want = (dispatcher.service_s(len(rows), num_misses)
                + _wire_s(dispatcher, misses, rows))
        assert t_done - t_start == pytest.approx(want, rel=1e-12)
    assert dispatcher.busy_s == pytest.approx(
        dispatcher.cpu_busy_s + dispatcher.accelerator_busy_s, rel=1e-12)


def test_the_next_batch_preprocesses_while_the_previous_one_runs():
    """Two all-miss batches back to back: the second's CPU stage starts
    ``cpu_s`` before the first leaves the accelerator, and its
    accelerator stage starts the instant the first's ends."""
    dispatcher = _dispatcher()
    misses = _codes(8)
    rows = list(range(8))
    cpu_s = dispatcher.stage_s(8, 8)[0] + _wire_s(dispatcher, misses, rows)
    accelerator_s = dispatcher.stage_s(8, 8)[1]
    assert accelerator_s < cpu_s  # misses are preprocess-bound
    _, _, first_done, _ = dispatcher.dispatch(0, misses, rows, 0.0)
    assert first_done == pytest.approx(cpu_s + accelerator_s)
    second_start = dispatcher.free_s(0)
    # released at max(cpu_done, t_done - cpu_s): here cpu_done
    assert second_start == pytest.approx(cpu_s)
    _, _, second_done, _ = dispatcher.dispatch(0, misses, rows,
                                               second_start)
    assert second_done == pytest.approx(2 * cpu_s + accelerator_s)
    assert second_done - first_done < cpu_s + accelerator_s


def test_an_all_hit_batch_waits_for_the_accelerator_not_the_wire():
    """A hit batch has no preprocessing: its replica's CPU stage frees
    only its wire before the batch leaves the accelerator, so a cache-hit
    batch is not closed early only to wait."""
    dispatcher = _dispatcher()
    row = np.zeros(dispatcher.replicas[0].model.feature_dim_after(
        dispatcher.replicas[0].split), np.float32)
    rows = [row] * 16
    _, _, t_done, _ = dispatcher.dispatch(0, None, rows, 0.0)
    assert dispatcher.free_s(0) == pytest.approx(
        t_done - _wire_s(dispatcher, None, rows))


def test_deadline_floor_reads_the_picked_replicas_accelerator():
    dispatcher = _dispatcher()
    idle = dispatcher.deadline_floor_s(0.0, dispatcher.pick_replica())
    one_miss = _wire_s(dispatcher, _codes(1), [0])
    assert idle == pytest.approx(dispatcher.min_service_s() + one_miss)
    row = np.zeros(dispatcher.replicas[0].model.feature_dim_after(
        dispatcher.replicas[0].split), np.float32)
    _, _, t_done, _ = dispatcher.dispatch(0, None, [row] * 64, 0.0)
    # the accelerator holds the batch past one miss's CPU stage: the
    # floor waits for it
    assert t_done > idle
    assert dispatcher.deadline_floor_s(0.0, 0) == pytest.approx(
        t_done + dispatcher.stage_s(1, 1)[1])


def test_a_replica_busy_in_either_stage_is_not_retired():
    dispatcher = _dispatcher(num=2)
    _, _, t_done, _ = dispatcher.dispatch(1, _codes(8), list(range(8)), 0.0)
    cpu_free = dispatcher._free_at[1]
    assert cpu_free < t_done
    # CPU stage free, accelerator busy: replica 1 stays, idle 0 goes
    assert dispatcher.remove_idle_replica(cpu_free) == "replica-0"
    assert dispatcher.remove_idle_replica(cpu_free) is None
    dispatcher.add_replica(_replica(2), cpu_free)
    assert dispatcher.remove_idle_replica(t_done) == "replica-2"


# -- the sweep ----------------------------------------------------------------
class _StageLog:
    """Spies on dispatch and retirement; records each attempt's stage
    intervals per replica name from the dispatcher's own books."""

    def __init__(self, monkeypatch, drains=()):
        self.stages = {}  # name -> [(cpu_start, cpu_end, acc_start, acc_end)]
        self.isolated = []  # (t_done - t_start, stall_s, serial oracle)
        self.retired = []  # (name, now_s)
        self.drains = dict(drains)  # dispatch number -> replica slot
        log = self
        dispatch = ReplicaDispatcher.dispatch
        remove = ReplicaDispatcher.remove_idle_replica

        def spying(dispatcher, index, misses, rows, t_start):
            name = dispatcher.replicas[index].name
            intervals = log.stages.setdefault(name, [])
            idle = all(max(i[1], i[3] or 0.0) <= t_start + EPS
                       for i in intervals)
            cpu_before = dispatcher.cpu_busy_s
            accel_before = dispatcher.accelerator_busy_s
            stalled_before = dispatcher.stalled_s
            try:
                out = dispatch(dispatcher, index, misses, rows, t_start)
            except TransientFaultError:
                # the CPU stage was held for the lost retries
                lost_s = dispatcher.stalled_s - stalled_before
                intervals.append((t_start, t_start + lost_s, None, None))
                raise
            t_done = out[2]
            stall_s = dispatcher.stalled_s - stalled_before
            cpu_end = t_start + stall_s + dispatcher.cpu_busy_s - cpu_before
            accel_s = dispatcher.accelerator_busy_s - accel_before
            intervals.append((t_start, cpu_end, t_done - accel_s, t_done))
            if idle:
                num_misses = 0 if misses is None else len(misses)
                log.isolated.append((
                    t_done - t_start, stall_s,
                    dispatcher.service_s(len(rows), num_misses)
                    + _wire_s(dispatcher, misses, rows)))
            slot = log.drains.pop(dispatcher.batches_dispatched, None)
            if slot is not None:
                target = dispatcher.replicas[slot % dispatcher.num_replicas]
                if not dispatcher.drain(target.name):
                    dispatcher.undrain(target.name)
            return out

        def retiring(dispatcher, now_s):
            name = remove(dispatcher, now_s)
            if name is not None:
                log.retired.append((name, now_s))
            return name

        monkeypatch.setattr(ReplicaDispatcher, "dispatch", spying)
        monkeypatch.setattr(ReplicaDispatcher, "remove_idle_replica",
                            retiring)

    def check(self):
        for intervals in self.stages.values():
            for before, after in zip(intervals, intervals[1:]):
                # the CPU stage holds one batch at a time, in dispatch order
                assert after[0] >= before[1] - EPS
            ran = [i for i in intervals if i[2] is not None]
            for cpu_start, cpu_end, acc_start, acc_end in ran:
                assert cpu_start <= cpu_end <= acc_start + EPS
                assert acc_start <= acc_end
            for before, after in zip(ran, ran[1:]):
                # so does the accelerator
                assert after[2] >= before[3] - EPS
        for elapsed_s, stall_s, serial_s in self.isolated:
            assert elapsed_s == pytest.approx(serial_s + stall_s, rel=1e-9)
        for name, now_s in self.retired:
            # nothing of a retired replica was in either stage
            assert all(max(i[1], i[3] or 0.0) <= now_s + EPS
                       for i in self.stages.get(name, ()))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000),
       num_requests=st.integers(1, 80),
       rate_rps=st.sampled_from([300.0, 3000.0, 30000.0]),
       pool_size=st.sampled_from([4, 64, 10_000]),
       credit_window=st.booleans(),
       drops=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 6)),
                      max_size=2),
       drains=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 3)),
                       max_size=4))
def test_stage_laws_hold_over_batches_drains_and_drops(
        monkeypatch, seed, num_requests, rate_rps, pool_size, credit_window,
        drops, drains):
    try:
        log = _StageLog(monkeypatch, drains)
        config = ServingConfig(replicas=2, max_batch=16)
        if credit_window:
            frontend = StreamingFrontend(_replica, config, StreamConfig(
                credits=16, min_replicas=1, max_replicas=3, window=2,
                cooldown=2))
        else:
            frontend = ServingFrontend([_replica(i) for i in range(2)],
                                       config)
        FaultInjector([DropMessages(at=at, count=count, kind="serve")
                       for at, count in drops]) \
            .attach_fabric(frontend.network)
        trace = open_loop_requests(num_requests, rate_rps, seed=seed,
                                   pool_size=pool_size)
        report = frontend.serve(trace)
        assert report.offered == (report.completed + report.cancelled
                                  + report.expired + report.queue_full
                                  + report.dispatch_failed)
        dispatcher = frontend.dispatcher
        assert report.accelerator_busy_s == dispatcher.accelerator_busy_s
        assert dispatcher.busy_s == pytest.approx(
            dispatcher.cpu_busy_s + dispatcher.accelerator_busy_s)
        log.check()
    finally:
        monkeypatch.undo()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       num_requests=st.integers(1, 80),
       rate_rps=st.sampled_from([500.0, 3000.0, 30000.0]),
       pool_size=st.sampled_from([8, 64, 10_000]),
       deadline_s=st.floats(0.005, 0.012),
       credit_window=st.booleans())
# found against a constant floor (the idle replica's): completed in
# 8.50 ms against a 6.5 ms deadline, and 7.35 ms against 6.5 ms
@example(seed=0, num_requests=60, rate_rps=3000.0, pool_size=64,
         deadline_s=0.0065, credit_window=False)
@example(seed=0, num_requests=60, rate_rps=3000.0, pool_size=10_000,
         deadline_s=0.0065, credit_window=False)
def test_an_admitted_one_miss_batch_meets_its_deadline(
        seed, num_requests, rate_rps, pool_size, deadline_s, credit_window):
    """Fault-free: a request that rides alone and misses the cache — the
    case the deadline floor prices — never completes late, even when
    it waits for its replica's accelerator."""
    config = ServingConfig(replicas=2, deadline_s=deadline_s)
    if credit_window:
        frontend = StreamingFrontend(_replica, config, StreamConfig(
            min_replicas=2, max_replicas=2, autoscale=False))
    else:
        frontend = ServingFrontend([_replica(i) for i in range(2)], config)
    report = frontend.serve(open_loop_requests(
        num_requests, rate_rps, seed=seed, pool_size=pool_size))
    for outcome in report.completed_requests:
        if outcome.batch_size == 1 and not outcome.cache_hit:
            assert outcome.latency_s <= deadline_s + EPS
