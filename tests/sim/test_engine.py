"""Tests for the discrete-event kernel: clock, processes, resources, stores."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Event, Resource, Simulation, Store, all_of


class TestClock:
    def test_timeouts_fire_in_order(self):
        sim = Simulation()
        log = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            log.append((sim.now, tag))

        sim.process(proc(3.0, "c"))
        sim.process(proc(1.0, "a"))
        sim.process(proc(2.0, "b"))
        sim.run()
        assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_clock_monotone(self):
        sim = Simulation()
        stamps = []

        def proc():
            for delay in (0.5, 0.0, 1.5, 0.25):
                yield sim.timeout(delay)
                stamps.append(sim.now)

        sim.process(proc())
        sim.run()
        assert stamps == sorted(stamps)

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_run_until_caps_clock(self):
        sim = Simulation()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        assert sim.run(until=10.0) == 10.0

    def test_run_until_past_a_drained_heap_still_reaches_until(self):
        """A tick clock runs to ``until`` whether or not anything was due."""
        sim = Simulation()
        assert sim.run(until=5.0) == 5.0
        fired = []
        sim.at(6.0, fired.append, "due")
        assert sim.run(until=9.0) == 9.0
        assert fired == ["due"] and sim.now == 9.0

    def test_pending_lists_values_in_firing_order_until_cleared(self):
        sim = Simulation()
        for time, value in ((2.0, "b"), (1.0, "a"), (2.0, "c")):
            sim.at(time, lambda _: None, value)
        assert sim.pending == ["a", "b", "c"]
        sim.run(until=1.0)
        assert sim.pending == ["b", "c"]
        sim.clear()
        assert sim.pending == [] and sim.run(until=3.0) == 3.0

    def test_ties_break_in_schedule_order(self):
        sim = Simulation()
        log = []

        def proc(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]

    @settings(max_examples=20, deadline=None)
    @given(delays=st.lists(st.floats(0, 100), min_size=1, max_size=20))
    def test_property_final_clock_is_max_delay(self, delays):
        sim = Simulation()

        def proc(d):
            yield sim.timeout(d)

        for d in delays:
            sim.process(proc(d))
        assert sim.run() == pytest.approx(max(delays))


class TestAt:
    """Absolute-time callbacks, the serving loop's one scheduling call."""

    def test_fires_at_absolute_time_not_after_a_delay(self):
        sim = Simulation()
        log = []

        def proc():
            yield sim.timeout(2.0)
            sim.at(3.0, lambda v: log.append((sim.now, v)), "abs")

        sim.process(proc())
        sim.run()
        assert log == [(3.0, "abs")]

    def test_ties_with_timeouts_break_first_in_first_out(self):
        sim = Simulation()
        log = []

        def proc(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        sim.at(1.0, log.append, "at-first")
        sim.process(proc("timeout"))  # its timeout is scheduled at t=0
        sim.at(1.0, log.append, "at-last")
        sim.run()
        assert log == ["at-first", "at-last", "timeout"]

    def test_a_time_before_now_is_due_now(self):
        """The clock never runs back, and a past-keyed call still runs
        ahead of everything keyed at a later time."""
        sim = Simulation()
        log = []

        def late(_):
            sim.at(0.5, lambda v: log.append((sim.now, v)), "past")
            sim.at(2.0, lambda v: log.append((sim.now, v)), "now")

        sim.at(2.0, late)
        sim.at(3.0, lambda v: log.append((sim.now, v)), "later")
        sim.run()
        assert log == [(2.0, "past"), (2.0, "now"), (3.0, "later")]

    def test_negative_times_run_at_zero_in_time_order(self):
        sim = Simulation()
        log = []
        sim.at(0.0, lambda v: log.append((sim.now, v)), "zero")
        sim.at(-1.0, lambda v: log.append((sim.now, v)), "minus-one")
        sim.at(-2.0, lambda v: log.append((sim.now, v)), "minus-two")
        assert sim.run() == 0.0
        assert log == [(0.0, "minus-two"), (0.0, "minus-one"), (0.0, "zero")]


class TestProcesses:
    def test_process_return_value(self):
        sim = Simulation()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc())
        assert sim.run_until_complete(p) == 42

    def test_process_waits_on_process(self):
        sim = Simulation()

        def child():
            yield sim.timeout(2.0)
            return "done"

        def parent():
            value = yield sim.process(child())
            return (sim.now, value)

        p = sim.process(parent())
        assert sim.run_until_complete(p) == (2.0, "done")

    def test_yield_non_event_raises(self):
        sim = Simulation()

        def bad():
            yield 5

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_starved_process_detected(self):
        sim = Simulation()

        def stuck():
            yield Event(sim)  # never triggered

        p = sim.process(stuck())
        with pytest.raises(RuntimeError, match="starved"):
            sim.run_until_complete(p)

    def test_event_double_trigger_rejected(self):
        sim = Simulation()
        ev = sim.event()
        ev.trigger()
        with pytest.raises(RuntimeError):
            ev.trigger()

    def test_all_of_gathers_values(self):
        sim = Simulation()
        events = [sim.timeout(i, value=i) for i in (3, 1, 2)]
        gate = all_of(sim, events)
        sim.run()
        assert gate.triggered
        assert gate.value == [3, 1, 2]

    def test_all_of_empty(self):
        sim = Simulation()
        gate = all_of(sim, [])
        assert gate.triggered


class TestResource:
    def test_capacity_serialises(self):
        sim = Simulation()
        res = Resource(sim, capacity=1)
        finish = []

        def proc(tag):
            yield res.acquire()
            yield sim.timeout(1.0)
            res.release()
            finish.append((sim.now, tag))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert finish == [(1.0, "a"), (2.0, "b")]

    def test_capacity_two_overlaps(self):
        sim = Simulation()
        res = Resource(sim, capacity=2)
        finish = []

        def proc():
            yield res.acquire()
            yield sim.timeout(1.0)
            res.release()
            finish.append(sim.now)

        for _ in range(2):
            sim.process(proc())
        sim.run()
        assert finish == [1.0, 1.0]

    def test_release_without_acquire(self):
        sim = Simulation()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulation(), capacity=0)

    def test_busy_time_accounting(self):
        sim = Simulation()
        res = Resource(sim)

        def proc():
            yield res.acquire()
            yield sim.timeout(3.0)
            res.release()
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert res.busy_time == pytest.approx(3.0)
        assert 0.0 <= res.utilization(sim.now) <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(capacity=st.integers(1, 4), jobs=st.integers(1, 12),
           service=st.floats(0.1, 5.0))
    def test_property_makespan_work_conservation(self, capacity, jobs, service):
        """makespan == ceil(jobs / capacity) * service for identical jobs."""
        sim = Simulation()
        res = Resource(sim, capacity=capacity)

        def proc():
            yield res.acquire()
            yield sim.timeout(service)
            res.release()

        for _ in range(jobs):
            sim.process(proc())
        sim.run()
        waves = -(-jobs // capacity)
        assert sim.now == pytest.approx(waves * service)


class TestStore:
    def test_fifo_order(self):
        sim = Simulation()
        store = Store(sim)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        sim = Simulation()
        store = Store(sim)
        result = []

        def consumer():
            item = yield store.get()
            result.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            yield store.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert result == [(5.0, "x")]

    def test_bounded_store_backpressure(self):
        sim = Simulation()
        store = Store(sim, capacity=1)
        times = []

        def producer():
            for i in range(3):
                yield store.put(i)
                times.append(sim.now)

        def consumer():
            for _ in range(3):
                yield sim.timeout(2.0)
                yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        # third put had to wait for a get
        assert times[-1] > 0.0

    def test_len(self):
        sim = Simulation()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
