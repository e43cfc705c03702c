"""Unit tests for the deterministic FaultInjector."""

import pytest

from repro.core.fabric import NetworkFabric
from repro.core.pipestore import PipeStore
from repro.faults import (
    AddLatency,
    DropMessages,
    FaultConfigError,
    FaultInjector,
    MessageDroppedError,
    SlowAccelerator,
    StoreCrash,
    StoreRecover,
    TunerCrash,
    TunerCrashError,
    TunerRecover,
)


def make_fleet(n=3):
    return [PipeStore(f"pipestore-{i}") for i in range(n)]


class FakeTuner:
    def __init__(self, name="tuner"):
        self.name = name
        self.up = True

    def fail(self):
        self.up = False

    def repair(self):
        self.up = True


class TestScheduleFiring:
    def test_events_fire_at_their_tick(self):
        stores = make_fleet()
        injector = FaultInjector([
            StoreCrash(at=2, store_id="pipestore-1"),
            StoreRecover(at=4, store_id="pipestore-1"),
        ])
        for store in stores:
            injector.register_store(store)
        injector.advance()  # t=1
        assert stores[1].is_available
        injector.advance()  # t=2: crash fires
        assert not stores[1].is_available
        assert injector.crashed_stores() == ["pipestore-1"]
        injector.advance(2)  # t=4: recover fires
        assert stores[1].is_available
        assert injector.pending == []

    def test_unknown_store_in_schedule_is_loud(self):
        injector = FaultInjector([StoreCrash(at=1, store_id="nope")])
        with pytest.raises(FaultConfigError, match="nope"):
            injector.advance()

    def test_slow_accelerator_sets_factor(self):
        stores = make_fleet(1)
        injector = FaultInjector([
            SlowAccelerator(at=1, store_id="pipestore-0", factor=3.0)])
        injector.register_store(stores[0])
        injector.advance()
        assert stores[0].slowdown == 3.0

    def test_describe_lists_fired_and_pending(self):
        injector = FaultInjector([
            DropMessages(at=1), DropMessages(at=99)])
        injector.advance()
        text = injector.describe()
        assert "t=1 drop" in text
        assert "(pending) t=99 drop" in text
        assert FaultInjector([]).describe() == "(empty schedule)"


class TestFabricHook:
    def test_messages_advance_clock_and_drop(self):
        fabric = NetworkFabric()
        injector = FaultInjector([
            DropMessages(at=2, count=1)]).attach_fabric(fabric)
        fabric.send("a", "b", 10, "x")  # tick 1: fine
        with pytest.raises(MessageDroppedError):
            fabric.send("a", "b", 20, "x")  # tick 2: dropped
        fabric.send("a", "b", 30, "x")  # budget exhausted
        assert injector.clock == 3
        assert fabric.dropped_count == 1
        assert fabric.dropped_bytes == 20
        # the dropped transfer was never accounted as delivered
        assert fabric.total_bytes == 40
        assert len(injector.dropped) == 1
        assert injector.dropped[0].num_bytes == 20

    def test_kind_filtered_drop_passes_other_traffic(self):
        fabric = NetworkFabric()
        FaultInjector([
            DropMessages(at=1, count=5, kind="features")]
        ).attach_fabric(fabric)
        fabric.send("a", "b", 10, "labels")  # not matched
        with pytest.raises(MessageDroppedError):
            fabric.send("a", "b", 10, "features")

    def test_injected_latency_charged_to_wire_time(self):
        fabric = NetworkFabric()
        injector = FaultInjector([
            AddLatency(at=1, seconds=0.5, count=2)]).attach_fabric(fabric)
        base = fabric.transfer_seconds()
        fabric.send("a", "b", 8, "x")
        fabric.send("a", "b", 8, "x")
        fabric.send("a", "b", 8, "x")  # budget spent, no extra charge
        assert injector.injected_latency_s == pytest.approx(1.0)
        assert fabric.transfer_seconds() - base > 1.0

    def test_local_handoffs_do_not_tick_the_clock(self):
        fabric = NetworkFabric()
        injector = FaultInjector([]).attach_fabric(fabric)
        fabric.send("a", "a", 10, "x")
        assert injector.clock == 0

    def test_detach_unhooks_fabric(self):
        fabric = NetworkFabric()
        injector = FaultInjector([
            DropMessages(at=1, count=99)]).attach_fabric(fabric)
        injector.detach()
        fabric.send("a", "b", 10, "x")  # no drop, no tick
        assert injector.clock == 0
        assert fabric.fault_filter is None


class TestTunerEvents:
    def test_targeted_crash_blocks_only_tuner_traffic(self):
        fabric = NetworkFabric()
        tuner = FakeTuner()
        injector = FaultInjector([
            TunerCrash(at=1, tuner_id="tuner"),
            TunerRecover(at=3, tuner_id="tuner"),
        ])
        injector.register_tuner(tuner)
        injector.attach_fabric(fabric)
        with pytest.raises(TunerCrashError):
            fabric.send("tuner", "pipestore-0", 8, "x")  # t=1: crash fires
        assert not tuner.up
        assert injector.crashed_tuners() == ["tuner"]
        fabric.send("a", "b", 8, "x")  # t=2: unrelated traffic flows
        fabric.send("a", "b", 8, "x")  # t=3: recover fires
        assert tuner.up
        assert injector.crashed_tuners() == []
        fabric.send("tuner", "pipestore-0", 8, "x")

    def test_traffic_to_a_crashed_tuner_also_fails(self):
        fabric = NetworkFabric()
        injector = FaultInjector([TunerCrash(at=1, tuner_id="tuner")])
        injector.attach_fabric(fabric)
        fabric.send("a", "b", 8, "x")  # t=1 arms the crash
        with pytest.raises(TunerCrashError):
            fabric.send("pipestore-0", "tuner", 8, "features")

    def test_legacy_global_crash_raises_on_everything(self):
        fabric = NetworkFabric()
        injector = FaultInjector([TunerCrash(at=1)]).attach_fabric(fabric)
        with pytest.raises(TunerCrashError):
            fabric.send("a", "b", 8, "x")
        assert injector.tuner_crashed
        with pytest.raises(TunerCrashError):
            fabric.send("c", "d", 8, "y")  # even traffic far from the tuner

    def test_detach_clears_targeted_crashes(self):
        fabric = NetworkFabric()
        injector = FaultInjector([
            TunerCrash(at=1, tuner_id="tuner")]).attach_fabric(fabric)
        fabric.send("a", "b", 8, "x")
        injector.detach()
        assert injector.crashed_tuners() == []


class TestRandomSchedule:
    IDS = ["pipestore-0", "pipestore-1", "pipestore-2"]

    def test_same_seed_same_schedule(self):
        a = FaultInjector.random_schedule(self.IDS, horizon=50, seed=7)
        b = FaultInjector.random_schedule(self.IDS, horizon=50, seed=7)
        assert a == b
        c = FaultInjector.random_schedule(self.IDS, horizon=50, seed=8)
        assert a != c

    def test_events_within_horizon_and_sorted(self):
        for seed in range(10):
            schedule = FaultInjector.random_schedule(
                self.IDS, horizon=30, seed=seed)
            assert all(1 <= e.at for e in schedule)
            assert [e.at for e in schedule] == sorted(e.at for e in schedule)
            crashes = [e for e in schedule if isinstance(e, StoreCrash)]
            assert all(e.at <= 30 for e in crashes)

    def test_never_takes_whole_fleet_down(self):
        """Replaying any generated schedule leaves >= 1 store up at every
        tick (max_concurrent_crashes defaults to n - 1)."""
        for seed in range(25):
            schedule = FaultInjector.random_schedule(
                self.IDS, horizon=40, seed=seed)
            down = set()
            for event in schedule:
                if isinstance(event, StoreCrash):
                    down.add(event.store_id)
                elif isinstance(event, StoreRecover):
                    down.discard(event.store_id)
                assert len(down) < len(self.IDS), (seed, schedule)

    def test_crash_cap_zero_generates_no_crashes(self):
        for seed in range(10):
            schedule = FaultInjector.random_schedule(
                self.IDS, horizon=40, seed=seed, num_events=12,
                max_concurrent_crashes=0)
            assert not any(isinstance(e, StoreCrash) for e in schedule)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector.random_schedule([], horizon=10, seed=0)
        with pytest.raises(ValueError):
            FaultInjector.random_schedule(self.IDS, horizon=0, seed=0)

    def test_tuner_band_generates_paired_events(self):
        saw_tuner = False
        for seed in range(25):
            schedule = FaultInjector.random_schedule(
                self.IDS, horizon=40, seed=seed, num_events=12,
                tuner_id="tuner")
            crashes = sorted((e.at for e in schedule
                              if isinstance(e, TunerCrash)))
            recovers = sorted((e.at for e in schedule
                               if isinstance(e, TunerRecover)))
            # every crash is paired with a later recover, and outages
            # never overlap (at most one outstanding)
            assert len(crashes) == len(recovers)
            saw_tuner = saw_tuner or bool(crashes)
            for crash_at, recover_at in zip(crashes, recovers):
                assert crash_at < recover_at
            for recover_at, next_crash_at in zip(recovers, crashes[1:]):
                assert recover_at <= next_crash_at
            for event in schedule:
                if isinstance(event, (TunerCrash, TunerRecover)):
                    assert event.tuner_id == "tuner"
        assert saw_tuner  # the ~15% band fired somewhere in 25 seeds

    def test_default_tuner_id_generates_no_tuner_events(self):
        for seed in range(25):
            schedule = FaultInjector.random_schedule(
                self.IDS, horizon=40, seed=seed, num_events=12)
            assert not any(isinstance(e, (TunerCrash, TunerRecover))
                           for e in schedule)

    def test_tuner_schedule_is_deterministic(self):
        a = FaultInjector.random_schedule(self.IDS, horizon=40, seed=5,
                                          tuner_id="tuner")
        b = FaultInjector.random_schedule(self.IDS, horizon=40, seed=5,
                                          tuner_id="tuner")
        assert a == b

    def test_replay_is_deterministic_against_a_fabric(self):
        """Same schedule + same message sequence => identical drops."""
        def run():
            fabric = NetworkFabric()
            injector = FaultInjector(FaultInjector.random_schedule(
                self.IDS, horizon=20, seed=3, num_events=8))
            for sid in self.IDS:
                injector.register_store(PipeStore(sid))
            injector.attach_fabric(fabric)
            outcomes = []
            for i in range(30):
                try:
                    fabric.send("a", "b", 10 + i, "x")
                    outcomes.append("ok")
                except MessageDroppedError:
                    outcomes.append("drop")
            return outcomes, injector.injected_latency_s

        first, second = run(), run()
        assert first == second
