"""The kernel-backed fault clock replays what the tick clock it replaced did.

:class:`DequeClock` keeps that tick clock as the reference: a sorted
deque of due events and an integer counter.  Seeded mixes of fabric
transfers, ``advance(n)`` and HA heartbeat rounds drive it and the
injector on its :class:`~repro.sim.engine.Simulation` kernel side by side.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.pipestore import PipeStore
from repro.faults import FaultError, FaultInjector
from repro.ha import PRIMARY_MEMBER, FailureDetector, HAConfig, HAController
from repro.obs.metrics import MetricsRegistry

STORE_IDS = ["pipestore-0", "pipestore-1", "pipestore-2"]
#: observe-only, so no reaction reaches past the stand-in cluster
CONFIG = HAConfig(standby=False, auto_evict=False, auto_rejoin=False)


class FakeTuner:
    name = "tuner"

    def __init__(self):
        self.is_available = True

    def fail(self):
        self.is_available = False

    def repair(self):
        self.is_available = True


class Stamped(FaultInjector):
    """An injector that records the tick each event fires at."""

    def __init__(self, schedule=()):
        self.stamps = []
        super().__init__(schedule)

    def _fire(self, event):
        self.stamps.append((self.clock, event))
        super()._fire(event)


class DequeClock(Stamped):
    """The tick clock the kernel replaced: a sorted deque and a counter."""

    clock = 0  # shadows the kernel read

    def __init__(self, schedule):
        super().__init__()
        self._due = deque(sorted(schedule, key=lambda e: e.at))

    def advance(self, ticks=1):
        for _ in range(ticks):
            self.clock += 1
            while self._due and self._due[0].at <= self.clock:
                self._fire(self._due.popleft())

    @property
    def pending(self):
        return list(self._due)


def deque_poll(injector, detector, members):
    """One heartbeat round as it ran on the tick clock."""
    injector.advance()
    events = []
    for member, alive in members.items():
        if alive():
            if detector.heartbeat(member, injector.clock):
                events.append(("rejoin", member))
        elif detector.check(member, injector.clock):
            events.append(("suspect", member))
    return events


def wire(injector):
    """Register a fresh fleet and tuner; returns the stand-in cluster."""
    cluster = SimpleNamespace(stores=[PipeStore(s) for s in STORE_IDS],
                              tuner=FakeTuner(), metrics=MetricsRegistry())
    for store in cluster.stores:
        injector.register_store(store)
    injector.register_tuner(cluster.tuner)
    return cluster


def transfer(injector, record):
    try:
        return injector.on_message(record)
    except FaultError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("tuner_id", [None, "tuner"])
@pytest.mark.parametrize("seed", range(20))
def test_kernel_clock_replays_the_tick_clock(seed, tuner_id):
    schedule = FaultInjector.random_schedule(
        STORE_IDS, horizon=40, seed=seed, num_events=12, tuner_id=tuner_id)
    reference, kernel = DequeClock(schedule), Stamped(schedule)
    ref_cluster, kernel_cluster = wire(reference), wire(kernel)
    detector = FailureDetector(CONFIG)
    members = {store.store_id: (lambda s=store: s.is_available)
               for store in ref_cluster.stores}
    members[PRIMARY_MEMBER] = lambda: ref_cluster.tuner.is_available
    for member in members:
        detector.heartbeat(member, 0)
    ha = HAController(kernel_cluster, CONFIG, injector=kernel)

    rng = np.random.default_rng(seed)
    for step in range(80):
        roll = rng.random()
        if roll < 0.5:
            record = SimpleNamespace(src=str(rng.choice(["a", "tuner"])),
                                     dst="b", kind="x", num_bytes=8)
            outcome = (transfer(reference, record), transfer(kernel, record))
        elif roll < 0.75:
            ticks = int(rng.integers(0, 6))
            outcome = (reference.advance(ticks), kernel.advance(ticks))
        else:
            outcome = (deque_poll(reference, detector, members), ha.poll())
        where = f"seed {seed}, step {step}"
        assert outcome[0] == outcome[1], where
        assert reference.clock == kernel.clock, where
        assert reference.stamps == kernel.stamps, where
        assert reference.pending == kernel.pending, where
        assert reference.crashed_stores() == kernel.crashed_stores(), where
        assert detector.suspects() == ha.detector.suspects(), where
    assert reference.fired == kernel.fired
    assert [e for _, e in kernel.stamps] == kernel.fired
    assert kernel.clock > 40  # the whole horizon ran
