"""Deterministic fault injection for the runnable NDPipe cluster.

A :class:`FaultInjector` keeps a schedule of :mod:`~repro.faults.events`
on its :class:`~repro.sim.engine.Simulation` kernel, keyed by logical
tick, and hooks into the system through injectable callbacks:

* ``NetworkFabric.fault_filter`` — every non-local transfer runs the
  kernel one tick, then may be dropped (:class:`MessageDroppedError`) or
  charged extra latency (accounted, never slept);
* the attached cluster's store roster (read live, so a shard that joins
  after ``attach`` is addressable and one that left is not) and any
  separately registered ``PipeStore`` — crash/recover/slow-accelerator
  events call ``fail()`` / ``repair()`` / set ``slowdown`` directly.

Because the clock is driven by the workload itself, "crash pipestore-1
after the 12th message" replays bit-identically across runs — which is
what lets the chaos suite assert exact accounting under failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..sim.engine import Simulation
from .errors import FaultConfigError, MessageDroppedError, TunerCrashError
from .events import (
    AddLatency,
    BitRot,
    DropMessages,
    FaultEvent,
    SlowAccelerator,
    StoreCrash,
    StoreRecover,
    TornWrite,
    TunerCrash,
    TunerRecover,
)


class _Budget:
    """An armed drop/latency allowance consumed by matching transfers."""

    def __init__(self, kind: Optional[str], count: int, seconds: float = 0.0,
                 dst: Optional[str] = None):
        self.kind = kind
        self.remaining = count
        self.seconds = seconds
        self.dst = dst

    def matches(self, kind: str, dst: Optional[str] = None) -> bool:
        return (self.remaining > 0
                and (self.kind is None or self.kind == kind)
                and (self.dst is None or self.dst == dst))


class FaultInjector:
    """Replays a fault schedule against an attached cluster.

    The kernel is advanced by fabric transfers and HA polls, on the
    thread that drives the cluster; nothing else touches the schedule.
    """

    def __init__(self, schedule: Sequence[FaultEvent] = ()):
        self.sim = Simulation()
        for event in schedule:
            self.sim.at(event.at, self._fire, event)
        #: attached clusters' live rosters and one-store registrations
        self._rosters: List[Any] = []
        self._drops: List[_Budget] = []
        self._latencies: List[_Budget] = []
        #: events that have fired, in firing order
        self.fired: List[FaultEvent] = []
        #: transfers swallowed by drop budgets (TransferRecord objects)
        self.dropped: List[Any] = []
        #: objects damaged by bit-rot / torn-write events:
        #: (store_id, key) in corruption order
        self.corrupted: List[Any] = []
        self._tuner_crashed = False
        #: node names of tuners downed by *targeted* TunerCrash events
        self._crashed_tuners: set = set()
        self.injected_latency_s = 0.0
        self._fabrics: List[Any] = []
        self._tuners: Dict[str, Any] = {}

    # -- wiring ------------------------------------------------------------
    def attach(self, cluster: Any) -> "FaultInjector":
        """Hook the whole runnable cluster (fabric + its store roster)."""
        self._rosters.append(cluster.stores)
        tuner = getattr(cluster, "tuner", None)
        if tuner is not None:
            self.register_tuner(tuner)
        self.attach_fabric(cluster.network)
        return self

    def attach_fabric(self, fabric: Any) -> "FaultInjector":
        fabric.fault_filter = self.on_message
        self._fabrics.append(fabric)
        self.advance(0)
        return self

    # ndlint: allow[ND012] -- aims a schedule at a PipeStore that no cluster roster holds
    def register_store(self, store: Any) -> "FaultInjector":
        self._rosters.append((store,))
        return self

    def register_tuner(self, tuner: Any) -> "FaultInjector":
        """Make a tuner addressable by targeted TunerCrash/TunerRecover."""
        self._tuners[tuner.name] = tuner
        return self

    # ndlint: allow[ND012] -- undoes attach_fabric: the fault tests reuse one fabric
    def detach(self) -> None:
        """Unhook everything; pending events never fire."""
        for fabric in self._fabrics:
            # == not `is`: each attribute access builds a fresh bound method
            if fabric.fault_filter == self.on_message:
                fabric.fault_filter = None
        self._fabrics.clear()
        self.sim.clear()
        self._drops.clear()
        self._latencies.clear()
        self._tuner_crashed = False
        self._crashed_tuners.clear()

    # -- the logical clock -------------------------------------------------
    @property
    def clock(self) -> int:
        """The kernel's time as a whole tick."""
        return int(self.sim.now)

    def advance(self, ticks: int = 1) -> None:
        """Move the clock forward, firing every event that comes due."""
        self.sim.run(until=self.sim.now + ticks)

    def stores(self) -> Dict[str, Any]:
        """Every store a schedule can name right now, by id: the members
        of each roster, and the stores joining one."""
        stores: Dict[str, Any] = {}
        for roster in self._rosters:
            stores.update(getattr(roster, "joining", {}))
            stores.update((store.store_id, store) for store in roster)
        return stores

    def _store(self, store_id: str) -> Any:
        stores = self.stores()
        if store_id not in stores:
            raise FaultConfigError(
                f"schedule names unknown store {store_id!r}; registered: "
                f"{sorted(stores)}")
        return stores[store_id]

    def _fire(self, event: FaultEvent) -> None:
        if isinstance(event, StoreCrash):
            self._store(event.store_id).fail()
        elif isinstance(event, StoreRecover):
            self._store(event.store_id).repair()
        elif isinstance(event, SlowAccelerator):
            self._store(event.store_id).slowdown = event.factor
        elif isinstance(event, DropMessages):
            self._drops.append(_Budget(event.kind, event.count))
        elif isinstance(event, AddLatency):
            self._latencies.append(
                _Budget(event.kind, event.count, event.seconds,
                        dst=event.dst))
        elif isinstance(event, (BitRot, TornWrite)):
            self._corrupt(event)
        elif isinstance(event, TunerCrash):
            if event.tuner_id is None:
                # legacy global crash: every observed operation raises
                self._tuner_crashed = True
            else:
                self._crashed_tuners.add(event.tuner_id)
                tuner = self._tuners.get(event.tuner_id)
                if tuner is not None:
                    tuner.fail()
        elif isinstance(event, TunerRecover):
            if event.tuner_id is None:
                self._tuner_crashed = False
            else:
                self._crashed_tuners.discard(event.tuner_id)
                tuner = self._tuners.get(event.tuner_id)
                if tuner is not None:
                    tuner.repair()
        else:
            raise FaultConfigError(f"unknown fault event {event!r}")
        self.fired.append(event)

    def _corrupt(self, event) -> None:
        """Damage stored objects on one store without touching their CRCs."""
        objects = self._store(event.store_id).objects
        rng = np.random.default_rng(event.seed)
        if event.key is not None:
            if not objects.exists(event.key):
                raise FaultConfigError(
                    f"corruption event names missing object {event.key!r} "
                    f"on {event.store_id}"
                )
            victims = [event.key]
        else:
            pool = objects.keys(event.prefix)
            if not pool:
                return  # nothing stored yet: the rot has nothing to eat
            count = (event.num_objects if isinstance(event, BitRot) else 1)
            picks = rng.choice(len(pool), size=min(count, len(pool)),
                               replace=False)
            victims = [pool[int(i)] for i in sorted(picks)]
        for key in victims:
            blob = bytearray(objects.peek(key))
            if isinstance(event, BitRot):
                if not blob:
                    continue
                for _ in range(event.flips_per_object):
                    pos = int(rng.integers(0, len(blob)))
                    blob[pos] ^= 1 << int(rng.integers(0, 8))
            else:  # TornWrite
                blob = blob[:int(len(blob) * event.keep_fraction)]
            objects.corrupt_object(key, bytes(blob))
            self.corrupted.append((event.store_id, key))

    # -- hooks the system calls --------------------------------------------
    def on_message(self, record: Any) -> float:
        """Fabric filter: returns extra latency seconds or raises a drop."""
        self.advance()
        self._check_tuner_alive()
        if self._crashed_tuners and (record.src in self._crashed_tuners
                                     or record.dst in self._crashed_tuners):
            raise TunerCrashError(
                f"injected tuner crash: {record.src} -> {record.dst} "
                f"touches a downed tuner node"
            )
        for budget in self._drops:
            if budget.matches(record.kind):
                budget.remaining -= 1
                self.dropped.append(record)
                raise MessageDroppedError(
                    f"injected drop: {record.src} -> {record.dst} "
                    f"({record.kind}, {record.num_bytes} B)"
                )
        delay = 0.0
        for budget in self._latencies:
            if budget.matches(record.kind, record.dst):
                budget.remaining -= 1
                delay += budget.seconds
        self.injected_latency_s += delay
        return delay

    def _check_tuner_alive(self) -> None:
        if self._tuner_crashed:
            raise TunerCrashError(
                "injected tuner crash: the process is gone until the "
                "operator restores from a checkpoint"
            )

    # -- introspection -----------------------------------------------------
    # ndlint: allow[ND012] -- test oracle over private state
    @property
    def tuner_crashed(self) -> bool:
        return self._tuner_crashed

    # ndlint: allow[ND012] -- test oracle over private state
    def crashed_tuners(self) -> List[str]:
        """Tuner node names currently downed by targeted crashes."""
        return sorted(self._crashed_tuners)

    @property
    def pending(self) -> List[FaultEvent]:
        return self.sim.pending

    def crashed_stores(self) -> List[str]:
        return sorted(sid for sid, store in self.stores().items()
                      if not store.is_available)

    def describe(self) -> str:
        lines = [e.describe() for e in self.fired]
        lines += [f"(pending) {e.describe()}" for e in self.pending]
        return "\n".join(lines) if lines else "(empty schedule)"

    # -- schedule generation -----------------------------------------------
    @staticmethod
    def random_schedule(store_ids: Sequence[str], horizon: int, seed: int,
                        num_events: Optional[int] = None,
                        max_concurrent_crashes: Optional[int] = None,
                        tuner_id: Optional[str] = None,
                        ) -> List[FaultEvent]:
        """A seeded random crash/recover/drop/latency/slowdown schedule.

        Deterministic for a given ``(store_ids, horizon, seed)``.  At most
        ``max_concurrent_crashes`` stores (default: all but one) are ever
        down at once, so ingest always has somewhere to land, and every
        generated crash is paired with a recover inside ``horizon`` or
        left down for the test to repair explicitly.  Drop bursts are
        capped at 2 so the default :class:`RetryPolicy` can absorb them.

        With ``tuner_id`` set, a ~15% band of events becomes paired
        targeted :class:`TunerCrash`/:class:`TunerRecover` events (at
        most one tuner outage outstanding, always recovered inside the
        horizon) so chaos suites exercise failover.  The default
        ``tuner_id=None`` draws the exact same RNG sequence as before,
        keeping historical seeded schedules byte-identical.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not store_ids:
            raise ValueError("need at least one store id")
        rng = np.random.default_rng(seed)
        if num_events is None:
            num_events = int(rng.integers(3, 9))
        if max_concurrent_crashes is None:
            max_concurrent_crashes = max(0, len(store_ids) - 1)

        events: List[FaultEvent] = []
        # down intervals [start, end) per generated crash, end = inf when
        # the crash outlives the schedule (the test repairs it explicitly)
        intervals: List = []  # (start, end, store_id)

        def overlaps(start: int, end: float, store: Optional[str]) -> int:
            return sum(1 for a, b, s in intervals
                       if a < end and start < b
                       and (store is None or s == store))

        # down intervals for the (single) targeted tuner, same pairing rule
        tuner_intervals: List = []  # (start, end)

        for _ in range(num_events):
            tick = int(rng.integers(1, horizon + 1))
            # extra draw happens only when tuner events are requested, so
            # the default RNG sequence (and schedules) stay byte-identical
            if tuner_id is not None and rng.random() < 0.15:
                end_t = tick + int(rng.integers(1, horizon // 3 + 2))
                if any(a < end_t and tick < b for a, b in tuner_intervals):
                    continue  # at most one tuner outage outstanding
                events.append(TunerCrash(at=tick, tuner_id=tuner_id))
                events.append(TunerRecover(at=int(end_t), tuner_id=tuner_id))
                tuner_intervals.append((tick, end_t))
                continue
            roll = rng.random()
            if roll < 0.40:
                if rng.random() < 0.7:  # usually recovers inside the run
                    end: float = tick + int(rng.integers(1, horizon // 2 + 2))
                else:
                    end = float("inf")
                up = [s for s in store_ids if overlaps(tick, end, s) == 0]
                # conservative: count every interval touching [tick, end)
                # as concurrent, so the constraint can never be violated
                if not up or overlaps(tick, end, None) >= max_concurrent_crashes:
                    continue
                victim = str(rng.choice(up))
                events.append(StoreCrash(at=tick, store_id=victim))
                if end != float("inf"):
                    events.append(StoreRecover(at=int(end), store_id=victim))
                intervals.append((tick, end, victim))
            elif roll < 0.60:
                events.append(DropMessages(
                    at=tick, count=int(rng.integers(1, 3)), kind=None))
            elif roll < 0.80:
                events.append(AddLatency(
                    at=tick, seconds=float(rng.uniform(0.001, 0.05)),
                    count=int(rng.integers(1, 4)), kind=None))
            else:
                victim = str(rng.choice(list(store_ids)))
                events.append(SlowAccelerator(
                    at=tick, store_id=victim,
                    factor=float(rng.uniform(1.5, 4.0))))
        return sorted(events, key=lambda e: e.at)
