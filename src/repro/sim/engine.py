"""A small generator-based discrete-event simulation kernel.

Processes are Python generators that ``yield`` events (timeouts, resource
acquisitions, store gets/puts).  The kernel is a classic (time, seq) heap;
ties break in schedule order so runs are fully deterministic.

This powers the datacenter experiments: PipeStore/Tuner pipelines, network
links, disks and CPU pools are processes contending for
:class:`~repro.sim.resources` wrappers built on the primitives here.  The
serving front end (:mod:`repro.serving.stream`) runs on the same kernel
through :meth:`Simulation.at`, scheduling callbacks at absolute times,
and so does the fault schedule (:mod:`repro.faults.injector`), whose
kernel counts one time unit per logical tick.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional


class Event:
    """A one-shot event; processes waiting on it resume when triggered."""

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)


class Process(Event):
    """Wraps a generator; completes (triggers) when the generator returns."""

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulation", generator: Generator):
        super().__init__(sim)
        self._generator = generator
        sim.at(sim.now, self._resume)

    def _resume(self, event: Optional[Event]) -> None:
        value = event.value if event is not None else None
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded {target!r}; processes must yield Events"
            )
        target.add_callback(self._resume)


class Simulation:
    """Deterministic event loop with a monotone clock."""

    def __init__(self):
        self.now = 0.0
        self._heap: List = []
        self._seq = 0

    # -- scheduling -------------------------------------------------------
    def at(self, time: float, callback: Callable[[Any], None],
           value: Any = None) -> None:
        """Call ``callback(value)`` at absolute ``time``.

        A time before :attr:`now` is due now: the clock never runs back,
        and the call still goes ahead of everything keyed at a later
        time.  Ties with :meth:`timeout` events break in schedule order.
        """
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, callback, value))

    def timeout(self, delay: float, value: Any = None) -> Event:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = Event(self)
        self.at(self.now + delay, lambda _: event.trigger(value))
        return event

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain the event heap, or run it up to and including ``until``
        and leave the clock there; returns the final clock value."""
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            time, _seq, callback, value = heapq.heappop(heap)
            self.now = max(self.now, time)
            callback(value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_complete(self, process: Event) -> Any:
        """Run until ``process`` (or any event) triggers; returns its value."""
        while not process.triggered:
            if not self._heap:
                raise RuntimeError("simulation starved: process never completes")
            time, _seq, callback, value = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            callback(value)
        return process.value

    @property
    def pending(self) -> List[Any]:
        """The value of every callback still scheduled, in firing order."""
        return [value for _t, _seq, _cb, value in sorted(self._heap)]

    def clear(self) -> None:
        """Cancel every scheduled callback; the clock stays put."""
        self._heap.clear()


class Resource:
    """FIFO resource with integer capacity and busy-time accounting."""

    def __init__(self, sim: Simulation, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: List[Event] = []
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    def acquire(self) -> Event:
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def _grant(self, event: Event) -> None:
        self.in_use += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now
        event.trigger(self)

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._waiters and self.in_use < self.capacity:
            self._grant(self._waiters.pop(0))

    def utilization(self, makespan: float) -> float:
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        if makespan <= 0:
            return 0.0
        return min(busy / makespan, 1.0)


class Store:
    """Bounded FIFO queue connecting pipeline stages."""

    def __init__(self, sim: Simulation, capacity: float = float("inf"),
                 name: str = "store"):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: List[Any] = []
        self._getters: List[Event] = []
        self._putters: List = []  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        if self._getters:
            self._getters.pop(0).trigger(item)
            event.trigger(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.trigger(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            item = self._items.pop(0)
            event.trigger(item)
            if self._putters and len(self._items) < self.capacity:
                put_event, pending = self._putters.pop(0)
                self._items.append(pending)
                put_event.trigger(None)
        else:
            self._getters.append(event)
        return event


def all_of(sim: Simulation, events: List[Event]) -> Event:
    """An event that triggers when every input event has triggered."""
    gate = Event(sim)
    remaining = len(events)
    if remaining == 0:
        gate.trigger([])
        return gate
    values: List[Any] = [None] * remaining

    def make_callback(index: int):
        def callback(event: Event) -> None:
            nonlocal remaining
            values[index] = event.value
            remaining -= 1
            if remaining == 0:
                gate.trigger(values)

        return callback

    for i, event in enumerate(events):
        event.add_callback(make_callback(i))
    return gate
