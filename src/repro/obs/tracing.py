"""Span-based tracer exporting Chrome ``trace_event`` JSON.

Spans are nested timed regions (``tracer.span("cluster.finetune")``)
recorded on two clocks at once: the wall clock (:func:`wall_clock`)
and, when a ``tick_source`` is wired (the fault injector's logical
clock), the logical tick the span started and ended on.  The export is
the Chrome/Perfetto ``trace_event`` format — load the JSON at
``chrome://tracing`` to see FT-DMP's Store and Tuner stages overlap.

One tracer per cluster; recording is cheap (a dataclass append under a
lock) and bounded by ``max_spans`` so long-lived clusters cannot leak.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..lint.guards import guarded_by

__all__ = ["Span", "Tracer", "wall_clock"]


def wall_clock() -> float:
    """The one sanctioned wall-clock read in the simulation stack.

    ND001 bans direct ``time.time``/``perf_counter`` calls outside this
    module: simulation logic must be deterministic (use the injector's
    logical tick), while *observability* — span timing, stage busy-time
    metrics — legitimately measures real elapsed time through this seam.
    Benchmarks keep their wall-seconds schemas; tests can monkeypatch a
    single function instead of chasing ``time`` imports.
    """
    return time.perf_counter()


@dataclass
class Span:
    """One finished timed region."""

    name: str
    category: str
    start_s: float
    duration_s: float
    depth: int
    thread_id: int
    tick_start: Optional[int] = None
    tick_end: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@guarded_by("_lock", "spans", "dropped_spans")
class Tracer:
    """Collects nested spans; thread-safe, per-thread nesting depth."""

    def __init__(self, tick_source: Optional[Callable[[], int]] = None,
                 max_spans: int = 100_000):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.tick_source = tick_source
        self.max_spans = max_spans
        self._epoch = wall_clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []
        #: spans discarded because the buffer was full
        self.dropped_spans = 0

    # -- recording ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "flow",
             **args: Any) -> Iterator[Span]:
        """Time a region; yields the (not yet finalised) Span object."""
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        record = Span(
            name=name,
            category=category,
            start_s=wall_clock() - self._epoch,
            duration_s=0.0,
            depth=depth,
            thread_id=threading.get_ident(),
            tick_start=self._tick(),
            args=dict(args),
        )
        try:
            yield record
        finally:
            record.duration_s = (wall_clock() - self._epoch) - record.start_s
            record.tick_end = self._tick()
            self._local.depth = depth
            with self._lock:
                if len(self.spans) < self.max_spans:
                    self.spans.append(record)
                else:
                    self.dropped_spans += 1

    def _tick(self) -> Optional[int]:
        if self.tick_source is None:
            return None
        return int(self.tick_source())

    # -- queries ------------------------------------------------------------
    def find(self, name: str) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(s.duration_s for s in self.find(name))

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.dropped_spans = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    # -- export -------------------------------------------------------------
    def export_chrome_trace(self, indent: Optional[int] = None,
                            process_name: str = "ndpipe") -> str:
        """Chrome ``trace_event`` JSON (object format, complete events)."""
        events: List[Dict[str, Any]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }]
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            args = dict(span.args)
            if span.tick_start is not None:
                args["tick_start"] = span.tick_start
                args["tick_end"] = span.tick_end
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": 1,
                "tid": span.thread_id % 2 ** 31,
                "args": args,
            })
        return json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, indent=indent,
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregate: count and total/mean seconds."""
        with self._lock:
            spans = list(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for span in spans:
            agg = out.setdefault(span.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += span.duration_s
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return out
