"""Span-based tracer exporting Chrome ``trace_event`` JSON.

Spans are nested timed regions (``tracer.span("cluster.finetune")``)
on the wall clock (:func:`wall_clock`).  The export is the
Chrome/Perfetto ``trace_event`` format — load the JSON at
``chrome://tracing`` to see FT-DMP's Store and Tuner stages overlap.

One tracer per cluster, single-owner like the metrics registry: a span
opened from a thread other than the tracer's creator raises
:class:`RuntimeError` and records nothing.  Recording is cheap (a
dataclass append) and bounded by ``max_spans`` so long-lived clusters
cannot leak.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import get_ident
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "wall_clock"]


def wall_clock() -> float:
    """The one sanctioned wall-clock read in the simulation stack.

    ND001 bans direct ``time.time``/``perf_counter`` calls but this
    marked one: simulation logic must be deterministic (use the injector's
    logical tick), while *observability* — span timing, stage busy-time
    metrics — legitimately measures real elapsed time through this seam.
    Benchmarks keep their wall-seconds schemas; tests can monkeypatch a
    single function instead of chasing ``time`` imports.
    """
    # ndlint: allow[ND001] -- the one sanctioned wall-clock seam
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
    args: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects nested spans opened on the thread that created it."""

    def __init__(self, max_spans: int = 100_000):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._epoch = wall_clock()
        self._owner = get_ident()
        self._depth = 0
        self.spans: List[Span] = []
        #: spans discarded because the buffer was full
        self.dropped_spans = 0

    # -- recording ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "flow",
             **args: Any) -> Iterator[Span]:
        """Time a region; yields the (not yet finalised) Span object."""
        if get_ident() != self._owner:
            raise RuntimeError(
                f"{name}: span opened from thread {get_ident()}, but "
                f"its tracer belongs to thread {self._owner}")
        depth = self._depth
        self._depth = depth + 1
        record = Span(
            name=name,
            category=category,
            start_s=wall_clock() - self._epoch,
            duration_s=0.0,
            depth=depth,
            thread_id=self._owner,
            args=dict(args),
        )
        try:
            yield record
        finally:
            record.duration_s = (wall_clock() - self._epoch) - record.start_s
            self._depth = depth
            if len(self.spans) < self.max_spans:
                self.spans.append(record)
            else:
                self.dropped_spans += 1

    # -- queries ------------------------------------------------------------
    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        self.spans.clear()
        self.dropped_spans = 0

    def __len__(self) -> int:
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
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": 1,
                "tid": span.thread_id % 2 ** 31,
                "args": span.args,
            })
        return json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, indent=indent,
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregate: count and total/mean seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            agg = out.setdefault(span.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += span.duration_s
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return out
