"""SpanRecorder — the benchmark's own tracer.

The program's public seams are wrapped *from out here* at run time
(tracing inside ``src/`` is a later issue): class methods are replaced by
attribute, module-level functions by rebinding every ``repro.*`` module
attribute that ``is`` the original object, so ``from x import deflate``
call sites see the wrapper too.  A seam that no longer resolves is
skipped and reported in :attr:`SpanRecorder.missing`, never a crash.

Spans stay in memory until the run ends.  :meth:`SpanRecorder.analyze`
then does the self-time arithmetic: a span's self time is its duration
minus the part of its interval its child spans cover.  Children on the
same thread are disjoint, so that is a plain sum; children on other
threads (``ThreadedPipeline`` stages) may overlap each other, so the
covered part is the *union* of their intervals and the overlapped wall
time is split among them in proportion to their durations.  That keeps
the books balanced: the weighted self times of all spans add up to the
wall time of the root spans, whatever the threading.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["BENCH_LAYER", "Analysis", "Seam", "Span", "SpanRecorder"]

#: layer name of the benchmark's own spans (root, operations); its self
#: time is what no wrapped seam accounts for — the unattributed share
BENCH_LAYER = "bench"

Observer = Callable[["SpanRecorder", tuple, dict, Any], None]


@dataclass(frozen=True)
class Seam:
    """One public call boundary of the program, by import path."""

    layer: str
    module: str
    #: ``"function"`` or ``"Class.method"`` inside ``module``
    qualname: str
    #: optional ``observe(recorder, args, kwargs, result)`` run after the
    #: span closed, for counts measured where the work happens
    observe: Optional[Observer] = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.qualname}"


class Span:
    """One timed region; ``parent`` is the span that caused it."""

    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "op")

    def __init__(self, name: str, layer: str, parent: Optional["Span"],
                 thread: int, op: Optional[int]):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.op = op
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counter(kind):
    return field(default_factory=lambda: defaultdict(kind))


@dataclass
class Analysis:
    """Per-layer totals of one recorded run."""

    #: summed duration of the root spans
    wall_s: float = 0.0
    calls: Dict[str, int] = _counter(int)
    #: weighted self seconds per layer; sums to ``wall_s`` over all layers
    self_s: Dict[str, float] = _counter(float)
    #: plain summed duration per span name (children included)
    inclusive_s: Dict[str, float] = _counter(float)
    calls_by_name: Dict[str, int] = _counter(int)
    #: self seconds per (operation-span name, layer) — which phase of the
    #: workload a layer's time was spent in
    self_by_op: Dict[Tuple[str, str], float] = _counter(float)

    @property
    def unattributed_s(self) -> float:
        return self.self_s.get(BENCH_LAYER, 0.0)

    def share(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0) / self.wall_s if self.wall_s else 0.0


def _covered(parent: Span, children: List[Span]) -> Tuple[float, float]:
    """(union, sum) of the children's intervals clipped to the parent."""
    clipped = [(max(c.start, parent.start), min(c.end, parent.end))
               for c in children]
    total = sum(max(0.0, b - a) for a, b in clipped)
    if all(c.thread == parent.thread for c in children):
        return total, total  # nested on one thread: disjoint by construction
    union = 0.0
    reach = parent.start
    for a, b in sorted(clipped):
        if b > reach:
            union += b - max(a, reach)
            reach = b
    return union, total


class SpanRecorder:
    """Wraps seams, records spans, does the self-time arithmetic."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[Span] = []
        #: wrappers pass straight through while False (probes, set-up)
        self.enabled = True
        #: ``Seam.name`` of every seam that did not resolve
        self.missing: List[str] = []
        #: counts gathered by seam observers, by metric name
        self.counts: Dict[str, float] = defaultdict(float)
        #: objects seam observers want to read after the run, by role
        self.seen: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self._ops = itertools.count()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: List[Span] = []
        self._local.stack = self._home_stack
        self._patched: List[Tuple[Any, str, Any, Any]] = []

    # -- recording -----------------------------------------------------------
    def _begin(self, name: str, layer: str, is_op: bool = False) -> Span:
        thread = threading.get_ident()
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        parent = None
        if stack:
            parent = stack[-1]
        elif thread != self._home:
            # a worker thread's first span was caused by whatever the
            # recording thread is blocked in (ThreadedPipeline.run)
            try:
                parent = self._home_stack[-1]
            except IndexError:
                pass
        op = next(self._ops) if is_op else (parent.op if parent else None)
        span = Span(name, layer, parent, thread, op)
        stack.append(span)
        span.start = self._clock()
        return span

    def _end(self, span: Span) -> None:
        span.end = self._clock()
        self._local.stack.pop()
        self.spans.append(span)  # atomic under the GIL

    @contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER,
             is_op: bool = False) -> Iterator[Span]:
        """Time one region of the benchmark's own code."""
        span = self._begin(name, layer, is_op)
        try:
            yield span
        finally:
            self._end(span)

    def operation(self, name: str):
        """One request-level unit of work; its spans share an ``op`` id."""
        return self.span(name, is_op=True)

    def wrap(self, layer: str, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- seam installation -----------------------------------------------------
    def install(self, seams: List[Seam]) -> None:
        for seam in seams:
            try:
                module = importlib.import_module(seam.module)
                owner: Any = module
                *path, attr = seam.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(seam.name)
                continue
            wrapper = self.wrap(seam.layer, seam.name, original, seam.observe)
            if owner is module:
                for other in self._repro_modules():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapper)
            else:
                self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    @staticmethod
    def _repro_modules() -> List[Any]:
        return [m for name, m in list(sys.modules.items())
                if m is not None
                and (name == "repro" or name.startswith("repro."))]

    def uninstall(self) -> None:
        """Put every original back, including copies imported meanwhile."""
        by_wrapper = {id(wrapper): original
                      for _o, _a, original, wrapper in self._patched}
        for owner, attr, original, _wrapper in reversed(self._patched):
            setattr(owner, attr, original)
        for module in self._repro_modules():
            for key, value in list(vars(module).items()):
                if id(value) in by_wrapper:
                    setattr(module, key, by_wrapper[id(value)])
        self._patched.clear()

    # -- analysis ---------------------------------------------------------------
    def analyze(self) -> Analysis:
        children: Dict[int, List[Span]] = defaultdict(list)
        roots: List[Span] = []
        for span in self.spans:
            if span.parent is None:
                roots.append(span)
            else:
                children[id(span.parent)].append(span)
        op_names = {s.op: s.name for s in self.spans
                    if s.op is not None and s.layer == BENCH_LAYER
                    and (s.parent is None or s.parent.op != s.op)}
        out = Analysis(wall_s=sum(r.duration for r in roots))
        todo = [(root, 1.0) for root in roots]
        while todo:
            span, weight = todo.pop()
            kids = children.get(id(span), ())
            covered, total = _covered(span, kids) if kids else (0.0, 0.0)
            own = weight * (span.duration - covered)
            out.calls[span.layer] += 1
            out.self_s[span.layer] += own
            out.inclusive_s[span.name] += span.duration
            out.calls_by_name[span.name] += 1
            out.self_by_op[(op_names.get(span.op, ""), span.layer)] += own
            child_weight = weight * (covered / total) if total > 0 else weight
            todo.extend((kid, child_weight) for kid in kids)
        return out

    # -- export -------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Dump every span as Chrome ``trace_event`` complete events."""
        epoch = min((s.start for s in self.spans), default=0.0)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        threads: Dict[int, int] = {}
        events = []
        for i, span in enumerate(self.spans):
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1, "tid": threads.setdefault(span.thread, len(threads)),
                "args": {"id": i, "op": span.op,
                         "parent": (None if span.parent is None
                                    else ids.get(id(span.parent)))},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle, separators=(",", ":"))
