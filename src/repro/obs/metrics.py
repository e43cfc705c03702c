"""MetricsRegistry — labelled counters, gauges, and histograms.

The cluster's argument is quantitative (per-stage NPE bottlenecks,
FT-DMP traffic vs. baselines, Check-N-Run delta ratios), so every hot
path reports into one shared registry instead of ad-hoc attributes
scattered across objects.  The registry exports two machine-readable
views:

* :meth:`MetricsRegistry.export_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples with labels),
  scrapeable as-is;
* :meth:`MetricsRegistry.export_json` — a nested dict for the bench
  trajectory and tests.

All instruments are thread-safe: the NPE's :class:`ThreadedPipeline`
reports from worker threads while the Tuner reports from the caller.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..lint.guards import guarded_by

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: default histogram buckets (seconds-flavoured, like Prometheus defaults)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

LabelValues = Tuple[str, ...]


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_labels(label_names: Sequence[str], values: LabelValues) -> str:
    if not label_names:
        return ""
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in zip(label_names, values)
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Common label handling for one metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        self.name = _validate_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> LabelValues:
        # keyword names are distinct, so equal counts plus every declared
        # name present is set equality; no sets are built on the hot path
        if len(labels) == len(self.label_names):
            try:
                return tuple([str(labels[k]) for k in self.label_names])
            except KeyError:
                pass
        raise ValueError(
            f"{self.name} expects labels {self.label_names}, "
            f"got {tuple(sorted(labels))}"
        )


@guarded_by("_lock", "_values")
class Counter(_Instrument):
    """A monotonically increasing sum, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[str, float]]:
        with self._lock:
            return [
                (self.name + _format_labels(self.label_names, key), value)
                for key, value in sorted(self._values.items())
            ]

    def as_dict(self) -> Dict:
        with self._lock:
            if not self.label_names:
                return {"value": self._values.get((), 0.0)}
            return {
                "labels": list(self.label_names),
                "values": [
                    {"labels": list(key), "value": value}
                    for key, value in sorted(self._values.items())
                ],
            }


@guarded_by("_lock", "_values")
class Gauge(_Instrument):
    """A value that can go up and down (journal size, fleet health)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    samples = Counter.samples
    as_dict = Counter.as_dict


class _HistogramState:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * num_buckets
        self.count = 0
        self.sum = 0.0


@guarded_by("_lock", "_states")
class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, label_names)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets = tuple(bounds)
        self._states: Dict[LabelValues, _HistogramState] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Count ``value`` in the first bucket whose bound is >= it.

        NaN is refused: it would raise ``_count`` and poison ``_sum``
        while landing in no bucket, so ``le="+Inf"`` would stop equalling
        ``_count``.
        """
        if math.isnan(value):
            raise ValueError(f"{self.name}: cannot observe NaN")
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.buckets))
            state.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
            state.count += 1
            state.sum += value

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            return 0 if state is None else state.count

    def sum(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            return 0.0 if state is None else state.sum

    def samples(self) -> List[Tuple[str, float]]:
        out: List[Tuple[str, float]] = []
        with self._lock:
            for key, state in sorted(self._states.items()):
                cumulative = 0
                for bound, in_bucket in zip(self.buckets, state.bucket_counts):
                    cumulative += in_bucket
                    names = self.label_names + ("le",)
                    values = key + (_format_value(bound),)
                    out.append((
                        f"{self.name}_bucket" + _format_labels(names, values),
                        float(cumulative),
                    ))
                suffix = _format_labels(self.label_names, key)
                out.append((f"{self.name}_sum{suffix}", state.sum))
                out.append((f"{self.name}_count{suffix}", float(state.count)))
        return out

    def as_dict(self) -> Dict:
        with self._lock:
            return {
                "labels": list(self.label_names),
                "buckets": [_format_value(b) for b in self.buckets],
                "values": [
                    {
                        "labels": list(key),
                        "count": state.count,
                        "sum": state.sum,
                        "bucket_counts": list(state.bucket_counts),
                    }
                    for key, state in sorted(self._states.items())
                ],
            }


@guarded_by("_lock", "_families")
class MetricsRegistry:
    """One namespace of instruments shared by a whole cluster.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the family, later calls return the same object (and
    reject re-registration under a different type or label set, which
    would silently fork the accounting).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Instrument] = {}

    # -- registration -------------------------------------------------------
    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                self._check_compatible(existing, Histogram, name, label_names)
                return existing  # type: ignore[return-value]
            instrument = Histogram(name, help, label_names, buckets)
            self._families[name] = instrument
            return instrument

    def _register(self, cls, name: str, help: str,
                  label_names: Sequence[str]):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                self._check_compatible(existing, cls, name, label_names)
                return existing
            instrument = cls(name, help, label_names)
            self._families[name] = instrument
            return instrument

    @staticmethod
    def _check_compatible(existing: _Instrument, cls, name: str,
                          label_names: Sequence[str]) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        if existing.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.label_names}, not {tuple(label_names)}"
            )

    # -- reads --------------------------------------------------------------
    def get(self, name: str) -> _Instrument:
        with self._lock:
            try:
                return self._families[name]
            except KeyError:
                raise KeyError(f"metric {name!r} not registered") from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    # -- export -------------------------------------------------------------
    def export_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for sample_name, value in family.samples():
                lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def export_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_dict(self) -> Dict:
        with self._lock:
            families = sorted(self._families.items())
        return {
            name: {
                "type": family.kind,
                "help": family.help,
                **family.as_dict(),
            }
            for name, family in families
        }


def iter_samples(registry: MetricsRegistry) -> Iterable[Tuple[str, float]]:
    """Every (sample_name, value) pair across the registry."""
    for name in registry.names():
        yield from registry.get(name).samples()
