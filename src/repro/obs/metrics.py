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

Each label set of a family is a *child* that holds its own value.  A
family validates a label set once, in :meth:`~_Instrument.labels`, and
returns the child; hot paths bind their children up front, so a report
is one check plus one slot update.  ``family.inc/set/dec/observe(**labels)``
stay as one-line delegates for cold sites.

Instruments and the registry are single-owner: a report from a thread
other than the one that created the family, or a registration from a
thread other than the registry's creator, raises :class:`RuntimeError`
and changes nothing.  Nothing here takes a lock.
"""

from __future__ import annotations

import json
import math
import re
import weakref
from bisect import bisect_left
from threading import get_ident
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "ChildMap", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: default histogram buckets (seconds-flavoured, like Prometheus defaults)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

LabelValues = Tuple[str, ...]

# the Prometheus exposition grammar (ASCII only)
_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _validate_name(name: str) -> str:
    if not _METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _validate_label_names(label_names: Sequence[str],
                          reserved: Tuple[str, ...]) -> Tuple[str, ...]:
    for label in label_names:
        if (not _LABEL_NAME.fullmatch(label) or label.startswith("__")
                or label in reserved):
            raise ValueError(f"invalid label name {label!r}")
    return tuple(label_names)


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


def _bucket_bounds(buckets: Sequence[float]) -> Tuple[float, ...]:
    """Sorted bucket bounds, closed by ``+Inf``."""
    bounds = sorted(float(b) for b in buckets)
    if not bounds:
        raise ValueError("need at least one bucket bound")
    if bounds[-1] != math.inf:
        bounds.append(math.inf)
    return tuple(bounds)


def _refuse(name: str, owner: int, verb: str, value: float) -> NoReturn:
    if get_ident() != owner:
        raise RuntimeError(
            f"{name}: reported from thread {get_ident()}, but "
            f"its instruments belong to thread {owner}")
    if value != value:
        raise ValueError(f"{name}: cannot {verb} NaN")
    raise ValueError(f"{name}: counters only go up")


class _Child:
    """One label set's value.  ``_seen`` flips on the first report: a
    child that was bound but never reported exports nothing.  It keeps
    its family's name, not the family (which holds it): a dropped
    registry is freed by reference counting."""

    __slots__ = ("_name", "_owner", "_seen")

    def __init__(self, family: "_Instrument"):
        self._name = family.name
        self._owner = family._owner
        self._seen = False

    def _refuse(self, verb: str, value: float) -> NoReturn:
        _refuse(self._name, self._owner, verb, value)


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, family: "_Instrument"):
        super().__init__(family)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        # one comparison refuses both a negative amount and NaN
        if not amount >= 0 or get_ident() != self._owner:
            self._refuse("count", amount)
        self._value += amount
        self._seen = True

    def value(self) -> float:
        return self._value


class _GaugeChild(_CounterChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        if get_ident() != self._owner:
            self._refuse("set", value)
        self._value = float(value)
        self._seen = True

    def inc(self, amount: float = 1.0) -> None:
        if get_ident() != self._owner:
            self._refuse("inc", amount)
        self._value += amount
        self._seen = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("_bounds", "_buckets", "_count", "_sum")

    def __init__(self, family: "Histogram"):
        super().__init__(family)
        self._bounds = family.buckets
        self._buckets = [0] * len(family.buckets)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Count ``value`` in the first bucket whose bound is >= it.

        NaN is refused: it would raise ``_count`` and poison ``_sum``
        while landing in no bucket, so ``le="+Inf"`` would stop equalling
        ``_count``.
        """
        if value != value or get_ident() != self._owner:
            self._refuse("observe", value)
        self._buckets[bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        self._seen = True

    def count(self) -> int:
        return self._count

    def sum(self) -> float:
        return self._sum


class ChildMap(dict):
    """Label values -> bound child of one family; a miss binds once.

    Keys are the label values in declared order, or the bare value when
    the family has one label: ``fabric_bytes[kind, src, dst]``,
    ``placements[shard]``.
    """

    __slots__ = ("_family", "__weakref__")

    def __init__(self, family: "_Instrument"):
        super().__init__()
        self._family = family

    def __missing__(self, key):
        names = self._family.label_names
        values = (key,) if len(names) == 1 else key
        child = self[key] = self._family.labels(**dict(zip(names, values)))
        return child


class _Instrument:
    """Common label handling for one metric family."""

    kind = "untyped"
    _child_type: type
    #: label names the exposition format keeps for itself
    _reserved: Tuple[str, ...] = ()

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        self.name = _validate_name(name)
        self.help = help
        self.label_names = _validate_label_names(label_names, self._reserved)
        self._owner = get_ident()
        self._children: Dict[LabelValues, _Child] = {}
        self._by_labels: Optional["weakref.ref[ChildMap]"] = None
        self._solo = None if self.label_names else self._bind(())

    def _key(self, labels: Dict[str, str]) -> LabelValues:
        # keyword names are distinct, so equal counts plus every declared
        # name present is set equality
        if len(labels) == len(self.label_names):
            try:
                return tuple([str(labels[k]) for k in self.label_names])
            except KeyError:
                pass
        raise ValueError(
            f"{self.name} expects labels {self.label_names}, "
            f"got {tuple(sorted(labels))}"
        )

    def _bind(self, key: LabelValues) -> _Child:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._child_type(self)
        return child

    def labels(self, **labels: str):
        """The child for one label set, validated here and only here.

        Bind it once and report through it; an unlabelled family hands
        out its single child without building a key.
        """
        if self._solo is not None and not labels:
            return self._solo
        return self._bind(self._key(labels))

    def by_labels(self) -> ChildMap:
        """This family's shared label-values -> child cache.  Held weakly
        (the map holds the family): while anyone holds it, every call
        returns the same map."""
        child_map = None if self._by_labels is None else self._by_labels()
        if child_map is None:
            child_map = ChildMap(self)
            self._by_labels = weakref.ref(child_map)
        return child_map

    def _reported(self) -> List[Tuple[LabelValues, _Child]]:
        return sorted((key, child) for key, child in self._children.items()
                      if child._seen)


class _Scalar(_Instrument):
    """Reads and exports shared by counters and gauges."""

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        child = self._children.get(self._key(labels))
        return 0.0 if child is None else child._value

    def total(self) -> float:
        """Sum across every label set."""
        return sum(child._value for _, child in self._reported())

    def samples(self) -> List[Tuple[str, float]]:
        return [
            (self.name + _format_labels(self.label_names, key), child._value)
            for key, child in self._reported()
        ]

    def as_dict(self) -> Dict:
        if not self.label_names:
            return {"value": self._solo._value}
        return {
            "labels": list(self.label_names),
            "values": [
                {"labels": list(key), "value": child._value}
                for key, child in self._reported()
            ],
        }


class Counter(_Scalar):
    """A monotonically increasing sum, optionally per label set."""

    kind = "counter"
    _child_type = _CounterChild


class Gauge(_Scalar):
    """A value that can go up and down (journal size, fleet health)."""

    kind = "gauge"
    _child_type = _GaugeChild

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).dec(amount)


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"
    _child_type = _HistogramChild
    _reserved = ("le",)

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        # set before the base binds an unlabelled family's child
        self.buckets = _bucket_bounds(buckets)
        super().__init__(name, help, label_names)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)

    def count(self, **labels: str) -> int:
        child = self._children.get(self._key(labels))
        return 0 if child is None else child._count

    def sum(self, **labels: str) -> float:
        child = self._children.get(self._key(labels))
        return 0.0 if child is None else child._sum

    def samples(self) -> List[Tuple[str, float]]:
        out: List[Tuple[str, float]] = []
        names = self.label_names + ("le",)
        for key, child in self._reported():
            cumulative = 0
            for bound, in_bucket in zip(self.buckets, child._buckets):
                cumulative += in_bucket
                values = key + (_format_value(bound),)
                out.append((
                    f"{self.name}_bucket" + _format_labels(names, values),
                    float(cumulative),
                ))
            suffix = _format_labels(self.label_names, key)
            out.append((f"{self.name}_sum{suffix}", child._sum))
            out.append((f"{self.name}_count{suffix}", float(child._count)))
        return out

    def as_dict(self) -> Dict:
        return {
            "labels": list(self.label_names),
            "buckets": [_format_value(b) for b in self.buckets],
            "values": [
                {
                    "labels": list(key),
                    "count": child._count,
                    "sum": child._sum,
                    "bucket_counts": list(child._buckets),
                }
                for key, child in self._reported()
            ],
        }


class MetricsRegistry:
    """One namespace of instruments shared by a whole cluster.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the family, later calls return the same object (and
    reject re-registration under a different type, label set or bucket
    bounds, which would silently fork the accounting).

    Single-owner, like its instruments: a registration from a thread
    other than the registry's creator raises :class:`RuntimeError` and
    changes nothing.  Reads and exports are unchecked.
    """

    def __init__(self):
        self._owner = get_ident()
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
        return self._register(Histogram, name, help, label_names,
                              buckets=buckets)

    def _register(self, cls, name: str, help: str,
                  label_names: Sequence[str], **options):
        if get_ident() != self._owner:
            raise RuntimeError(
                f"{name}: registered from thread {get_ident()}, but "
                f"its registry belongs to thread {self._owner}")
        existing = self._families.get(name)
        if existing is not None:
            self._check_compatible(existing, cls, name, label_names, options)
            return existing
        instrument = cls(name, help, label_names, **options)
        self._families[name] = instrument
        return instrument

    @staticmethod
    def _check_compatible(existing: _Instrument, cls, name: str,
                          label_names: Sequence[str], options: Dict) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        if existing.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.label_names}, not {tuple(label_names)}"
            )
        if "buckets" in options:
            buckets = _bucket_bounds(options["buckets"])
            if existing.buckets != buckets:
                raise ValueError(
                    f"metric {name!r} already registered with buckets "
                    f"{existing.buckets}, not {buckets}"
                )

    # -- reads --------------------------------------------------------------
    def get(self, name: str) -> _Instrument:
        try:
            return self._families[name]
        except KeyError:
            raise KeyError(f"metric {name!r} not registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def names(self) -> List[str]:
        return sorted(self._families)

    # -- export -------------------------------------------------------------
    def export_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for name, family in sorted(self._families.items()):
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for sample_name, value in family.samples():
                lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def export_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_dict(self) -> Dict:
        return {
            name: {
                "type": family.kind,
                "help": family.help,
                **family.as_dict(),
            }
            for name, family in sorted(self._families.items())
        }
