"""Declared invariants consumed by the interprocedural rules.

Two class decorators turn prose invariants into machine-checked
contracts.  Both validate their arguments once at decoration time and
stash the declaration on the class, and both are read *statically* from
the AST by the ND006/ND007 rules, so the checks hold even for code paths
no test executes.

``@conserves("granted == in_flight + available")``
    Declares a conservation law over integer counters of the class and
    gives the class its runtime ``check()``: compiled from every law the
    class declares, it raises :class:`RuntimeError` naming the class,
    the broken law and the values of its fields, and costs what the
    same comparison written by hand costs.
    ND006 proves every mutating method keeps the law: on **every**
    branch/early-return path, the net delta applied to the left-hand
    field equals the summed deltas of the right-hand fields (``strict``
    mode, the default).  ``mode="group"`` relaxes per-path balance to
    path *consistency* — every path through a method must apply the
    same (lhs, rhs-sum) delta — for ledgers whose law closes only at
    the end of a run (each resolution bumps exactly one right-hand
    counter; ``check()`` settles the books).  ``mode="measure"`` is for
    ledgers of measured seconds, whose deltas are values, not counts:
    ND006 reads each delta as the sum of the terms it is written as and
    proves every path gives the left-hand field exactly the right-hand
    fields' terms, and ``check()`` compares within float rounding
    (``math.isclose``), since ``(a + b) + (c + d)`` need not equal
    ``(a + c) + (b + d)`` in the last bit.

``@fenced_by("_fence", "model", "model_version")``
    Declares that the named attributes are epoch-fenced state: every
    method that mutates them (directly, or transitively through the
    call graph) must be dominated by a call to the fencing check — a
    method that raises (e.g. :class:`~repro.faults.errors.StaleEpochError`)
    when the mutation must not proceed.  ND007 proves the dominance on
    every path; ``__init__`` is exempt, construction happens before the
    object is reachable from the fabric.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, NoReturn, Tuple

__all__ = ["conserves", "fenced_by", "parse_conservation"]

#: ``lhs == t1 + t2 + ...`` over identifier field names
_CONSERVATION = re.compile(
    r"^\s*(?P<lhs>[A-Za-z_]\w*)\s*==\s*"
    r"(?P<rhs>[A-Za-z_]\w*(?:\s*\+\s*[A-Za-z_]\w*)*)\s*$")

_MODES = ("strict", "group", "measure")


def parse_conservation(law: str) -> Tuple[str, List[str]]:
    """Split ``"lhs == a + b + c"`` into ``("lhs", ["a", "b", "c"])``."""
    match = _CONSERVATION.match(law)
    if match is None:
        raise ValueError(
            f"conservation law {law!r} must read 'field == field + field"
            " + ...'")
    lhs = match.group("lhs")
    rhs = [term.strip() for term in match.group("rhs").split("+")]
    if lhs in rhs or len(set(rhs)) != len(rhs):
        raise ValueError(f"conservation law {law!r} repeats a field")
    return lhs, rhs


def conserves(law: str, mode: str = "strict") -> Callable[[type], type]:
    """Declare a conservation law over counter fields of the class."""
    lhs, rhs = parse_conservation(law)
    if mode not in _MODES:
        raise ValueError(f"unknown conservation mode {mode!r}; "
                         f"pick one of {_MODES}")

    def decorate(cls: type) -> type:
        laws: List[Dict] = list(getattr(cls, "__conserves__", ()))
        laws.append({"law": law, "lhs": lhs, "rhs": tuple(rhs),
                     "mode": mode})
        cls.__conserves__ = laws
        cls.check = _compile_check(laws)
        return cls

    return decorate


def _compile_check(laws: List[Dict]) -> Callable[[object], None]:
    """``check(self)`` testing each law with plain attribute reads, as
    ``dataclasses`` builds ``__init__``: a generic reader (attrgetter
    and ``sum``) costs twice as much on a per-request ledger."""
    lines = ["def check(self):"]
    for index, law in enumerate(laws):
        terms = " + ".join(f"self.{name}" for name in law["rhs"])
        broken = (f"not _isclose(self.{law['lhs']}, {terms})"
                  if law["mode"] == "measure"
                  else f"self.{law['lhs']} != {terms}")
        lines += [f"    if {broken}:",
                  f"        _violated(self, _LAWS[{index}])"]
    namespace = {"_violated": _violated, "_LAWS": laws,
                 "_isclose": math.isclose}
    exec("\n".join(lines), namespace)
    return namespace["check"]


def _violated(obj: object, law: Dict) -> NoReturn:
    values = ", ".join(f"{name}={getattr(obj, name)}"
                       for name in (law["lhs"], *law["rhs"]))
    raise RuntimeError(f"{type(obj).__name__} conservation violated: "
                       f"{law['law']} ({values})")


def fenced_by(fence: str, *attrs: str) -> Callable[[type], type]:
    """Declare ``attrs`` as epoch-fenced state checked by ``fence``."""
    if not attrs:
        raise ValueError("fenced_by needs at least one attribute name")
    if not fence.isidentifier() or \
            not all(a.isidentifier() for a in attrs):
        raise ValueError("fence and attribute names must be identifiers")

    def decorate(cls: type) -> type:
        mapping = dict(getattr(cls, "__fenced_by__", {}))
        for attr in attrs:
            mapping.setdefault(attr, fence)
        cls.__fenced_by__ = mapping
        return cls

    return decorate
