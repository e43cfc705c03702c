"""The interprocedural rule tier (ND006, ND007, ND009).

Built on the :mod:`repro.lint.callgraph` symbol table, these rules see
the whole linted tree at once.  A shared bounded **path enumerator** walks every
branch/early-return/exception path of a function body and hands each
non-compound statement to a rule-specific event extractor; the rules
then reason about event *order* (ND007 dominance) or event *sums*
(ND006 conservation) per path.

* **ND006 conservation** — classes declaring
  ``@conserves("lhs == a + b")`` must mutate those counters in balanced
  groups: in ``strict`` mode every path through a mutating method nets
  ``delta(lhs) == delta(a) + delta(b)``; in ``group`` mode every
  completing path must apply the *same* (lhs, rhs-sum) delta pair (for
  ledgers whose law closes only at end-of-run).  Mutations through a
  typed receiver (``self.report.completed += 1`` where ``self.report``
  holds a conserved class) are checked in the mutating function.
* **ND007 epoch fencing** — ``@fenced_by("_fence", ...)`` attributes may
  only be mutated on paths dominated by a ``self._fence(...)`` call, so
  a stale-epoch frame can never slip past the
  :class:`~repro.faults.errors.StaleEpochError` raise.  ``__init__`` and
  the fence method itself are exempt.
* **ND009 exception-safe accounting** — conserved-counter mutations and
  metric ``.inc()/.dec()/.set()/.observe()`` calls (through a metrics
  handle, a bound child or a child map) inside a ``try`` body with handlers
  can be skipped by a caught fault mid-group, skewing the books; they
  must move to ``finally``, a context manager, or after the fault
  point.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import ClassInfo, FunctionInfo, ProjectIndex
from .findings import Finding

__all__ = [
    "check_conservation",
    "check_fencing",
    "check_exception_accounting",
    "PathOverflow",
    "enumerate_paths",
]

#: receiver-method calls treated as mutating fenced state (ND007)
_MUTATING_CALLS = {
    "load_state_dict", "adopt", "rebind", "import_training_state",
    "adopt_fleet", "apply_model_delta", "install_model",
}
#: metric instrument methods whose loss skews books (ND009)
_INSTRUMENT_CALLS = {"inc", "dec", "set", "observe"}
#: receivers that look like a metrics handle (ND009)
_METRIC_ROOTS = {"m", "metrics", "_metrics", "_m"}
#: name prefixes of bound children and child maps (ND009):
#: ``self._m_stored.inc()``, ``m_bytes[kind].inc(n)``
_METRIC_PREFIXES = ("_m_", "m_")

_MAX_PATHS = 128


# ---------------------------------------------------------------------------
# bounded path enumeration shared by ND006/ND007
# ---------------------------------------------------------------------------
class PathOverflow(Exception):
    """Raised when a function forks past the path budget."""


class _Path:
    __slots__ = ("events", "term")

    def __init__(self, events: Optional[list] = None,
                 term: Optional[str] = None):
        self.events = events if events is not None else []
        self.term = term

    def fork(self) -> "_Path":
        return _Path(list(self.events), self.term)


def enumerate_paths(body: Sequence[ast.stmt],
                    events_of: Callable[[ast.AST], list],
                    max_paths: int = _MAX_PATHS) -> List[_Path]:
    """Every execution path through ``body`` with its ordered events.

    ``events_of`` maps one simple statement or expression to the events
    it contributes.  Loops run zero-or-once (sufficient for per-path
    balance and dominance properties over loop-free accounting code),
    ``try`` forks into body-completes and fault-at-entry-per-handler
    paths, and nested function definitions are opaque.  Paths terminated
    by ``return``/``raise`` carry that terminator.
    """
    done: List[_Path] = []
    live = _exec_block(list(body), [_Path()], done, events_of, max_paths)
    for path in live:
        path.term = "fall"
    return done + live


def _check_budget(paths: List[_Path], max_paths: int) -> List[_Path]:
    if len(paths) > max_paths:
        raise PathOverflow()
    return paths


def _exec_block(stmts: List[ast.stmt], live: List[_Path],
                done: List[_Path], events_of, max_paths) -> List[_Path]:
    for stmt in stmts:
        if not live:
            break
        live = _exec_stmt(stmt, live, done, events_of, max_paths)
    return live


def _emit(live: List[_Path], node: Optional[ast.AST], events_of) -> None:
    if node is None:
        return
    events = events_of(node)
    if events:
        for path in live:
            path.events.extend(events)


def _exec_stmt(stmt: ast.stmt, live: List[_Path], done: List[_Path],
               events_of, max_paths) -> List[_Path]:
    if isinstance(stmt, ast.If):
        _emit(live, stmt.test, events_of)
        then = _exec_block(stmt.body, [p.fork() for p in live], done,
                           events_of, max_paths)
        other = _exec_block(stmt.orelse, [p.fork() for p in live], done,
                            events_of, max_paths)
        return _check_budget(then + other, max_paths)
    if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
        _emit(live, getattr(stmt, "test", None) or
              getattr(stmt, "iter", None), events_of)
        once = _exec_block(stmt.body, [p.fork() for p in live], done,
                           events_of, max_paths)
        merged = _check_budget([p.fork() for p in live] + once, max_paths)
        return _exec_block(stmt.orelse, merged, done, events_of, max_paths)
    if isinstance(stmt, ast.Try):
        # path A: the body completes, then orelse; paths B: a fault hits
        # before the body's effects land and a handler runs instead (the
        # most pessimistic prefix for conservation); finally runs on all
        ok = _exec_block(stmt.body, [p.fork() for p in live], done,
                         events_of, max_paths)
        ok = _exec_block(stmt.orelse, ok, done, events_of, max_paths)
        out = ok
        for handler in stmt.handlers:
            caught = _exec_block(handler.body, [p.fork() for p in live],
                                 done, events_of, max_paths)
            out = out + caught
        out = _check_budget(out, max_paths)
        return _exec_block(stmt.finalbody, out, done, events_of, max_paths)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            _emit(live, item.context_expr, events_of)
        return _exec_block(stmt.body, live, done, events_of, max_paths)
    if isinstance(stmt, ast.Return):
        _emit(live, stmt.value, events_of)
        for path in live:
            path.term = "return"
        done.extend(live)
        return []
    if isinstance(stmt, ast.Raise):
        _emit(live, stmt.exc, events_of)
        for path in live:
            path.term = "raise"
        done.extend(live)
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return live  # deferred execution: opaque to this analysis
    # simple statement (Assign/AugAssign/Expr/Assert/...): events in
    # source order via a sub-walk that skips nested function bodies
    _emit(live, stmt, events_of)
    return live


def _walk_expr(node: ast.AST):
    """ast.walk that does not descend into nested function/class defs."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


# ---------------------------------------------------------------------------
# ND006 — conservation
# ---------------------------------------------------------------------------
def _laws(index: ProjectIndex) -> List[Tuple[ClassInfo, Dict]]:
    out: List[Tuple[ClassInfo, Dict]] = []
    from .contracts import parse_conservation
    for info in index.classes.values():
        for law in info.conserves:
            try:
                lhs, rhs = parse_conservation(law["law"])
            except ValueError:
                continue
            law.setdefault("lhs", lhs)
            law.setdefault("rhs", tuple(rhs))
            out.append((info, law))
    return out


def _field_targets(node: ast.AST) -> List[Tuple[ast.expr, str]]:
    """(receiver expr, field) pairs a statement stores into."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    out: List[Tuple[ast.expr, str]] = []
    stack = targets
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Attribute):
            out.append((target.value, target.attr))
    return out


def _aug_delta(node: ast.AugAssign) -> Optional[int]:
    """The signed constant delta of ``x += C`` / ``x -= C``, else None."""
    if not (isinstance(node.value, ast.Constant) and
            isinstance(node.value.value, (int, float)) and
            not isinstance(node.value.value, bool)):
        return None
    value = node.value.value
    if isinstance(node.op, ast.Add):
        return int(value) if float(value).is_integer() else None
    if isinstance(node.op, ast.Sub):
        return -int(value) if float(value).is_integer() else None
    return None


def _conservation_events(index: ProjectIndex, func: FunctionInfo,
                         cls: ClassInfo, fields: Set[str],
                         node: ast.AST) -> list:
    """(kind, field, delta, line) events one statement contributes."""
    events: list = []
    for sub in _walk_expr(node):
        if isinstance(sub, ast.AugAssign):
            for recv, attr in _field_targets(sub):
                if attr in fields and \
                        index.receiver_class(func, recv) is cls:
                    events.append(("delta", attr, _aug_delta(sub),
                                   sub.lineno))
        elif isinstance(sub, ast.Assign):
            for recv, attr in _field_targets(sub):
                if attr in fields and \
                        index.receiver_class(func, recv) is cls:
                    events.append(("rebind", attr, None, sub.lineno))
    return events


def check_conservation(index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    laws = [(cls, law, {law["lhs"], *law["rhs"]})
            for cls, law in _laws(index)]
    if not laws:
        return findings
    for func in index.functions.values():
        # one walk for the attribute names the function stores into; a
        # law none of whose fields is among them has no event here
        stored = {attr for sub in _walk_expr(func.node)
                  if isinstance(sub, (ast.AugAssign, ast.Assign))
                  for _, attr in _field_targets(sub)}
        for cls, law, fields in laws:
            if fields.isdisjoint(stored) or \
                    func.cls == cls.name and func.name == "__init__":
                continue
            if _conservation_events(index, func, cls, fields, func.node):
                findings.extend(
                    _check_one_law(index, func, cls, law, fields))
    return findings


def _check_one_law(index: ProjectIndex, func: FunctionInfo, cls: ClassInfo,
                   law: Dict, fields: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    flagged_lines: Set[int] = set()

    def events_of(node: ast.AST) -> list:
        return _conservation_events(index, func, cls, fields, node)

    body = func.node.body
    try:
        paths = enumerate_paths(body, events_of)
    except PathOverflow:
        return [Finding(
            path=func.path, line=func.node.lineno, col=1, rule="ND006",
            message=f"{func.name}() forks past the path budget; ND006 "
                    f"cannot prove '{law['law']}' — split the method")]
    # non-constant deltas and rebinds defeat the proof outright
    for path in paths:
        for kind, fieldname, delta, line in path.events:
            if line in flagged_lines:
                continue
            if kind == "rebind":
                flagged_lines.add(line)
                findings.append(Finding(
                    path=func.path, line=line, col=1, rule="ND006",
                    message=f"conserved field '{fieldname}' of "
                            f"{cls.name} is rebound outside __init__; "
                            f"'{law['law']}' cannot be proven — use "
                            "balanced += / -= groups"))
            elif delta is None:
                flagged_lines.add(line)
                findings.append(Finding(
                    path=func.path, line=line, col=1, rule="ND006",
                    message=f"conserved field '{fieldname}' of "
                            f"{cls.name} is mutated by a non-constant "
                            f"delta; '{law['law']}' cannot be proven"))
    if flagged_lines:
        return findings

    def signature(path: _Path) -> Tuple[int, int]:
        lhs = sum(d for _, f, d, _ in path.events if f == law["lhs"])
        rhs = sum(d for _, f, d, _ in path.events if f != law["lhs"])
        return lhs, rhs

    if law["mode"] == "strict":
        for path in paths:
            lhs, rhs = signature(path)
            if lhs != rhs:
                findings.append(Finding(
                    path=func.path, line=func.node.lineno, col=1,
                    rule="ND006",
                    message=f"{func.name}() has a path leaving "
                            f"'{law['law']}' unbalanced "
                            f"(lhs {lhs:+d}, rhs {rhs:+d}); every "
                            "branch/early-return must mutate the "
                            "counters as a balanced group"))
                break
    else:  # group: completing paths must agree on the delta pair
        signatures: Set[Tuple[int, int]] = set()
        for path in paths:
            if path.term == "raise":
                continue  # error paths settle elsewhere (ND009's beat)
            if path.term == "return" and not path.events:
                continue  # guard-style early return before the group
            signatures.add(signature(path))
        if len(signatures) > 1:
            rendered = ", ".join(
                f"(lhs {l:+d}, rhs {r:+d})"
                for l, r in sorted(signatures))
            findings.append(Finding(
                path=func.path, line=func.node.lineno, col=1,
                rule="ND006",
                message=f"{func.name}() applies inconsistent deltas to "
                        f"'{law['law']}' across paths: {rendered}; every "
                        "completing path must account the outcome "
                        "exactly once"))
    return findings


# ---------------------------------------------------------------------------
# ND007 — epoch fencing
# ---------------------------------------------------------------------------
def _fence_events(func: FunctionInfo, info: ClassInfo,
                  node: ast.AST) -> list:
    """("fence", line) and ("mutate", attr, line, what) events."""
    events: list = []
    fence = info.fence_method
    fenced = set(info.fenced_attrs)
    for sub in _walk_expr(node):
        if isinstance(sub, ast.Call) and \
                isinstance(sub.func, ast.Attribute) and \
                isinstance(sub.func.value, ast.Name) and \
                sub.func.value.id == "self" and sub.func.attr == fence:
            events.append(("fence", sub.lineno))
        elif isinstance(sub, ast.Call) and \
                isinstance(sub.func, ast.Attribute) and \
                sub.func.attr in _MUTATING_CALLS:
            root = _self_attr_root(sub.func.value)
            if root is not None and root in fenced:
                events.append(("mutate", root, sub.lineno,
                               f"self.{root}.{sub.func.attr}(...)"))
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            for recv, attr in _field_targets(sub):
                if isinstance(recv, ast.Name) and recv.id == "self" and \
                        attr in fenced:
                    events.append(("mutate", attr, sub.lineno,
                                   f"self.{attr} = ..."))
                else:
                    root = _self_attr_root(recv)
                    if root is not None and root in fenced:
                        events.append(("mutate", root, sub.lineno,
                                       f"self.{root}.{attr} = ..."))
    # order events on one statement by line (walk order is unordered)
    events.sort(key=lambda e: e[1] if e[0] == "fence" else e[2])
    return events


def _self_attr_root(expr: ast.expr) -> Optional[str]:
    """``self.<root>`` at the base of an attribute chain, if any."""
    while isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return expr.attr
        expr = expr.value
    return None


def check_fencing(index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    for info in index.classes.values():
        if info.fence_method is None:
            continue
        for method in info.methods.values():
            if method.name in ("__init__", info.fence_method):
                continue
            if not _fence_events(method, info, method.node):
                # cheap prescan: collapses to "no events anywhere"
                continue
            findings.extend(_check_dominance(method, info))
    return findings


def _check_dominance(method: FunctionInfo, info: ClassInfo,
                     ) -> List[Finding]:
    findings: List[Finding] = []

    def events_of(node: ast.AST) -> list:
        return _fence_events(method, info, node)

    try:
        paths = enumerate_paths(method.node.body, events_of)
    except PathOverflow:
        return [Finding(
            path=method.path, line=method.node.lineno, col=1, rule="ND007",
            message=f"{method.name}() forks past the path budget; ND007 "
                    f"cannot prove {info.fence_method}() dominance — "
                    "split the method")]
    flagged: Set[int] = set()
    for path in paths:
        fenced = False
        for event in path.events:
            if event[0] == "fence":
                fenced = True
            elif not fenced:
                _, attr, line, what = event
                if line not in flagged:
                    flagged.add(line)
                    findings.append(Finding(
                        path=method.path, line=line, col=1, rule="ND007",
                        message=f"{what} mutates epoch-fenced state of "
                                f"{info.name} on a path with no "
                                f"dominating self.{info.fence_method}() "
                                "check; a stale frame could be applied"))
    return findings


# ---------------------------------------------------------------------------
# ND009 — exception-safe accounting
# ---------------------------------------------------------------------------
def _is_metric_name(name: str) -> bool:
    return name in _METRIC_ROOTS or name.startswith(_METRIC_PREFIXES)


def _is_instrument_call(node: ast.Call) -> bool:
    if not (isinstance(node.func, ast.Attribute) and
            node.func.attr in _INSTRUMENT_CALLS):
        return False
    # receiver chain must pass through a metrics-ish name: self.m.x.inc(),
    # self._m_edges[kind, src, dst].inc()
    expr = node.func.value
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        if isinstance(expr, ast.Attribute) and _is_metric_name(expr.attr):
            return True
        expr = expr.value
    return isinstance(expr, ast.Name) and _is_metric_name(expr.id)


def check_exception_accounting(index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    laws = _laws(index)
    for func in index.functions.values():
        for node in _walk_expr(func.node):
            if not (isinstance(node, ast.Try) and node.handlers):
                continue
            for stmt in node.body:
                findings.extend(
                    _try_body_findings(index, laws, func, stmt))
    return findings


def _try_body_findings(index: ProjectIndex,
                       laws: List[Tuple[ClassInfo, Dict]],
                       func: FunctionInfo, stmt: ast.stmt,
                       ) -> List[Finding]:
    findings: List[Finding] = []
    for sub in _walk_expr(stmt):
        if isinstance(sub, ast.Try):
            return findings  # the nested try re-enters the outer walk
        if isinstance(sub, ast.AugAssign):
            for recv, attr in _field_targets(sub):
                for cls, law in laws:
                    if attr in {law["lhs"], *law["rhs"]} and \
                            index.receiver_class(func, recv) is cls:
                        findings.append(Finding(
                            path=func.path, line=sub.lineno, col=1,
                            rule="ND009",
                            message=f"conserved counter '{attr}' of "
                                    f"{cls.name} mutated inside a try "
                                    "body; a caught fault mid-group "
                                    "skews the books — move it to "
                                    "finally, a context manager, or "
                                    "past the fault point"))
        elif isinstance(sub, ast.Call) and _is_instrument_call(sub):
            findings.append(Finding(
                path=func.path, line=sub.lineno, col=1, rule="ND009",
                message=f".{sub.func.attr}() metric update inside a try "
                        "body with handlers; a caught fault skips it — "
                        "move it to finally or record after the fault "
                        "point"))
    return findings
