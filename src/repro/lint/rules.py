"""The ndlint rule catalogue (ND001-ND005), implemented over the AST.

Every rule consumes a parsed :class:`ModuleContext` and yields
:class:`~repro.lint.findings.Finding` records; the engine applies module
allowlists and inline ``# ndlint: allow[...]`` markers afterwards.

* **ND001 determinism** — no wall-clock read or sleep, and no entropy
  read (``time.time``/``perf_counter``/``monotonic``/``sleep``, stdlib
  ``random``, ``os.urandom``, argless ``datetime.now``, unseeded
  ``default_rng()``) outside the obs/tracing allowlist: simulation code
  spends logical time, on the fault injector's tick, and reads the wall
  clock only through the sanctioned :func:`repro.obs.tracing.wall_clock`
  seam.
* **ND002 accounting** — ``ObjectStore.peek`` / ``iter_items`` are
  maintenance reads that bypass workload IO accounting; only maintenance
  modules (durability, checkpoint/persistence, scrub, fault injection)
  may call them.
* **ND003 guarded-by** — attributes declared via the
  ``@guarded_by("lock")`` decorator or a trailing ``# guarded by: lock``
  comment may only be touched inside a matching ``with self.<lock>:``
  block (``__init__`` is exempt; nested functions must take the lock
  themselves because they may run on other threads).
* **ND004 metrics hygiene** — metric family names must be literal
  snake_case strings, registered at exactly one site repo-wide, and
  listed in the generated ``obs/METRICS.md`` manifest.
* **ND005 retry discipline** — fabric ``send`` calls must sit inside a
  :func:`~repro.faults.retry.call_with_retry` thunk (a lambda, or a
  nested function handed to ``call_with_retry`` in the same scope) or be
  explicitly marked ``# ndlint: fire-and-forget -- <why>``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .allowlist import Marker, parse_markers
from .findings import Finding

__all__ = [
    "ModuleContext",
    "MetricRegistration",
    "check_determinism",
    "check_accounting",
    "check_guarded_by",
    "check_retry_discipline",
    "collect_metric_registrations",
    "check_metric_hygiene",
    "SNAKE_CASE",
]

#: wall-clock reads and sleeps on the ``time`` module
_BANNED_TIME = {"time", "perf_counter", "monotonic",
                "time_ns", "perf_counter_ns", "monotonic_ns", "sleep"}
#: argless datetime-class constructors of "now"
_BANNED_NOW = {"now", "utcnow", "today"}
#: registry registration methods (ND004)
_REGISTER_METHODS = {"counter", "gauge", "histogram"}
#: receivers treated as a MetricsRegistry (ND004)
_METRIC_RECEIVERS = {"metrics", "registry"}
#: receivers treated as the network fabric (ND005)
_FABRIC_RECEIVERS = {"network", "fabric"}
#: maintenance-only ObjectStore entry points (ND002)
_MAINTENANCE_READS = {"peek", "iter_items"}

SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*[a-z0-9]$")

_GUARD_COMMENT = re.compile(r"#\s*guarded by:\s*(?P<lock>\w+)")


@dataclass
class ModuleContext:
    """One parsed source file plus everything the rules need to see."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str]
    allows: Dict[int, Set[str]]
    allow_findings: List[Finding]
    markers: List[Marker] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        markers, allow_findings = parse_markers(path, source)
        allows: Dict[int, Set[str]] = {}
        for marker in markers:
            for lineno in marker.covered:
                allows.setdefault(lineno, set()).update(marker.rules)
        return cls(path=path, source=source, tree=tree,
                   lines=source.splitlines(), allows=allows,
                   allow_findings=allow_findings, markers=markers)


def _finding(ctx: ModuleContext, node: ast.AST, rule: str,
             message: str) -> Finding:
    return Finding(path=ctx.path, line=node.lineno,
                   col=node.col_offset + 1, rule=rule, message=message)


# ---------------------------------------------------------------------------
# import resolution shared by ND001
# ---------------------------------------------------------------------------
def _collect_imports(tree: ast.Module) -> Tuple[Dict[str, str],
                                                Dict[str, Tuple[str, str]]]:
    """(alias -> module name, alias -> (module, symbol)) over all scopes."""
    modules: Dict[str, str] = {}
    symbols: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                modules[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for item in node.names:
                symbols[item.asname or item.name] = (node.module, item.name)
    return modules, symbols


# ---------------------------------------------------------------------------
# ND001 — determinism
# ---------------------------------------------------------------------------
def check_determinism(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    modules, symbols = _collect_imports(ctx.tree)

    def resolve(func: ast.AST) -> Optional[Tuple[str, str]]:
        """(module, symbol) a call target resolves to, if importable."""
        if isinstance(func, ast.Name):
            return symbols.get(func.id)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in modules:
                return modules[base.id], func.attr
            # datetime.datetime.now() / aliased `from datetime import datetime`
            if isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name) and \
                    modules.get(base.value.id) == "datetime":
                return f"datetime.{base.attr}", func.attr
            if isinstance(base, ast.Name) and base.id in symbols:
                mod, sym = symbols[base.id]
                return f"{mod}.{sym}", func.attr
        return None

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "default_rng" \
                and not node.args and not node.keywords:
            findings.append(_finding(
                ctx, node, "ND001",
                "unseeded default_rng() is nondeterministic; pass an "
                "explicit seed"))
            continue
        target = resolve(func)
        if target is None:
            continue
        module, symbol = target
        if module == "time" and symbol in _BANNED_TIME:
            findings.append(_finding(
                ctx, node, "ND001",
                f"wall-clock read or sleep time.{symbol}(); simulation code "
                "must use the injector tick or "
                "repro.obs.tracing.wall_clock()"))
        elif module == "os" and symbol == "urandom":
            findings.append(_finding(
                ctx, node, "ND001",
                "os.urandom() is nondeterministic; derive bytes from a "
                "seeded rng"))
        elif module == "random":
            findings.append(_finding(
                ctx, node, "ND001",
                f"stdlib random.{symbol}() draws from unseeded global "
                "state; use numpy's default_rng(seed)"))
        elif module in ("datetime.datetime", "datetime.date") and \
                symbol in _BANNED_NOW and not node.args and not node.keywords:
            findings.append(_finding(
                ctx, node, "ND001",
                f"argless {module.split('.')[-1]}.{symbol}() reads the wall "
                "clock; timestamps must come from the logical clock"))
    return findings


# ---------------------------------------------------------------------------
# ND002 — workload-IO accounting
# ---------------------------------------------------------------------------
def check_accounting(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MAINTENANCE_READS:
            findings.append(_finding(
                ctx, node, "ND002",
                f"maintenance read .{node.func.attr}() bypasses workload IO "
                "accounting; only durability/checkpoint/scrub modules may "
                "use it"))
    return findings


# ---------------------------------------------------------------------------
# ND003 — guarded-by
# ---------------------------------------------------------------------------
def _guarded_attrs(ctx: ModuleContext,
                   cls: ast.ClassDef) -> Dict[str, str]:
    """attr -> lock declared by decorators and # guarded by: comments."""
    guarded: Dict[str, str] = {}
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = decorator.func
        label = name.id if isinstance(name, ast.Name) else (
            name.attr if isinstance(name, ast.Attribute) else None)
        if label != "guarded_by" or not decorator.args:
            continue
        literals = [a.value for a in decorator.args
                    if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        if len(literals) >= 2:
            lock, attrs = literals[0], literals[1:]
            for attr in attrs:
                guarded[attr] = lock
    # trailing "# guarded by: <lock>" comments on self.<attr> assignments
    for node in ast.walk(cls):
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        line = ctx.lines[node.lineno - 1] if node.lineno <= len(ctx.lines) \
            else ""
        match = _GUARD_COMMENT.search(line)
        if match is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                guarded[target.attr] = match.group("lock")
    return guarded


def _with_locks(item: ast.withitem) -> Optional[str]:
    """The lock attr name of a ``with self.<lock>:`` context item."""
    expr = item.context_expr
    if isinstance(expr, ast.Attribute) and \
            isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return expr.attr
    return None


def check_guarded_by(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []

    def scan(node: ast.AST, guarded: Dict[str, str],
             held: frozenset) -> None:
        if isinstance(node, ast.With):
            taken = {lock for lock in map(_with_locks, node.items)
                     if lock is not None}
            for item in node.items:
                scan(item, guarded, held)
            inner = held | taken
            for child in node.body:
                scan(child, guarded, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # a nested function may run on another thread: it must take
            # the lock itself, so the held set does not flow in
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                scan(child, guarded, frozenset())
            return
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and node.attr in guarded:
            lock = guarded[node.attr]
            if lock not in held:
                # AugAssign targets parse as Store; reads and writes both
                # need the lock
                verb = "written" if isinstance(node.ctx, (ast.Store, ast.Del)) \
                    else "read"
                findings.append(_finding(
                    ctx, node, "ND003",
                    f"self.{node.attr} is declared guarded by self.{lock} "
                    f"but is {verb} outside a 'with self.{lock}:' block"))
        for child in ast.iter_child_nodes(node):
            scan(child, guarded, held)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guarded = _guarded_attrs(ctx, node)
        if not guarded:
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    continue  # construction happens before sharing
                for child in item.body:
                    scan(child, guarded, frozenset())
    return findings


# ---------------------------------------------------------------------------
# ND004 — metrics hygiene
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MetricRegistration:
    """One ``metrics.counter/gauge/histogram(...)`` call site."""

    name: Optional[str]  # None when the name is not a literal
    kind: str
    help: str
    labels: Tuple[str, ...]
    path: str
    line: int
    col: int


def _is_metrics_receiver(value: ast.AST) -> bool:
    if isinstance(value, ast.Name):
        return value.id in _METRIC_RECEIVERS
    if isinstance(value, ast.Attribute):
        return value.attr in _METRIC_RECEIVERS
    return False


def collect_metric_registrations(ctx: ModuleContext,
                                 ) -> List[MetricRegistration]:
    out: List[MetricRegistration] = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr in _REGISTER_METHODS and
                _is_metrics_receiver(node.func.value)):
            continue
        name: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant) and \
                isinstance(node.args[0].value, str):
            name = node.args[0].value
        help_text = ""
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            help_text = node.args[1].value
        labels: Tuple[str, ...] = ()
        label_nodes = [kw.value for kw in node.keywords
                       if kw.arg == "label_names"]
        if len(node.args) > 2:
            label_nodes.append(node.args[2])
        for label_node in label_nodes:
            if isinstance(label_node, (ast.Tuple, ast.List)):
                labels = tuple(
                    e.value for e in label_node.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
        out.append(MetricRegistration(
            name=name, kind=node.func.attr, help=help_text, labels=labels,
            path=ctx.path, line=node.lineno, col=node.col_offset + 1,
        ))
    return out


def check_metric_hygiene(registrations: Sequence[MetricRegistration],
                         manifest_names: Optional[Set[str]] = None,
                         manifest_scope: Optional[str] = None,
                         ) -> List[Finding]:
    """Cross-module pass: literal snake_case, repo-wide unique, in manifest.

    ``manifest_names`` is the set of families ``obs/METRICS.md`` lists
    (``None`` skips the manifest check entirely); ``manifest_scope``
    limits the manifest check to paths containing that substring, so
    lint fixtures outside the package are not expected in the manifest.
    """
    findings: List[Finding] = []
    first_site: Dict[str, MetricRegistration] = {}
    for reg in registrations:
        if reg.name is None:
            findings.append(Finding(
                path=reg.path, line=reg.line, col=reg.col, rule="ND004",
                message=f"metric family name passed to .{reg.kind}() must "
                        "be a string literal so the manifest can be "
                        "generated statically"))
            continue
        if not SNAKE_CASE.match(reg.name):
            findings.append(Finding(
                path=reg.path, line=reg.line, col=reg.col, rule="ND004",
                message=f"metric family {reg.name!r} is not snake_case"))
        earlier = first_site.get(reg.name)
        if earlier is not None:
            findings.append(Finding(
                path=reg.path, line=reg.line, col=reg.col, rule="ND004",
                message=f"metric family {reg.name!r} already registered at "
                        f"{earlier.path}:{earlier.line}; families must have "
                        "exactly one registration site repo-wide"))
        else:
            first_site[reg.name] = reg
        if manifest_names is not None and \
                (manifest_scope is None or manifest_scope in reg.path) and \
                reg.name not in manifest_names:
            findings.append(Finding(
                path=reg.path, line=reg.line, col=reg.col, rule="ND004",
                message=f"metric family {reg.name!r} is missing from the "
                        "obs/METRICS.md manifest; regenerate it with "
                        "'repro lint --update-manifest'"))
    return findings


# ---------------------------------------------------------------------------
# ND005 — retry discipline
# ---------------------------------------------------------------------------
def _is_fabric_send(node: ast.Call) -> bool:
    if not (isinstance(node.func, ast.Attribute) and
            node.func.attr == "send"):
        return False
    value = node.func.value
    if isinstance(value, ast.Name):
        return value.id in _FABRIC_RECEIVERS
    if isinstance(value, ast.Attribute):
        return value.attr in _FABRIC_RECEIVERS
    return False


def _retry_thunk_names(scope: ast.AST) -> Set[str]:
    """Names of functions passed to call_with_retry inside ``scope``."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        label = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if label != "call_with_retry":
            continue
        for arg in node.args[:1]:
            if isinstance(arg, ast.Name):
                names.add(arg.id)
    return names


def check_retry_discipline(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []

    def scan(node: ast.AST, under_retry: bool,
             thunks: Set[str]) -> None:
        if isinstance(node, ast.Lambda):
            # lambdas wrapping sends are retry thunks by convention
            scan(node.body, True, thunks)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner_thunks = thunks | _retry_thunk_names(node)
            covered = node.name in inner_thunks
            for child in node.body:
                scan(child, covered, inner_thunks)
            return
        if isinstance(node, ast.Call) and _is_fabric_send(node) and \
                not under_retry:
            findings.append(_finding(
                ctx, node, "ND005",
                "fabric transfer outside a RetryPolicy: wrap the send in "
                "call_with_retry(...) or mark the site "
                "'# ndlint: fire-and-forget -- <why>'"))
        for child in ast.iter_child_nodes(node):
            scan(child, under_retry, thunks)

    scan(ctx.tree, False, set())
    return findings
