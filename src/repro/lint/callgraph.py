"""Project-wide symbol table and call graph for the ND006-ND009 rules.

The per-module rules (ND001-ND005) see one file at a time; the
interprocedural tier needs to answer project-wide questions — *which
class does ``self.report`` hold*, *does anything ``dispatch`` calls
eventually hit the fabric* — so this module builds, from the already
parsed :class:`~repro.lint.rules.ModuleContext` set:

* a **symbol table** (:class:`ProjectIndex`): every class with its
  methods, its declared contracts (``@conserves`` / ``@fenced_by`` /
  ``@guarded_by``), its lock-like attributes, and an attribute-type map
  inferred from ``self.attr = ClassName(...)`` assignments in
  ``__init__`` (plus dataclass-style annotated assignments);
* a **call graph** keyed by qualified name (``module::Class.method``):
  edges are resolved conservatively — ``self.method()``,
  ``self.attr.method()`` through the inferred attribute types, local
  variables assigned a known constructor, bare names through imports or
  a project-unique function name.  Unresolvable calls simply add no
  edge: the rules built on top only ever *miss* a diagnostic for them,
  never invent one;
* per-function **blocking primitives** (fabric ``send``,
  ``call_with_retry``, ``time.sleep``, file/checkpoint IO), plus
  :meth:`CallGraph.blocking_chain` which walks the edges to explain
  *why* a call eventually blocks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rules import ModuleContext, _collect_imports

__all__ = [
    "BlockingSite",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "module_key",
]

#: receivers treated as the network fabric (shared with ND005)
_FABRIC_RECEIVERS = {"network", "fabric"}
#: attribute calls that perform file IO (checkpoint/persistence writes)
_FILE_IO_ATTRS = {"write_bytes", "write_text", "read_bytes", "read_text"}


def module_key(path: str) -> str:
    """A stable module label for a file path: dotted from ``repro/`` down.

    Falls back to the stem for files outside the package (fixtures).
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _decorator_label(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _str_args(call: ast.Call) -> List[str]:
    return [a.value for a in call.args
            if isinstance(a, ast.Constant) and isinstance(a.value, str)]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    cls: Optional[str]
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: ModuleContext


@dataclass
class ClassInfo:
    """One class definition plus everything the rules read off it."""

    name: str
    module: str
    path: str
    node: ast.ClassDef
    ctx: ModuleContext
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: self.attr -> project class name (from __init__ constructor calls)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attributes assigned a threading.Lock()/RLock() anywhere in the class
    lock_attrs: Set[str] = field(default_factory=set)
    #: @conserves declarations: {"law", "lhs", "rhs", "mode", "line"}
    conserves: List[Dict] = field(default_factory=list)
    #: @fenced_by declaration: fence method name -> tuple of fenced attrs
    fence_method: Optional[str] = None
    fenced_attrs: Tuple[str, ...] = ()

    @property
    def qualname(self) -> str:
        return f"{self.module}::{self.name}"


@dataclass(frozen=True)
class BlockingSite:
    """One primitive blocking operation inside a function body."""

    kind: str  # "fabric-send" | "retry" | "sleep" | "file-io"
    detail: str
    line: int


class ProjectIndex:
    """Symbol table over every parsed module of one lint run."""

    def __init__(self, contexts: Sequence[ModuleContext]):
        self.contexts = list(contexts)
        self.classes: Dict[str, ClassInfo] = {}
        #: class simple name -> ClassInfo (first definition wins; the
        #: repo keeps class names unique, fixtures shadow harmlessly)
        self.functions: Dict[str, FunctionInfo] = {}
        #: module-level function simple name -> qualnames defining it
        self._by_name: Dict[str, List[str]] = {}
        for ctx in self.contexts:
            self._index_module(ctx)
        for info in list(self.classes.values()):
            self._infer_attr_types(info)

    # -- construction --------------------------------------------------------
    def _index_module(self, ctx: ModuleContext) -> None:
        module = module_key(ctx.path)
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(ctx, module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module}::{node.name}", module=module,
                    path=ctx.path, cls=None, name=node.name, node=node,
                    ctx=ctx)
                self.functions.setdefault(info.qualname, info)
                self._by_name.setdefault(node.name, []).append(info.qualname)

    def _index_class(self, ctx: ModuleContext, module: str,
                     node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=module, path=ctx.path,
                         node=node, ctx=ctx)
        for decorator in node.decorator_list:
            label = _decorator_label(decorator)
            if not isinstance(decorator, ast.Call):
                continue
            if label == "conserves":
                literals = _str_args(decorator)
                if literals:
                    law = literals[0]
                    mode = "strict"
                    if len(literals) > 1:
                        mode = literals[1]
                    for kw in decorator.keywords:
                        if kw.arg == "mode" and \
                                isinstance(kw.value, ast.Constant):
                            mode = str(kw.value.value)
                    info.conserves.append(
                        {"law": law, "mode": mode,
                         "line": decorator.lineno})
            elif label == "fenced_by":
                literals = _str_args(decorator)
                if len(literals) >= 2:
                    info.fence_method = literals[0]
                    info.fenced_attrs = tuple(literals[1:])
            elif label == "guarded_by":
                literals = _str_args(decorator)
                if literals:
                    info.lock_attrs.add(literals[0])
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualname=f"{module}::{node.name}.{item.name}",
                    module=module, path=ctx.path, cls=node.name,
                    name=item.name, node=item, ctx=ctx)
                info.methods[item.name] = method
                self.functions[method.qualname] = method
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and _is_lock_ctor(sub.value):
                for target in sub.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        info.lock_attrs.add(target.attr)
        self.classes.setdefault(node.name, info)

    def _infer_attr_types(self, info: ClassInfo) -> None:
        """``self.attr = ClassName(...)`` in any method -> attr type."""
        for method in info.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                cls_name = _constructed_class(node.value, self.classes)
                if cls_name is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        info.attr_types.setdefault(target.attr, cls_name)

    # -- queries -------------------------------------------------------------
    def conserved_fields(self) -> Dict[str, List[Tuple[ClassInfo, Dict]]]:
        """field name -> [(class, law)] across every @conserves class."""
        out: Dict[str, List[Tuple[ClassInfo, Dict]]] = {}
        from .contracts import parse_conservation
        for info in self.classes.values():
            for law in info.conserves:
                try:
                    lhs, rhs = parse_conservation(law["law"])
                except ValueError:
                    continue
                law["lhs"], law["rhs"] = lhs, tuple(rhs)
                for fieldname in (lhs, *rhs):
                    out.setdefault(fieldname, []).append((info, law))
        return out

    def receiver_class(self, func: FunctionInfo,
                       expr: ast.expr) -> Optional[ClassInfo]:
        """The project class an expression statically resolves to."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.cls is not None:
                return self.classes.get(func.cls)
            local = _local_type(func.node, expr.id, self.classes)
            if local is not None:
                return self.classes.get(local)
            return None
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and \
                expr.value.id == "self" and func.cls is not None:
            owner = self.classes.get(func.cls)
            if owner is not None:
                attr_type = owner.attr_types.get(expr.attr)
                if attr_type is not None:
                    return self.classes.get(attr_type)
        return None


def _is_lock_ctor(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    return name in ("Lock", "RLock")


def _constructed_class(expr: ast.expr,
                       classes: Dict[str, ClassInfo]) -> Optional[str]:
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and \
            expr.func.id in classes:
        return expr.func.id
    return None


def _local_type(fn_node: ast.AST, name: str,
                classes: Dict[str, ClassInfo]) -> Optional[str]:
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            cls_name = _constructed_class(node.value, classes)
            if cls_name is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return cls_name
    return None


class CallGraph:
    """Resolved call edges plus per-function blocking primitives."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.edges: Dict[str, Set[str]] = {}
        #: qualname -> call line of each resolved edge (for chain reports)
        self.edge_lines: Dict[Tuple[str, str], int] = {}
        self.blocking: Dict[str, List[BlockingSite]] = {}
        self._reach_cache: Dict[str, Optional[List[str]]] = {}
        for func in index.functions.values():
            self._scan(func)

    # -- construction --------------------------------------------------------
    def _scan(self, func: FunctionInfo) -> None:
        qual = func.qualname
        self.edges.setdefault(qual, set())
        self.blocking.setdefault(qual, [])
        modules, symbols = _collect_imports(func.ctx.tree)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            primitive = self._primitive(node, modules, symbols)
            if primitive is not None:
                self.blocking[qual].append(primitive)
            for target in self._targets(func, node):
                self.edges[qual].add(target)
                self.edge_lines.setdefault((qual, target), node.lineno)

    def _primitive(self, node: ast.Call, modules: Dict[str, str],
                   symbols: Dict[str, Tuple[str, str]],
                   ) -> Optional[BlockingSite]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "call_with_retry":
                return BlockingSite("retry", "call_with_retry(...)",
                                    node.lineno)
            if symbols.get(func.id) == ("time", "sleep"):
                return BlockingSite("sleep", "time.sleep(...)", node.lineno)
            if func.id == "open":
                return BlockingSite("file-io", "open(...)", node.lineno)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "send":
            recv = func.value
            recv_name = recv.id if isinstance(recv, ast.Name) else (
                recv.attr if isinstance(recv, ast.Attribute) else None)
            if recv_name in _FABRIC_RECEIVERS:
                return BlockingSite("fabric-send",
                                    f"{recv_name}.send(...)", node.lineno)
            return None
        if func.attr == "call_with_retry":
            return BlockingSite("retry", "call_with_retry(...)", node.lineno)
        if func.attr == "sleep" and isinstance(func.value, ast.Name) and \
                modules.get(func.value.id) == "time":
            return BlockingSite("sleep", "time.sleep(...)", node.lineno)
        if func.attr in _FILE_IO_ATTRS:
            return BlockingSite("file-io", f".{func.attr}(...)", node.lineno)
        return None

    def _targets(self, func: FunctionInfo, node: ast.Call) -> List[str]:
        callee = node.func
        index = self.index
        if isinstance(callee, ast.Name):
            # ClassName(...) -> __init__; project-unique function by name
            cls = index.classes.get(callee.id)
            if cls is not None and "__init__" in cls.methods:
                return [cls.methods["__init__"].qualname]
            candidates = index._by_name.get(callee.id, ())
            if len(candidates) == 1:
                return [candidates[0]]
            return []
        if not isinstance(callee, ast.Attribute):
            return []
        recv_cls = index.receiver_class(func, callee.value)
        if recv_cls is not None:
            method = recv_cls.methods.get(callee.attr)
            if method is not None:
                return [method.qualname]
        return []

    # -- queries -------------------------------------------------------------
    def blocking_chain(self, qual: str) -> Optional[List[str]]:
        """The shortest explanation of why ``qual`` blocks, or None.

        Returns ``["a", "b", "fabric-send ..."]`` meaning a calls b which
        performs the primitive; a directly-blocking function returns a
        one-element chain ending in its primitive description.
        """
        if qual in self._reach_cache:
            return self._reach_cache[qual]
        seen = {qual}
        queue: List[Tuple[str, List[str]]] = [(qual, [qual])]
        result: Optional[List[str]] = None
        while queue:
            current, path = queue.pop(0)
            sites = self.blocking.get(current, ())
            if sites:
                site = sites[0]
                result = path + [f"{site.kind} at line {site.line}: "
                                 f"{site.detail}"]
                break
            for succ in sorted(self.edges.get(current, ())):
                if succ not in seen:
                    seen.add(succ)
                    queue.append((succ, path + [succ]))
        self._reach_cache[qual] = result
        return result

    def resolve_call(self, func: FunctionInfo,
                     node: ast.Call) -> List[str]:
        """Public wrapper used by the rules for one specific call node."""
        return self._targets(func, node)
