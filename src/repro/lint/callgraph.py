"""Project-wide symbol table for the interprocedural rules (ND006,
ND007, ND009).

The per-module rules (ND001, ND002, ND004, ND005) see one file at a
time; the interprocedural tier needs to answer project-wide questions —
*which class does ``self.report`` hold* — so this module builds, from
the already parsed :class:`~repro.lint.rules.ModuleContext` set, a
**symbol table** (:class:`ProjectIndex`): every function and class,
each class with its methods, its declared contracts (``@conserves`` /
``@fenced_by``), and an attribute-type map inferred from
``self.attr = ClassName(...)`` assignments.  Receivers are resolved
conservatively — ``self``, ``self.attr`` through the inferred attribute
types, local variables assigned a known constructor.  An unresolvable
receiver resolves to nothing: the rules built on top only ever *miss* a
diagnostic for it, never invent one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .rules import ModuleContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "module_key",
]


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
    #: @conserves declarations: {"law", "lhs", "rhs", "mode", "line"}
    conserves: List[Dict] = field(default_factory=list)
    #: @fenced_by declaration: fence method name -> tuple of fenced attrs
    fence_method: Optional[str] = None
    fenced_attrs: Tuple[str, ...] = ()

    @property
    def qualname(self) -> str:
        return f"{self.module}::{self.name}"


class ProjectIndex:
    """Symbol table over every parsed module of one lint run."""

    def __init__(self, contexts: Sequence[ModuleContext]):
        self.contexts = list(contexts)
        self.classes: Dict[str, ClassInfo] = {}
        #: class simple name -> ClassInfo (first definition wins; the
        #: repo keeps class names unique, fixtures shadow harmlessly)
        self.functions: Dict[str, FunctionInfo] = {}
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
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualname=f"{module}::{node.name}.{item.name}",
                    module=module, path=ctx.path, cls=node.name,
                    name=item.name, node=item, ctx=ctx)
                info.methods[item.name] = method
                self.functions[method.qualname] = method
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
