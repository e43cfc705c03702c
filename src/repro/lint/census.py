"""ND012 reachability: every definition in the package is reached from an
entry point.

A name census, not a call graph.  The entry points are the ``repro``
CLI (``cli.py``, itself in the package), ``repro.__all__``, and every
script under the checkout's ``benchmarks/`` and ``examples/``.  A
``def`` or ``class`` of the package (nested ones, methods and
properties too; dunders aside) is reached when its name is read — as a
``Name``, an ``Attribute`` or an identifier string — anywhere in the
package outside its own body, when a decorator call of the package
registers it (``report.py``'s ``@_topic``), when it is in
``repro.__all__``, or when a script in ``benchmarks/`` or ``examples/``
uses it: imports it, reads it as an attribute, passes it as a keyword
or spells it in an identifier string (a dotted one such as
``"InferenceServer.classify"`` counts as each part).  A script's own
bare variable of the same name reaches nothing.  A
``self.x`` or ``cls.x`` read reaches only a definition of ``x`` in the
reading class, its bases or its subclasses (bases matched by name), so
a method is not kept alive by an unrelated class's method of the same
name.  An import alias or a subpackage's ``__all__`` reaches nothing,
and neither does ``tests/``.

A definition kept on purpose carries
``# ndlint: allow[ND012] -- <why it stays>`` on the line above it (above
its decorators); the marker is an ND000 finding once the definition is
reached.  The rule runs only over a lint run that covers the whole
package: a subtree or a fixture has no entry points to be reached from.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import module_key
from .findings import Finding
from .rules import ModuleContext

__all__ = ["check_reachability", "entry_names", "unreached"]

_ENTRY_FOLDERS = ("benchmarks", "examples")


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _script_uses(tree: ast.Module) -> Iterator[str]:
    """Each name a script uses: an imported name, an attribute, a keyword
    and each part of a dotted identifier string.  A bare ``Name`` is the
    script's own variable, not a use of the package."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def entry_names(root: Path, init: ModuleContext) -> Set[str]:
    """Names ``repro.__all__`` lists (``init`` is the package's
    ``__init__``) plus what the scripts in the checkout's ``benchmarks/``
    and ``examples/`` beside ``src/`` use (``root`` is the package
    directory)."""
    named = {name for statement in init.tree.body if _is_all(statement)
             for name in ast.literal_eval(statement.value)}
    for folder in _ENTRY_FOLDERS:
        for path in (root.parents[1] / folder).rglob("*.py"):
            named.update(_script_uses(ast.parse(path.read_text())))
    return named


def _names_spelled(tree: ast.Module,
                   ) -> Iterator[Tuple[str, int, Optional[str]]]:
    """``(name, line, reader)`` for each name the module spells as a
    ``Name``, an ``Attribute`` or an identifier string, outside
    ``__all__``; ``reader`` is the enclosing class of a ``self.x`` or
    ``cls.x`` read, None for any other spelling."""
    todo: List[Tuple[ast.AST, Optional[str]]] = [
        (statement, None) for statement in tree.body
        if not _is_all(statement)]
    while todo:
        node, cls = todo.pop()
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            own = isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls")
            yield node.attr, node.lineno, cls if own else None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno, None
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        todo.extend((child, cls) for child in ast.iter_child_nodes(node))


def _definitions(node: ast.AST, prefix: str = "", cls: Optional[str] = None,
                 ) -> Iterator[Tuple[str, ast.AST, Optional[str]]]:
    """``(qualname, node, cls)`` for each ``def`` and ``class``, nested
    ones included; ``cls`` names the class it is defined in, if any."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name, child, cls
            yield from _definitions(
                child, f"{prefix}{child.name}.",
                child.name if isinstance(child, ast.ClassDef) else None)
        else:
            yield from _definitions(child, prefix, cls)


def unreached(modules: Dict[str, ModuleContext], named: Set[str],
              ) -> List[Tuple[str, ModuleContext, int]]:
    """``(qualname, module, first line)`` of each definition in
    ``modules`` (dotted module name -> context) that nothing reaches by
    the rule above, given the ``named`` entry-point names."""
    defs = [(module, ctx, qualname, node, cls)
            for module, ctx in modules.items()
            for qualname, node, cls in _definitions(ctx.tree)]
    ours = {node.name for *_, node, _ in defs
            if isinstance(node, ast.FunctionDef)}
    bases: Dict[str, Set[str]] = {}
    for *_, node, _ in defs:
        if isinstance(node, ast.ClassDef):
            bases.setdefault(node.name, set()).update(
                getattr(base, "id", getattr(base, "attr", None))
                for base in node.bases)

    def ancestors(cls: str) -> Set[str]:
        seen, todo = set(), [cls]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    def family(cls: str) -> Set[str]:
        return {cls} | ancestors(cls) | {
            other for other in bases if cls in ancestors(other)}

    spelled: Dict[str, List[Tuple[str, int, Optional[str]]]] = {}
    for module, ctx in modules.items():
        for name, line, reader in _names_spelled(ctx.tree):
            spelled.setdefault(name, []).append((module, line, reader))
    found = []
    for module, ctx, qualname, node, cls in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__") or name in named \
                or any(isinstance(d, ast.Call)
                       and getattr(d.func, "id", None) in ours
                       for d in node.decorator_list):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        readers = family(cls) if cls is not None else set()
        if not any((where != module or not first <= line <= node.end_lineno)
                   and (reader is None or reader in readers)
                   for where, line, reader in spelled.get(name, ())):
            found.append((f"{module}.{qualname}", ctx, first))
    return found


def check_reachability(contexts: Sequence[ModuleContext],
                       root: Path) -> List[Finding]:
    """ND012 findings for the package at ``root``, over the run's
    ``contexts`` (files outside the package are neither checked nor
    read)."""
    modules = {module_key(ctx.path): ctx for ctx in contexts
               if root in Path(ctx.path).resolve().parents}
    init = next((ctx for ctx in modules.values()
                 if Path(ctx.path).resolve() == root / "__init__.py"), None)
    if init is None:
        return []
    return [Finding(path=ctx.path, line=line, col=1, rule="ND012",
                    message=f"{qualname} is reached from no entry point "
                            "(the CLI, repro.__all__, benchmarks/, "
                            "examples/); delete it, or mark why it stays")
            for qualname, ctx, line in unreached(modules,
                                                 entry_names(root, init))]
