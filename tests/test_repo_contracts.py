"""Contracts on the source tree and the CI workflow, read from the files.

- ``src/repro`` takes no lock and never sleeps (faults and retries spend
  logical time), and ``core/npe.py``, the NPE probe's pipeline, is the
  one module that constructs a thread;
- ``sim/engine.py`` is the one event kernel: no other module imports
  ``heapq``;
- every model input derives from an upload's 8-bit codes: the front door
  (``imageformat.quantise``) rounds once and ``imageformat.CODE_TABLE``
  holds ``preprocess`` of each code, so building that table is the one
  call of ``preprocess`` in ``src/repro``; the serving layer ships
  cache misses as codes and never expands them itself: no
  ``model_input`` under ``src/repro/serving/`` (replicas do, in
  ``core/dataplane.py``);
- ``models/split.py`` is the one place a frozen front is batched: no
  other module slices a batch to feed ``forward_until`` (the model runs
  its front ``FRONT_ROWS`` rows at a time itself);
- ``repro report``'s topics read public outputs: ``report.py`` assigns
  no attribute, and nothing in ``src/repro`` imports the end-to-end
  benchmark;
- every definition in ``src/repro`` is reached from an entry point (the
  ``repro`` CLI, ``repro.__all__``, ``benchmarks/``, ``examples/``) or
  says in :data:`JUSTIFIED` why it stays; a name census, not a call
  graph: a ``def`` or ``class`` is reached when its name is read (a
  ``Name``, an ``Attribute`` or an identifier string) anywhere in
  ``src/repro`` outside its own body, when a decorator call of the
  package registers it (``report.py``'s ``@_topic``), or when it is in
  ``repro.__all__`` or named in ``benchmarks/`` or ``examples/``.  A
  ``self.x`` or ``cls.x`` read reaches only a definition of ``x`` in the
  reading class, its bases or its subclasses (bases matched by name), so
  a method is not kept alive by an unrelated class's method of the same
  name.  An import alias or a subpackage's ``__all__`` reaches nothing,
  and neither does ``tests/``;
- every name in a ``repro`` package's ``__all__`` resolves, and every
  repository path the top-level docs name exists;
- ``.github/workflows/ci.yml`` runs commands, not code: no ``run:``
  holds a heredoc or ``python -c``, so each check CI makes is a test or
  a ``repro`` command that a local run executes too; and it runs each
  command once: no ``run:`` but a ``pip install`` appears in two jobs.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
LOCKS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


@pytest.fixture(scope="module")
def source():
    """Over ``src/repro``: each call as ``(function name, where:line)``
    (the function spelled by module attribute or by imported name), each
    import as ``(top-level module, where)``, each assignment to an
    attribute as ``where:line``, and as ``where:line`` each call whose
    first argument slices an array (``x[a:b]`` anywhere inside it)."""
    calls, imports, stores, sliced = [], set(), [], set()
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = (getattr(node.func, "attr", None)
                        or getattr(node.func, "id", None))
                calls.append((name, f"{where}:{node.lineno}"))
                if node.args and any(
                        isinstance(part, ast.Slice)
                        for part in ast.walk(node.args[0])):
                    sliced.add(f"{where}:{node.lineno}")
            elif isinstance(node, ast.Import):
                imports.update((alias.name.split(".")[0], where)
                               for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and not node.level:
                imports.add((node.module.split(".")[0], where))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                stores.append(f"{where}:{node.lineno}")
    return {"calls": calls, "imports": imports, "stores": stores,
            "sliced": sliced}


def sites(source, names):
    return [site for name, site in source["calls"] if name in names]


def test_only_the_npe_pipeline_constructs_threads(source):
    assert {site.split(":")[0] for site in sites(source, {"Thread"})} == {
        "core/npe.py"}


def test_nothing_takes_a_lock_or_sleeps(source):
    assert sites(source, LOCKS) == []
    assert sites(source, {"sleep"}) == []


def test_sim_engine_is_the_only_heapq_importer(source):
    assert sorted(where for module, where in source["imports"]
                  if module == "heapq") == ["sim/engine.py"]


def test_only_the_code_table_calls_preprocess(source):
    lines = (SRC / "storage" / "imageformat.py").read_text().splitlines()
    table = [f"storage/imageformat.py:{number}"
             for number, line in enumerate(lines, start=1)
             if line.startswith("CODE_TABLE = preprocess(")]
    assert len(table) == 1
    assert sites(source, {"preprocess"}) == table


def test_the_serving_layer_never_expands_codes():
    assert [f"{path.relative_to(SRC)}:{number}"
            for path in sorted((SRC / "serving").rglob("*.py"))
            for number, line in enumerate(
                path.read_text().splitlines(), start=1)
            if "model_input" in line] == []


def test_only_the_split_model_slices_a_batch_for_the_front(source):
    assert [site for site in sites(source, {"forward_until"})
            if site in source["sliced"]
            and not site.startswith("models/split.py:")] == []


def test_report_topics_patch_nothing_and_src_never_imports_the_benchmark(
        source):
    assert [site for site in source["stores"]
            if site.startswith("report.py:")] == []
    assert [where for module, where in source["imports"]
            if module == "ndpipe_e2e"] == []


@pytest.fixture(scope="module")
def ci_runs():
    """Each ``run:`` of ``ci.yml`` as ``(job, command)``, whitespace
    normalised."""
    ci = yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml")
                        .read_text())
    return [(name, " ".join(step["run"].split()))
            for name, job in ci["jobs"].items()
            for step in job["steps"] if "run" in step]


def test_ci_runs_commands_not_inline_code(ci_runs):
    assert ci_runs
    assert [run for _, run in ci_runs
            if re.search(r"<<|\bpython3? +-c\b", run)] == []


def test_ci_runs_each_command_in_one_job(ci_runs):
    jobs = {}
    for name, run in ci_runs:
        if "pip install" not in run:
            jobs.setdefault(run, set()).add(name)
    assert {run: names for run, names in jobs.items() if len(names) > 1} \
        == {}


_ORACLE = "test oracle over private state"

#: definitions no entry point reaches, kept on purpose: qualname (module
#: path under ``repro``, then the name inside it) -> why
JUSTIFIED = {
    "durability.replication.ReplicaMap.underreplicated": _ORACLE,
    "faults.injector.FaultInjector.crashed_tuners": _ORACLE,
    "faults.injector.FaultInjector.detach":
        "undoes attach_fabric: the fault tests reuse one fabric",
    "faults.injector.FaultInjector.register_store":
        "aims a schedule at a PipeStore that no cluster roster holds",
    "faults.injector.FaultInjector.tuner_crashed": _ORACLE,
    "ha.controller.HAController.attach_dispatcher":
        "joins serving replicas to HA drains: item 4's composed run",
    "ha.detector.FailureDetector.is_suspect": _ORACLE,
    "ha.detector.FailureDetector.suspects": _ORACLE,
    "models.split.SplitModel.feature_dim_after": _ORACLE,
    "models.split.SplitModel.to_graph":
        "the measured stage graph item 8(a) profiles from",
    "nn.module.Module.freeze":
        "unfreeze's inverse: the frozen-array tests build with it",
    "placement.fleet.ShardedCluster.leave_shard":
        "join_shard's inverse: item 4's ShardLeave event drives it",
    "serving.admission.AdmissionQueue.shed_full_count": _ORACLE,
    "serving.dispatcher.ReplicaDispatcher.drained": _ORACLE,
    "storage.imageformat.decode_photo":
        "encode_photo's inverse: tests read stored raw/ blobs with it",
    "storage.photodb.PhotoDatabase.version_counts": _ORACLE,
}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _names_spelled(tree):
    """``(name, line, reader)`` for each name the module spells as a
    ``Name``, an ``Attribute`` or an identifier string, outside
    ``__all__``; ``reader`` is the enclosing class of a ``self.x`` or
    ``cls.x`` read, None for any other spelling."""
    listed = {id(node) for statement in tree.body if _is_all(statement)
              for node in ast.walk(statement)}

    def visit(node, cls):
        if id(node) in listed:
            return
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            own = isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls")
            yield node.attr, node.lineno, cls if own else None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno, None
        if isinstance(node, ast.ClassDef):
            cls = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls)

    yield from visit(tree, None)


def _definitions(tree, prefix="", cls=None):
    """``(qualname, node, cls)`` for each ``def`` and ``class``, nested
    ones included; ``cls`` names the class it is defined in, if any."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name, child, cls
            yield from _definitions(
                child, f"{prefix}{child.name}.",
                child.name if isinstance(child, ast.ClassDef) else None)
        else:
            yield from _definitions(child, prefix, cls)


def _census(trees, named):
    """Qualnames of the definitions (dunders aside) in ``trees`` (module
    path -> parsed module) that nothing reaches by the rule above, given
    the ``named`` entry-point names."""
    defs = [(module, qualname, node, cls) for module, tree in trees.items()
            for qualname, node, cls in _definitions(tree)]
    ours = {node.name for _, _, node, _ in defs
            if isinstance(node, ast.FunctionDef)}
    bases = {}
    for _, _, node, _ in defs:
        if isinstance(node, ast.ClassDef):
            bases.setdefault(node.name, set()).update(
                getattr(base, "id", getattr(base, "attr", None))
                for base in node.bases)

    def ancestors(cls):
        seen, todo = set(), [cls]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    def family(cls):
        return {cls} | ancestors(cls) | {
            other for other in bases if cls in ancestors(other)}

    spelled = {}
    for module, tree in trees.items():
        for name, line, reader in _names_spelled(tree):
            spelled.setdefault(name, []).append((module, line, reader))
    found = set()
    for module, qualname, node, cls in defs:
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
            found.add(f"{module}.{qualname}")
    return found


@pytest.fixture(scope="module")
def unreached():
    """Qualnames of the ``src/repro`` definitions (dunders aside) that
    nothing reaches by the rule above."""
    trees = {".".join(path.relative_to(SRC).with_suffix("").parts):
             ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
    named = {name for statement in trees["__init__"].body
             if _is_all(statement)
             for name in ast.literal_eval(statement.value)}
    for folder in ("benchmarks", "examples"):
        for path in (ROOT / folder).rglob("*.py"):
            named.update(re.findall(r"\w+", path.read_text()))
    return _census(trees, named)


def test_every_definition_is_reached_from_an_entry_point(unreached):
    assert sorted(unreached - set(JUSTIFIED)) == []


def test_a_self_read_reaches_only_its_own_class_family():
    """``B``'s ``self.reset()`` reaches ``B.reset``, not the ``reset`` of
    the unrelated class ``A`` that happens to share its name."""
    trees = {"m": ast.parse(
        "class A:\n"
        "    def reset(self): pass\n"
        "class B:\n"
        "    def __init__(self): self.reset()\n"
        "    def reset(self): pass\n")}
    assert _census(trees, {"A", "B"}) == {"m.A.reset"}


def test_every_justification_names_an_unreached_definition(unreached):
    assert sorted(set(JUSTIFIED) - unreached) == []


def test_every_exported_name_resolves():
    import repro

    missing = [f"repro.{name}" for name in repro.__all__
               if not hasattr(repro, name)]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


#: a repository path as the docs write it: from the root, or relative to
#: ``src/repro``, ``src`` or ``benchmarks``
DOC_PATH = re.compile(
    r"(?<![\w/.-])((?:[\w-]+/)+[\w.-]+\.(?:py|md|json|txt|ya?ml|toml))\b")


def test_every_path_the_docs_name_exists():
    named = [(doc, match.group(1))
             for doc in ("DESIGN.md", "README.md", "EXPERIMENTS.md",
                         "ROADMAP.md")
             for match in DOC_PATH.finditer((ROOT / doc).read_text())]
    assert len(named) > 200
    assert [(doc, path) for doc, path in named
            if not any((base / path).exists() for base in (
                ROOT, SRC, ROOT / "src", ROOT / "benchmarks"))] == []
