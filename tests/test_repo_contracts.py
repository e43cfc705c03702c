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
- ``.github/workflows/ci.yml`` runs commands, not code: no ``run:``
  holds a heredoc or ``python -c``, so each check CI makes is a test or
  a ``repro`` command that a local run executes too; and it runs each
  command once: no ``run:`` but a ``pip install`` appears in two jobs.
"""

import ast
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
