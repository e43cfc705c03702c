"""Contracts on the source tree, the CI workflow and the docs.

The source contracts are ``repro lint`` rules, so each test here reads
the one shared lint pass over the package (``shipped_lint``) and pins
the rule row that holds its contract (their fixtures fire at exact
sites in ``tests/lint/``):

- ``src/repro`` takes no lock and never sleeps (faults and retries spend
  logical time), and ``core/npe.py``, the NPE probe's pipeline, is the
  one module that constructs a thread;
- ``sim/engine.py`` is the one event kernel: no other module imports
  ``heapq``;
- building ``imageformat.CODE_TABLE`` is the one call of ``preprocess``,
  and the serving layer never names ``model_input``;
- no module slices a batch to feed ``forward_until`` (``models/split.py``
  batches a frozen front itself);
- ``report.py`` assigns no attribute, and nothing imports the end-to-end
  benchmark;
- every definition is reached from an entry point (ND012), and every
  ``allow[ND012]`` marker keeps a definition nothing reaches;
- ``.github/workflows/ci.yml`` runs commands, not code: no ``run:``
  holds a heredoc or ``python -c``, so each check CI makes is a test or
  a ``repro`` command that a local run executes too; and it runs each
  command once: no ``run:`` but a ``pip install`` appears in two jobs;
- every name in a ``repro`` package's ``__all__`` resolves, and every
  repository path the top-level docs name exists.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

from repro.lint.rules import CONFINED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def confinement(what):
    """``(sanctioned sites, scope)`` of the ND011 row for ``what``."""
    row = next(row for row in CONFINED if row.what == what)
    return row.sanctioned, row.scope


def findings(shipped_lint, rule, *whats):
    """``path:line`` of each shipped-tree finding of ``rule`` (of ND011,
    only those of the rows ``whats``: a construct off its sanctioned
    sites, or a sanction that no longer holds one)."""
    return [f"{f['path']}:{f['line']}" for f in shipped_lint[1]["findings"]
            if f["rule"] == rule and f["message"].startswith(whats)]


def test_only_the_npe_pipeline_constructs_threads(shipped_lint):
    assert confinement("thread constructed") == (("core/npe.py",), "")
    assert findings(shipped_lint, "ND011", "thread constructed") == []


def test_nothing_takes_a_lock_or_sleeps(shipped_lint):
    assert confinement("lock taken") == ((), "")
    assert findings(shipped_lint, "ND011", "lock taken") == []
    # a call named sleep is ND001 everywhere, obs/tracing.py included
    assert findings(shipped_lint, "ND001", "") == []


def test_sim_engine_is_the_only_heapq_importer(shipped_lint):
    assert confinement("heapq imported") == (("sim/engine.py",), "")
    assert findings(shipped_lint, "ND011", "heapq imported") == []


def test_only_the_code_table_calls_preprocess(shipped_lint):
    lines = (SRC / "storage" / "imageformat.py").read_text().splitlines()
    assert len([line for line in lines
                if line.startswith("CODE_TABLE = preprocess(")]) == 1
    assert confinement("preprocess called") == (
        ("storage/imageformat.py::CODE_TABLE",), "")
    assert findings(shipped_lint, "ND011", "preprocess called") == []


def test_the_serving_layer_never_expands_codes(shipped_lint):
    what = "model_input named in the serving layer"
    assert confinement(what) == ((), "repro/serving/")
    assert findings(shipped_lint, "ND011", what) == []


def test_only_the_split_model_slices_a_batch_for_the_front(shipped_lint):
    what = "batch sliced for forward_until"
    assert confinement(what) == ((), "")
    assert findings(shipped_lint, "ND011", what) == []


def test_report_topics_patch_nothing_and_src_never_imports_the_benchmark(
        shipped_lint):
    topics = "attribute assigned in a report topic"
    benchmark = "end-to-end benchmark imported"
    assert confinement(topics) == ((), "repro/report.py")
    assert confinement(benchmark) == ((), "")
    assert findings(shipped_lint, "ND011", topics, benchmark) == []


def test_every_definition_is_reached_from_an_entry_point(shipped_lint):
    assert findings(shipped_lint, "ND012", "") == []


def test_every_justification_names_an_unreached_definition(shipped_lint):
    """Each ``allow[ND012]`` marker suppressed a census finding on the
    whole-package pass; one that suppressed nothing is ND000."""
    markers = [line for path in SRC.rglob("*.py")
               for line in path.read_text().splitlines()
               if line.strip().startswith("# ndlint: allow[ND012] -- ")]
    assert markers
    assert findings(shipped_lint, "ND000", "") == []


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
