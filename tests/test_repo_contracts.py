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
- every name in a ``repro`` package's ``__all__`` resolves, every
  repository path the top-level docs name exists, and every ``DESIGN
  §n``, ``ROADMAP item n``, ``path.py:line`` and ``path.py::Name``
  reference resolves;
- every DESIGN section names a test that checks it, and DESIGN §3's
  module map names every package and top-level module of ``repro``.
"""

import ast
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


#: cross-references the tree writes: a DESIGN section, a ROADMAP item and
#: a line of a python file
DESIGN_REF = re.compile(r"DESIGN(?:\.md)?`?\s+§(\d+)")
ROADMAP_REF = re.compile(r"ROADMAP(?:\.md)?`?\s+items?\s+(\d+)")
LINE_REF = re.compile(r"(?<![\w/.-])((?:[\w-]+/)+[\w.-]+\.py):(\d+)\b")
#: "item 7", "items 33 and 37", "items 2, 11 and 31": every number named
ITEM_LIST = re.compile(r"\bitems?\s+\d+(?:\([a-z]\))?"
                       r"(?:(?:,\s*|\s+and\s+|/)\d+(?:\([a-z]\))?)*")


def _referring_files():
    """The root docs, the skills, the package, the tests and the
    benchmark scripts outside the frozen end-to-end benchmark."""
    yield from sorted(ROOT.glob("*.md"))
    yield from sorted((ROOT / ".claude" / "skills").rglob("*.md"))
    for tree in (ROOT / "src", ROOT / "tests"):
        yield from sorted(tree.rglob("*.py"))
    yield from sorted((ROOT / "benchmarks").glob("*.py"))


def test_every_cross_reference_resolves():
    """Each ``DESIGN §n`` names a ``## n.`` heading; each ``ROADMAP item
    n`` names an open item, or a landed one that ROADMAP's Recent section
    or CHANGES.md names; each ``path.py:line`` names a file at least that
    long."""
    texts = [(path.relative_to(ROOT).as_posix(), path.read_text())
             for path in _referring_files()]
    sections = set(re.findall(r"^## (\d+)\.",
                              (ROOT / "DESIGN.md").read_text(), re.M))
    roadmap = (ROOT / "ROADMAP.md").read_text()
    items, recent = roadmap.split("\n## Open items", 1)[1].split(
        "\n## Recent", 1)
    known = set(re.findall(r"^(\d+)\. \*\*", items, re.M)) | {
        number for text in (recent, (ROOT / "CHANGES.md").read_text())
        for match in ITEM_LIST.finditer(text)
        for number in re.findall(r"\d+", match.group(0))}

    def lines(path):
        for base in (ROOT, SRC, ROOT / "src", ROOT / "benchmarks"):
            if (base / path).is_file():
                return len((base / path).read_text().splitlines())
        return 0

    refs = {pattern: [(doc, match.groups()) for doc, text in texts
                      for match in pattern.finditer(text)]
            for pattern in (DESIGN_REF, ROADMAP_REF, LINE_REF)}
    assert all(refs.values())
    assert [(doc, n) for doc, (n,) in refs[DESIGN_REF]
            if n not in sections] == []
    assert [(doc, n) for doc, (n,) in refs[ROADMAP_REF]
            if n not in known] == []
    assert [(doc, path, line) for doc, (path, line) in refs[LINE_REF]
            if lines(path) < int(line)] == []


#: a definition the docs name: ``path.py::Name`` or ``path.py::Class::name``
DEF_REF = re.compile(
    r"(?<![\w/.-])((?:[\w-]+/)+[\w.-]+\.py)::(\w+)(?:::(\w+))?")


def _defined_names(body):
    """Names a module or class body binds: its ``def``s, ``class``es and
    assigned names."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update((t.id, node) for t in targets
                         if isinstance(t, ast.Name))
    return names


def unresolved_definitions(texts):
    """``(doc, reference)`` for each ``path.py::Name[::Name]`` in
    ``texts`` (``(doc, text)`` pairs) that names no file, no top-level
    definition of that file, or no definition in that class's body."""
    missing = []
    for doc, text in texts:
        for match in DEF_REF.finditer(text):
            path, name, member = match.groups()
            source = next((base / path for base in (
                ROOT, SRC, ROOT / "src", ROOT / "benchmarks")
                if (base / path).is_file()), None)
            found = source and _defined_names(
                ast.parse(source.read_text()).body).get(name)
            if found and member:
                found = isinstance(found, ast.ClassDef) and \
                    _defined_names(found.body).get(member)
            if not found:
                missing.append((doc, match.group(0)))
    return missing


def _definition_texts():
    docs = [ROOT / name for name in ("DESIGN.md", "README.md",
                                     "ROADMAP.md", "EXPERIMENTS.md")]
    docs += sorted((ROOT / ".claude" / "skills").rglob("*.md"))
    return [(path.relative_to(ROOT).as_posix(), path.read_text())
            for path in docs]


def test_every_named_definition_resolves():
    texts = _definition_texts()
    assert sum(len(DEF_REF.findall(text)) for _, text in texts) >= 17
    assert unresolved_definitions(texts) == []
    broken = [("x.md", "`tests/test_repo_contracts.py::no_such_test`, "
               "`tests/test_repo_contracts.py::DEF_REF::pattern`, "
               "`tests/no_such_file.py::test_x`")]
    assert [ref for _, ref in unresolved_definitions(broken)] == [
        "tests/test_repo_contracts.py::no_such_test",
        "tests/test_repo_contracts.py::DEF_REF::pattern",
        "tests/no_such_file.py::test_x"]


def design_sections(text):
    """``{n: body}`` for each ``## n.`` section of a DESIGN text."""
    parts = re.split(r"^## (\d+)\.", text, flags=re.M)[1:]
    return dict(zip(parts[::2], parts[1::2]))


def sections_without_a_test(text):
    """The DESIGN sections that name no ``tests/...py::name`` node."""
    return [n for n, body in design_sections(text).items()
            if not re.search(r"\btests/(?:[\w-]+/)*test_\w+\.py::\w", body)]


def test_every_design_section_names_a_test():
    text = (ROOT / "DESIGN.md").read_text()
    assert len(design_sections(text)) == 16
    assert sections_without_a_test(text) == []
    assert sections_without_a_test(
        "## 1. A\n`tests/test_cli.py::TestParser`\n"
        "## 2. B\n`tests/test_cli.py` alone\n") == ["2"]


#: a DESIGN subsection quoted by name, as in the next test's texts
DESIGN_QUOTE = re.compile(r'DESIGN(?:\.md)?`?\s+§(\d+),?\s+"([^"]+)"')


def misquoted_sections(texts, design):
    """``(doc, n, name)`` for each subsection name ``texts`` quote from
    DESIGN §n that the section does not contain, case and line breaks
    aside."""
    sections = design_sections(design)

    def folded(text):
        return " ".join(text.split()).casefold()

    return [(doc, n, name) for doc, text in texts
            for n, name in (m.groups() for m in DESIGN_QUOTE.finditer(text))
            if folded(name) not in folded(sections.get(n, ""))]


def test_every_quoted_design_name_is_in_its_section():
    texts = [(path.relative_to(ROOT).as_posix(), path.read_text())
             for path in _referring_files()]
    design = (ROOT / "DESIGN.md").read_text()
    assert sum(len(DESIGN_QUOTE.findall(text)) for _, text in texts) >= 20
    assert misquoted_sections(texts, design) == []
    # spelt apart so that this file quotes nothing itself
    broken = [("x.md", "DESIGN" ' §11, "Logical batch vs host\nbatch", '
               "DESIGN" ' §12 "Logical batch vs host batch" and '
               "DESIGN" ' §99 "Anything"')]
    assert misquoted_sections(broken, design) == [
        ("x.md", "12", "Logical batch vs host batch"),
        ("x.md", "99", "Anything")]


def modules_missing_from_the_map(text):
    """Each package (``name/``) and top-level module (``name.py``) of
    ``repro`` that no line of DESIGN §3 starts with."""
    named = set(re.findall(r"^\s*([\w.]+/?)\s", design_sections(text)["3"],
                           re.M))
    modules = [f"{path.name}/" for path in sorted(SRC.iterdir())
               if (path / "__init__.py").is_file()]
    modules += [path.name for path in sorted(SRC.glob("*.py"))
                if path.name != "__init__.py"]
    return [name for name in modules if name not in named]


def test_the_module_map_names_every_module():
    text = (ROOT / "DESIGN.md").read_text()
    assert modules_missing_from_the_map(text) == []
    map_lines = design_sections(text)["3"].splitlines()
    without_obs = "\n".join(line for line in map_lines
                            if not line.lstrip().startswith("obs/"))
    assert modules_missing_from_the_map(
        "## 3. Map\n" + without_obs + "\n") == ["obs/"]
