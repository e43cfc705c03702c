"""Fixture tests: every rule fires with its exact ID and line numbers."""

from pathlib import Path

from repro.lint.census import entry_names, unreached
from repro.lint.engine import LintConfig, LintEngine, package_root
from repro.lint.rules import ModuleContext

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name):
    engine = LintEngine(LintConfig(manifest_path=None))
    return engine.run([FIXTURES / name])


def test_nd001_determinism_exact_sites():
    findings = lint_fixture("bad_nd001.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("ND001", 9),   # time.time()
        ("ND001", 13),  # random.random()
        ("ND001", 17),  # os.urandom()
        ("ND001", 21),  # time.sleep()
        ("ND001", 25),  # any call named sleep
    ]


def test_nd002_accounting_exact_sites():
    findings = lint_fixture("bad_nd002.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("ND002", 5),  # .peek()
        ("ND002", 9),  # .iter_items()
    ]


def test_nd004_metric_hygiene_exact_sites():
    findings = lint_fixture("bad_nd004.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("ND004", 5),  # CamelCase family name
        ("ND004", 7),  # duplicate registration site
        ("ND004", 8),  # non-literal family name
    ]
    assert "already registered" in findings[1].message


def test_nd005_retry_discipline_exact_site():
    findings = lint_fixture("bad_nd005.py")
    assert [(f.rule, f.line) for f in findings] == [("ND005", 5)]


def test_nd011_confined_constructs_exact_sites():
    findings = lint_fixture("bad_nd011.py")
    assert [(f.rule, f.line, f.col) for f in findings] == [
        ("ND011", 3, 1),    # heapq outside sim/engine.py
        ("ND011", 5, 1),    # the end-to-end benchmark imported
        ("ND011", 9, 5),    # a Thread outside core/npe.py
        ("ND011", 10, 13),  # a lock
        ("ND011", 11, 16),  # a sliced batch fed to forward_until
        ("ND011", 12, 29),  # preprocess outside CODE_TABLE's line
    ]
    assert findings[2].message.startswith("thread constructed:")


def test_nd011_scoped_rows_fire_only_in_their_scope(tmp_path):
    findings = lint_fixture("nd011")
    assert [(f.rule, Path(f.path).name, f.line, f.col) for f in findings] == [
        ("ND011", "report.py", 5, 5),   # a report topic assigns an attribute
        ("ND011", "codes.py", 3, 39),   # model_input imported in serving/
        ("ND011", "codes.py", 8, 13),   # ... read as an attribute
        ("ND011", "codes.py", 9, 19),   # ... called by name
        ("ND011", "codes.py", 9, 60),   # ... spelled as a string
    ]
    # the same module outside repro/serving/ is fine
    elsewhere = tmp_path / "codes.py"
    elsewhere.write_text(
        (FIXTURES / "nd011" / "repro" / "serving" / "codes.py").read_text())
    assert LintEngine(LintConfig(manifest_path=None)).run([elsewhere]) == []


def test_a_self_read_reaches_only_its_own_class_family():
    """``B``'s ``self.reset()`` reaches ``B.reset``, not the ``reset`` of
    the unrelated class ``A`` that happens to share its name."""
    module = ModuleContext.parse(
        "m.py",
        "class A:\n"
        "    def reset(self): pass\n"
        "class B:\n"
        "    def __init__(self): self.reset()\n"
        "    def reset(self): pass\n")
    assert [(qualname, line) for qualname, _, line
            in unreached({"m": module}, {"A", "B"})] == [("m.A.reset", 2)]


def test_the_census_reads_what_scripts_use(tmp_path):
    """A script reaches a package name by importing it, reading it as an
    attribute, passing it as a keyword or spelling it in an identifier
    string (each part of a dotted one); a local variable that happens to
    share the name reaches nothing."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('__all__ = ["main"]\n')
    (package / "m.py").write_text(
        "class Fleet:\n"
        "    def tuners(self): pass\n"
        "    def pick(self): pass\n"
        "    def classify(self): pass\n"
        "def run(): pass\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "x.py").write_text(
        "from repro.m import run\n"
        "tuners = [1, 2]\n"
        "fleet.pick()\n"
        "SEAMS = ['Fleet.classify']\n"
        "f(fanout=2)\n")
    init = ModuleContext.parse(str(package / "__init__.py"),
                               (package / "__init__.py").read_text())
    named = entry_names(package, init)
    assert {"main", "pick", "Fleet", "classify", "run", "fanout"} <= named
    assert "tuners" not in named


def test_census_runs_only_over_the_whole_package():
    """A single package file keeps its ND012 marker quiet: neither an
    unreached definition nor an unused marker."""
    imageformat = package_root() / "storage" / "imageformat.py"
    assert "allow[ND012]" in imageformat.read_text()
    assert LintEngine().run([imageformat]) == []


def test_clean_fixture_has_no_findings():
    assert lint_fixture("good_clean.py") == []


def test_inline_allow_suppresses_with_justification(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "def ping(network):\n"
        "    # ndlint: fire-and-forget -- best-effort hint, loss is fine\n"
        "    network.send('a', 'b', 1, 'hint')\n"
    )
    engine = LintEngine(LintConfig(manifest_path=None))
    assert engine.run([target]) == []


def test_bare_allow_marker_is_nd000_and_suppresses_nothing(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "def ping(network):\n"
        "    network.send('a', 'b', 1, 'hint')  # ndlint: allow[ND005]\n"
    )
    engine = LintEngine(LintConfig(manifest_path=None))
    findings = engine.run([target])
    assert sorted(f.rule for f in findings) == ["ND000", "ND005"]
    nd000 = next(f for f in findings if f.rule == "ND000")
    assert "justification" in nd000.message


def test_syntax_error_is_nd000(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    engine = LintEngine(LintConfig(manifest_path=None))
    findings = engine.run([target])
    assert [f.rule for f in findings] == ["ND000"]
