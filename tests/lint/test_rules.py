"""Fixture tests: every rule fires with its exact ID and line numbers."""

from pathlib import Path

from repro.lint import LintConfig, LintEngine

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
