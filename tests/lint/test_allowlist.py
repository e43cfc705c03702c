"""Allow-marker edge cases: multi-rule, string literals, unused markers."""

from repro.lint.allowlist import parse_markers
from repro.lint.engine import LintConfig, LintEngine


def lint_source(tmp_path, source):
    target = tmp_path / "mod.py"
    target.write_text(source)
    engine = LintEngine(LintConfig(manifest_path=None))
    return engine.run([target])


def test_multi_rule_marker_suppresses_both_rules(tmp_path):
    # one line that trips ND001 (wall clock) and ND005 (raw send)
    findings = lint_source(
        tmp_path,
        "import time\n"
        "\n"
        "def ping(network):\n"
        "    network.send('a', 'b', time.time(), 'hint')"
        "  # ndlint: allow[ND001,ND005] -- demo payload, loss is fine\n",
    )
    assert findings == []


def test_multi_rule_marker_covers_the_next_line_when_comment_only(tmp_path):
    findings = lint_source(
        tmp_path,
        "import time\n"
        "\n"
        "def ping(network):\n"
        "    # ndlint: allow[ND001,ND005] -- demo payload, loss is fine\n"
        "    network.send('a', 'b', time.time(), 'hint')\n",
    )
    assert findings == []


def test_marker_on_method_of_decorated_class_suppresses_nd006(tmp_path):
    # interprocedural findings anchor on the def line even when the
    # class carries contract decorators; the marker lands there too
    findings = lint_source(
        tmp_path,
        '@conserves("offered == admitted + shed")\n'
        "class Ledger:\n"
        "    def __init__(self):\n"
        "        self.offered = self.admitted = self.shed = 0\n"
        "\n"
        "    # ndlint: allow[ND006,ND009] -- demo ledger, books settle"
        " offline\n"
        "    def offer(self, ok):\n"
        "        self.offered += 1\n",
    )
    assert [f.rule for f in findings if f.rule != "ND000"] == []


def test_marker_inside_multiline_string_suppresses_nothing(tmp_path):
    # the marker-shaped text is documentation inside a literal: the send
    # on the next line must still be reported
    findings = lint_source(
        tmp_path,
        "DOC = '''usage:\n"
        "# ndlint: allow[ND005] -- quoted example, not a real marker\n"
        "'''\n"
        "\n"
        "def ping(network):\n"
        "    network.send('a', 'b', 1, 'hint')\n",
    )
    assert [(f.rule, f.line) for f in findings] == [("ND005", 6)]


def test_parse_markers_skips_string_literals_directly():
    markers, problems = parse_markers(
        "mod.py",
        "DOC = '''\n"
        "# ndlint: allow[ND005] -- quoted\n"
        "'''\n"
        "x = 1  # ndlint: allow[ND002] -- a real one\n",
    )
    assert [(m.line, m.rules) for m in markers] == [(4, ("ND002",))]
    assert problems == []


def test_unused_marker_raises_nd000(tmp_path):
    # justified marker for a rule that never fires on the covered line:
    # the suppression has rotted and must be deleted
    findings = lint_source(
        tmp_path,
        "def quiet():\n"
        "    return 1  # ndlint: allow[ND005] -- nothing to suppress\n",
    )
    assert [(f.rule, f.line) for f in findings] == [("ND000", 2)]
    assert "never fired" in findings[0].message


def test_partially_used_multi_rule_marker_flags_the_dead_rule(tmp_path):
    # ND005 fires and is suppressed, but ND001 in the marker never does:
    # per-rule granularity, so a stale rule id cannot ride along forever
    findings = lint_source(
        tmp_path,
        "def ping(network):\n"
        "    network.send('a', 'b', 1, 'hint')"
        "  # ndlint: allow[ND001,ND005] -- loss is fine\n",
    )
    assert [(f.rule, f.line) for f in findings] == [("ND000", 2)]
    assert "ND001 never fired" in findings[0].message

