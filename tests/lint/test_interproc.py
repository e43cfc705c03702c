"""Interprocedural tier (ND006, ND007, ND009): fixtures + gate mutation
tests.

The mutation tests are the acceptance criterion for the whole tier:
copy a *real* production module, delete one fencing check or one counter
update, and prove the lint gate goes red — so the invariants cannot be
silently weakened by a future edit.
"""

import subprocess
import sys
from pathlib import Path

from repro.lint.engine import LintConfig, LintEngine

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


def lint_paths(*paths):
    engine = LintEngine(LintConfig(manifest_path=None))
    return engine.run([Path(p) for p in paths])


def lint_fixture(name):
    return lint_paths(FIXTURES / name)


# -- ND006 conservation -------------------------------------------------------
def test_nd006_conservation_exact_sites():
    findings = lint_fixture("bad_nd006.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("ND006", 11),  # offer(): shed branch never settles the ledger
        ("ND006", 18),  # reset_books(): rebind outside __init__
        ("ND006", 21),  # bulk_admit(): non-constant delta (offered)
        ("ND006", 22),  # bulk_admit(): non-constant delta (admitted)
    ]
    assert "unbalanced" in findings[0].message
    assert "rebound outside __init__" in findings[1].message
    assert "non-constant delta" in findings[2].message


def test_nd006_group_mode_accepts_branch_terminal_counters(tmp_path):
    """Group mode: each completing path settles the same (lhs, rhs) pair
    even though no single path touches every counter."""
    target = tmp_path / "report.py"
    target.write_text(
        '@conserves("offered == completed + expired", mode="group")\n'
        "class Report:\n"
        "    def __init__(self):\n"
        "        self.offered = 0\n"
        "        self.completed = 0\n"
        "        self.expired = 0\n"
        "\n"
        "    def resolve(self, ok):\n"
        "        if ok:\n"
        "            self.completed += 1\n"
        "        else:\n"
        "            self.expired += 1\n"
    )
    assert lint_paths(target) == []


# -- ND007 epoch fencing ------------------------------------------------------
def test_nd007_fence_dominance_exact_sites():
    findings = lint_fixture("bad_nd007.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("ND007", 17),  # install(): mutation precedes the fence
        ("ND007", 24),  # hot_swap(): no fence on any path
    ]
    assert "no dominating self._fence()" in findings[0].message


# -- ND009 exception-safe accounting -----------------------------------------
def test_nd009_try_body_accounting_exact_sites():
    findings = lint_fixture("bad_nd009.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("ND009", 16),  # conserved counter inside the try body
        ("ND009", 17),  # metric .inc() inside the try body
        ("ND009", 24),  # bound child
        ("ND009", 25),  # cached child map
        ("ND009", 26),  # child map keyed by a label-value tuple
        ("ND009", 27),  # child bound to a local name
        ("ND009", 28),  # gauge child .set()
    ]
    assert "conserved counter 'done'" in findings[0].message
    assert ".inc() metric update" in findings[1].message
    assert ".observe() metric update" in findings[5].message
    assert ".set() metric update" in findings[6].message


# -- gate mutation tests (the acceptance criterion) ---------------------------
def test_real_failover_module_is_fence_clean(tmp_path):
    source = (SRC / "ha" / "failover.py").read_text()
    copy = tmp_path / "failover.py"
    copy.write_text(source)
    assert [f for f in lint_paths(copy) if f.rule == "ND007"] == []


def test_deleting_the_promotion_fence_fails_the_gate(tmp_path):
    source = (SRC / "ha" / "failover.py").read_text()
    assert "self._check_promotable()\n" in source
    mutated = source.replace("        self._check_promotable()\n", "", 1)
    copy = tmp_path / "failover.py"
    copy.write_text(mutated)
    findings = [f for f in lint_paths(copy) if f.rule == "ND007"]
    assert findings, "deleting the fence check must trip ND007"
    assert any("no dominating self._check_promotable()" in f.message
               for f in findings)


def test_real_protocol_module_is_conservation_clean(tmp_path):
    source = (SRC / "serving" / "protocol.py").read_text()
    copy = tmp_path / "protocol.py"
    copy.write_text(source)
    assert [f for f in lint_paths(copy) if f.rule == "ND006"] == []


def test_deleting_a_credit_counter_update_fails_the_gate(tmp_path):
    source = (SRC / "serving" / "protocol.py").read_text()
    assert "self.in_flight += 1\n" in source
    mutated = source.replace("self.in_flight += 1", "pass", 1)
    copy = tmp_path / "protocol.py"
    copy.write_text(mutated)
    findings = [f for f in lint_paths(copy) if f.rule == "ND006"]
    assert findings, "deleting the in_flight update must trip ND006"
    assert "granted == in_flight + available" in findings[0].message


def test_deleting_a_stream_outcome_counter_fails_the_gate(tmp_path):
    """The group-mode ledger: dropping one terminal counter makes the
    completing paths disagree on the settled delta pair."""
    protocol = (SRC / "serving" / "protocol.py").read_text()
    stream = (SRC / "serving" / "stream.py").read_text()
    assert "self.report.expired += 1\n" in stream
    mutated = stream.replace("self.report.expired += 1", "pass", 1)
    (tmp_path / "protocol.py").write_text(protocol)
    (tmp_path / "stream.py").write_text(mutated)
    findings = [f for f in lint_paths(tmp_path / "protocol.py",
                                      tmp_path / "stream.py")
                if f.rule == "ND006"]
    assert findings, "deleting a terminal counter must trip ND006"
    assert any("inconsistent deltas" in f.message for f in findings)


def test_runtime_modules_load_only_the_decorators():
    """A cluster process imports the contract decorators, not the
    checker that reads them."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.core.pipestore; "
         "print(' '.join(m for m in sys.modules if m.startswith('repro.lint')))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC.parent)}).stdout.split()
    assert sorted(loaded) == ["repro.lint", "repro.lint.contracts"]
