"""The ``repro lint`` command: exit codes, report formats, the manifest."""

import json
from pathlib import Path

from repro.cli import main
from repro.lint import LintEngine, package_root

FIXTURES = Path(__file__).parent / "fixtures"


def test_shipped_tree_is_lint_clean(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_seeded_fixtures_fail_with_rule_ids_and_locations(capsys):
    assert main(["lint", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for rule in ("ND001", "ND002", "ND004", "ND005",
                 "ND006", "ND007", "ND009"):
        assert rule in out
    # the retired rules neither fire nor come back under their old IDs
    assert "ND003" not in out and "ND008" not in out
    # every finding line pins a file:line:col location
    assert f"{FIXTURES / 'bad_nd001.py'}:9:" in out
    assert f"{FIXTURES / 'bad_nd007.py'}:17:" in out


def test_json_report_is_written_even_on_failure(tmp_path, capsys):
    report_path = tmp_path / "lint-report.json"
    code = main(["lint", str(FIXTURES), "--format", "json",
                 "--out", str(report_path)])
    capsys.readouterr()
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["clean"] is False
    assert report["count"] == len(report["findings"]) > 0
    rules = {f["rule"] for f in report["findings"]}
    assert {"ND001", "ND002", "ND004", "ND005"} <= rules
    for finding in report["findings"]:
        assert finding["line"] >= 1 and finding["path"]


def test_clean_tree_json_report(capsys):
    assert main(["lint", str(package_root()), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"clean": True, "count": 0, "findings": []}


def test_manifest_is_current():
    """obs/METRICS.md matches what --update-manifest would regenerate."""
    engine = LintEngine()
    engine.run([package_root()])
    manifest = engine.config.manifest_path
    assert manifest.is_file()
    assert manifest.read_text() == engine.render_manifest()


def test_check_manifests_gate_passes_on_the_shipped_tree(capsys):
    assert main(["lint", "--check-manifests"]) == 0
    capsys.readouterr()


def test_shipped_baseline_is_empty_and_current(capsys):
    ledger = Path(__file__).parents[2] / "lint-baseline.json"
    assert ledger.is_file()
    assert json.loads(ledger.read_text())["findings"] == {}
    assert main(["lint", "--baseline", str(ledger)]) == 0
    capsys.readouterr()


def test_update_baseline_then_rerun_is_green(tmp_path, capsys):
    ledger = tmp_path / "baseline.json"
    assert main(["lint", str(FIXTURES), "--update-baseline",
                 "--baseline", str(ledger)]) == 0
    capsys.readouterr()
    recorded = json.loads(ledger.read_text())["findings"]
    assert recorded  # the seeded fixtures all fingerprinted
    # the same findings are now tolerated, not reported
    assert main(["lint", str(FIXTURES), "--baseline", str(ledger)]) == 0
    captured = capsys.readouterr()
    assert "tolerated" in captured.err
    assert "0 findings" in captured.out


def test_baseline_does_not_tolerate_new_findings(tmp_path, capsys):
    ledger = tmp_path / "baseline.json"
    clean = FIXTURES / "good_clean.py"
    assert main(["lint", str(clean), "--update-baseline",
                 "--baseline", str(ledger)]) == 0
    # a finding absent from the ledger still fails the gate
    assert main(["lint", str(FIXTURES / "bad_nd005.py"),
                 "--baseline", str(ledger)]) == 1
    out = capsys.readouterr().out
    assert "ND005" in out


def test_baseline_reports_resolved_entries(tmp_path, capsys):
    ledger = tmp_path / "baseline.json"
    assert main(["lint", str(FIXTURES / "bad_nd005.py"),
                 "--update-baseline", "--baseline", str(ledger)]) == 0
    capsys.readouterr()
    # the "fixed" tree no longer produces the baselined finding: the
    # run stays green but nudges the author to re-record the ledger
    assert main(["lint", str(FIXTURES / "good_clean.py"),
                 "--baseline", str(ledger)]) == 0
    assert "resolved" in capsys.readouterr().err
