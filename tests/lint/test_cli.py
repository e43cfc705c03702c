"""The ``repro lint`` command: exit codes, report formats, the manifest."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_shipped_tree_is_lint_clean(shipped_lint):
    code, report, _ = shipped_lint
    assert code == 0
    assert report["clean"] is True


def test_clean_tree_json_report(shipped_lint):
    _, report, _ = shipped_lint
    assert report == {"clean": True, "count": 0, "findings": []}


def test_check_manifests_gate_passes_on_the_shipped_tree(shipped_lint):
    """The shared pass runs with --check-manifests, and exits 0."""
    code, _, _ = shipped_lint
    assert code == 0


def test_manifest_is_current(shipped_lint):
    """obs/METRICS.md matches what --update-manifest would regenerate."""
    _, _, err = shipped_lint
    assert "manifest drift" not in err


def test_seeded_fixtures_fail_with_rule_ids_and_locations(capsys):
    assert main(["lint", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for rule in ("ND001", "ND002", "ND004", "ND005",
                 "ND006", "ND007", "ND009", "ND011"):
        assert rule in out
    # the retired rules neither fire nor come back under their old IDs,
    # and the census needs the whole package
    assert "ND003" not in out and "ND008" not in out
    assert "ND012" not in out
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
