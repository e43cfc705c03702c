"""BENCHMARK.json, the metric tables and the runner agree on every name."""

import json
import re
from pathlib import Path

from ndpipe_e2e.agree import verdict
from ndpipe_e2e.layers import per_layer_specs
from ndpipe_e2e.metrics import CONTRACT_METRICS, DETAIL_METRICS, WORKLOADS

E2E = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((E2E.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_lists_exactly_the_runner_tables(runner):
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["run_seconds"] == runner.RUN_SECONDS
    assert MANIFEST["workloads"] == [
        {"name": name, "why": why} for name, why in WORKLOADS.items()]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in CONTRACT_METRICS]
    assert MANIFEST["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in per_layer_specs()]


def test_names_units_and_bounds_fit_the_contract():
    names = ([w["name"] for w in MANIFEST["workloads"]]
             + [m["name"] for m in MANIFEST["end_to_end"]]
             + [m["name"] for m in MANIFEST["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + [m.name for m in DETAIL_METRICS])
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in MANIFEST["end_to_end"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert len(MANIFEST["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])


def test_every_contract_metric_has_a_source_on_every_workload():
    detail = {m.name: m for m in DETAIL_METRICS}
    for metric in CONTRACT_METRICS:
        assert set(metric.source) == set(WORKLOADS)
        for workload, source in metric.source.items():
            assert workload in detail[source].workloads


def test_pytest_would_not_collect_a_benchmark_module():
    assert not list(E2E.rglob("bench_*.py"))


def test_agree_verdicts():
    assert verdict("net_bytes_per_photo", [5.0, 5.0], [5.0]) == "ok"
    assert verdict("net_bytes_per_photo", [5.0], [5.5]).startswith("not exact")
    assert verdict("serve_host_rps", [100.0, 104.0], [95.0, 97.0]) == "ok"
    assert "differ" in verdict("serve_host_rps", [100.0], [70.0])
    assert verdict("accuracy_after_finetune", [0.50], [0.505]) == "ok"
    assert "differ" in verdict("accuracy_after_finetune", [0.50], [0.52])


def test_calibrated_seconds_cancel_a_machine_wide_slowdown(monkeypatch):
    from ndpipe_e2e import calibrate

    ticks = iter(range(1000))
    monkeypatch.setattr(calibrate, "_clock", lambda: float(next(ticks)))
    cal = calibrate.Calibrator()
    # the kernel reads twice its reference time: the machine is at half speed
    monkeypatch.setattr(cal, "_kernel", lambda: 2 * cal.REFERENCE_S)
    with cal.section() as timing:
        pass
    assert timing.raw_s > 0
    assert timing.seconds == timing.raw_s / 2
    assert cal.speed == 0.5 and cal.total_s == timing.seconds
