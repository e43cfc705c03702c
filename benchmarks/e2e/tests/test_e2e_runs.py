"""The four workloads at smoke scale: what is printed, what must hold."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ndpipe_e2e.layers import LAYERS
from ndpipe_e2e.metrics import FLASH, FLEET_WRITE, LIFECYCLE, WORKLOADS

E2E = Path(__file__).resolve().parent.parent
REPO = E2E.parent.parent
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())


def _value(payload, name):
    return payload["per_layer"][name]["value"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_runner_prints_exactly_the_manifest_metrics(traced, runner, name):
    payload = traced[name]
    assert payload["failed"] == 0 and payload["attempted"] >= 1
    assert list(payload["contract"]) == [
        m["name"] for m in MANIFEST["end_to_end"]]
    assert all(row["value"] != 0 for row in payload["contract"].values())
    assert list(payload["per_layer"]) == [
        m["name"] for m in MANIFEST["per_layer"]]
    result = json.loads(runner.result_line(payload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["metrics"] == payload["per_layer"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_and_unattributed_add_up_to_the_traced_wall(traced, name):
    payload = traced[name]
    assert payload["missing_seams"] == []
    assert _value(payload, "bench.missing_seams") == 0
    wall = payload["traced_wall_s"]
    attributed = sum(_value(payload, f"{layer}.self_s") for layer in LAYERS)
    unattributed = _value(payload, "bench.unattributed_share") * wall
    assert attributed + unattributed == pytest.approx(wall, rel=1e-9)
    assert Path(REPO / payload["trace_file"]).is_file()


def test_each_workload_leans_on_different_layers(traced):
    flash = traced[FLASH]
    idle = ["storage.objectstore.calls", "core.fabric.bytes_ingest"] + [
        f"{layer}.calls" for layer in LAYERS if layer.startswith("placement.")]
    assert all(_value(flash, name) == 0 for name in idle)
    assert _value(flash, "serving.cache.hits") > _value(
        flash, "serving.cache.misses")
    relabel = traced[LIFECYCLE]["phases"]["relabel_sweep"]
    assert max(relabel, key=relabel.get) == "nn"
    assert _value(traced[LIFECYCLE], "nn.share") > 0.5
    fleet = traced[FLEET_WRITE]
    assert _value(fleet, "nn.share") < 0.5
    assert all(_value(fleet, f"{layer}.calls") > 0
               for layer in LAYERS if layer.startswith("placement."))
    assert _value(fleet, "placement.tenants.rejected") > 0


def test_cli_is_clean_under_deprecation_errors_and_follows_the_seed(traced):
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(E2E / "run.py"), "--workload", FLASH, "--scale", "smoke",
         "--seed", "3", "--trace", "0"],
        capture_output=True, text=True, cwd=REPO)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [
        m["name"] for m in MANIFEST["end_to_end"]]
    # equal seeds agree bit for bit (run_workload gates the traced pass
    # against the untraced one on every exact metric, so the ``traced``
    # fixture would not exist otherwise); another seed moves the inputs,
    # and the logical numbers with them
    assert (result["metrics"]["net_bytes_per_photo"]["value"]
            != traced[FLASH]["contract"]["net_bytes_per_photo"]["value"])


def test_without_the_program_source_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", FLASH,
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
