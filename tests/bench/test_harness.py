"""Tests for the perf-trajectory harness and its regression gate."""

import json

import numpy as np
import pytest

from repro.bench.gate import (
    GateError,
    compare_payloads,
    gate_directories,
    render_findings,
)
from repro.bench.harness import (
    SCALES,
    SCENARIOS,
    HarnessScale,
    bless_harness,
    machine_calibration_s,
    run_harness,
    serving_payload,
    serving_stream_payload,
    write_results,
)
from repro.obs.benchjson import BenchResult, bench_payload

MICRO = HarnessScale("smoke", stores=1, photos=12, image_size=16,
                     chunks=3, epochs=1, finetune_repeats=2,
                     relabel_repeats=2)


def _payload(values, config=None, bench="BENCH_x"):
    """values: list of (metric, value, direction) or (metric, value,
    direction, labels)."""
    results = [
        BenchResult(v[0], v[1], "u", dict(v[3]) if len(v) > 3 else {},
                    direction=v[2])
        for v in values
    ]
    return bench_payload(bench, results, config=config or {"scale": "smoke"})


class TestGateComparisons:
    def test_within_tolerance_passes(self):
        old = _payload([("ops", 100.0, "higher_is_better")])
        new = _payload([("ops", 90.0, "higher_is_better")])
        findings = compare_payloads(old, new, tolerance=0.15)
        assert [f.status for f in findings] == ["ok"]

    def test_higher_is_better_regression(self):
        old = _payload([("ops", 100.0, "higher_is_better")])
        new = _payload([("ops", 80.0, "higher_is_better")])
        (finding,) = compare_payloads(old, new, tolerance=0.15)
        assert finding.status == "regression"
        assert "20.0%" in finding.detail

    def test_lower_is_better_regression(self):
        old = _payload([("lat", 1.0, "lower_is_better")])
        assert compare_payloads(
            old, _payload([("lat", 1.14, "lower_is_better")]))[0].ok
        assert not compare_payloads(
            old, _payload([("lat", 1.2, "lower_is_better")]))[0].ok

    def test_improvement_always_passes(self):
        old = _payload([("ops", 100.0, "higher_is_better"),
                        ("lat", 1.0, "lower_is_better")])
        new = _payload([("ops", 500.0, "higher_is_better"),
                        ("lat", 0.1, "lower_is_better")])
        assert all(f.ok for f in compare_payloads(old, new))

    def test_exact_fails_on_any_difference(self):
        old = _payload([("bytes", 1000, "exact")])
        assert compare_payloads(old, _payload([("bytes", 1000, "exact")]))[0].ok
        (finding,) = compare_payloads(old, _payload([("bytes", 1001, "exact")]))
        assert finding.status == "mismatch"

    def test_informational_metric_never_fails_on_value(self):
        old = _payload([("wall_s", 1.0, None)])
        new = _payload([("wall_s", 99.0, None)])
        assert compare_payloads(old, new)[0].ok

    def test_missing_metric_fails(self):
        old = _payload([("ops", 100.0, "higher_is_better"),
                        ("lat", 1.0, "lower_is_better")])
        new = _payload([("ops", 100.0, "higher_is_better")])
        statuses = {f.metric: f.status for f in compare_payloads(old, new)}
        assert statuses == {"ops": "ok", "lat": "missing"}

    def test_unexpected_metric_fails(self):
        old = _payload([("ops", 100.0, "higher_is_better")])
        new = _payload([("ops", 100.0, "higher_is_better"),
                        ("extra", 1.0, None)])
        statuses = {f.metric: f.status for f in compare_payloads(old, new)}
        assert statuses["extra"] == "unexpected"

    def test_labels_distinguish_metrics(self):
        old = _payload([("rps", 100.0, "higher_is_better", {"f": "a"}),
                        ("rps", 10.0, "higher_is_better", {"f": "b"})])
        new = _payload([("rps", 100.0, "higher_is_better", {"f": "a"}),
                        ("rps", 5.0, "higher_is_better", {"f": "b"})])
        by_labels = {f.labels: f.status for f in compare_payloads(old, new)}
        assert by_labels[(("f", "a"),)] == "ok"
        assert by_labels[(("f", "b"),)] == "regression"

    def test_config_mismatch_is_a_hard_error(self):
        old = _payload([("ops", 1.0, "exact")], config={"scale": "smoke"})
        new = _payload([("ops", 1.0, "exact")], config={"scale": "fast"})
        with pytest.raises(GateError, match="config mismatch"):
            compare_payloads(old, new)

    def test_direction_change_is_a_hard_error(self):
        old = _payload([("ops", 1.0, "higher_is_better")])
        new = _payload([("ops", 1.0, "lower_is_better")])
        with pytest.raises(GateError, match="changed direction"):
            compare_payloads(old, new)

    def test_bench_name_mismatch_is_a_hard_error(self):
        with pytest.raises(GateError, match="bench name"):
            compare_payloads(_payload([], bench="BENCH_a"),
                             _payload([], bench="BENCH_b"))

    def test_render_findings_lists_failures(self):
        old = _payload([("ops", 100.0, "higher_is_better")])
        new = _payload([("ops", 10.0, "higher_is_better")])
        text = render_findings(compare_payloads(old, new))
        assert "perf gate" in text and "regression" in text


class TestGateDirectories:
    def _write(self, directory, payload):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{payload['bench']}.json"
        path.write_text(json.dumps(payload))

    def test_round_trip_directories(self, tmp_path):
        old = _payload([("ops", 100.0, "higher_is_better")])
        new = _payload([("ops", 99.0, "higher_is_better")])
        self._write(tmp_path / "base", old)
        findings = gate_directories(tmp_path / "base", {"BENCH_x": new})
        assert [f.status for f in findings] == ["ok"]

    def test_missing_baseline_file_is_a_hard_error(self, tmp_path):
        with pytest.raises(GateError, match="no committed baseline"):
            gate_directories(tmp_path / "base", {"BENCH_x": _payload([])})


class TestHarnessLifecycle:
    @pytest.fixture(scope="class")
    def payloads(self):
        return run_harness(MICRO, seed=0,
                           scenarios=("ingest", "finetune", "relabel"))

    def test_expected_benches_and_metrics(self, payloads):
        assert set(payloads) == {"BENCH_ingest", "BENCH_finetune",
                                 "BENCH_relabel"}
        for bench, payload in payloads.items():
            prefix = bench.replace("BENCH_", "")
            metrics = {e["metric"] for e in payload["results"]}
            for suffix in ("ops_per_s", "p50_latency_s", "p99_latency_s",
                           "wall_s", "speed_factor", "p50_latency_cal",
                           "bytes_moved", "work"):
                assert f"{prefix}_{suffix}" in metrics, (bench, suffix)
            assert "machine_calibration_s" in metrics
            assert payload["schema_version"] == 2
            assert payload["config"]["scale"] == "smoke"

    def test_directions_partition_gated_vs_informational(self, payloads):
        for payload in payloads.values():
            by_metric = {e["metric"]: e.get("direction")
                         for e in payload["results"]}
            for metric, direction in by_metric.items():
                if metric.endswith("speed_factor"):
                    assert direction == "higher_is_better"
                elif metric.endswith(("bytes_moved", "_work",
                                      "_front_rows")):
                    assert direction == "exact"
                else:  # raw seconds + few-sample medians: informational
                    assert direction is None, metric

    def test_deterministic_metrics_reproduce(self, payloads):
        """bytes/work counters must be identical run to run — that is
        what lets the gate demand exactness on them."""
        again = run_harness(MICRO, seed=0,
                            scenarios=("ingest", "finetune", "relabel"))
        for bench in payloads:
            exact = {
                e["metric"]: e["value"] for e in payloads[bench]["results"]
                if e.get("direction") == "exact"
            }
            exact_again = {
                e["metric"]: e["value"] for e in again[bench]["results"]
                if e.get("direction") == "exact"
            }
            assert exact == exact_again
            assert exact, bench

    def test_fresh_run_passes_its_own_gate(self, payloads, tmp_path):
        write_results(payloads, tmp_path / "base")
        again = run_harness(MICRO, seed=0,
                            scenarios=("ingest", "finetune", "relabel"))
        findings = gate_directories(tmp_path / "base", again, tolerance=0.5)
        assert all(f.ok for f in findings), render_findings(findings)

    def test_write_results_round_trips(self, payloads, tmp_path):
        written = write_results(payloads, tmp_path)
        assert {bench for bench, _ in written} == set(payloads)
        for bench, path in written:
            assert json.loads(path.read_text()) == payloads[bench]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_harness(MICRO, scenarios=("ingest", "turbo"))

    def test_bless_harness_medians_runs(self, payloads):
        blessed = bless_harness(MICRO, seed=0,
                                scenarios=("ingest",), reps=2)
        assert set(blessed) == {"BENCH_ingest"}
        by_metric = {e["metric"]: e for e in blessed["BENCH_ingest"]["results"]}
        single = {e["metric"]: e for e in payloads["BENCH_ingest"]["results"]}
        assert set(by_metric) == set(single)
        # deterministic counters keep their exact single-run values (and
        # integer type); only noisy timing metrics get the median
        for metric, entry in by_metric.items():
            if entry.get("direction") == "exact":
                assert entry["value"] == single[metric]["value"]
                assert type(entry["value"]) is type(single[metric]["value"])

    def test_bless_harness_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps"):
            bless_harness(MICRO, reps=0)


class TestHarnessPieces:
    def test_calibration_is_positive_and_stable(self):
        a, b = machine_calibration_s(), machine_calibration_s()
        assert a > 0 and b > 0
        assert abs(a - b) / min(a, b) < 1.0  # min-of-N keeps noise bounded

    def test_scales_registry(self):
        assert set(SCALES) == {"smoke", "fast", "paper"}
        assert SCENARIOS == ("ingest", "finetune", "relabel", "serving",
                             "serving_stream", "sharding")
        assert SCALES["smoke"].photos < SCALES["fast"].photos
        assert SCALES["fast"].photos < SCALES["paper"].photos

    def test_serving_payload_shape(self):
        """serving_payload builds the canonical file from a comparison
        result without rerunning the (slower) simulation."""
        frontend = {
            "throughput_rps": 100.0, "p50_latency_s": 0.01,
            "p99_latency_s": 0.05, "completed": 90, "shed": {"full": 10},
            "mean_batch": 4.0, "cache_hits": 50, "cache_misses": 40,
        }
        result = {
            "seed": 0, "latency_budget_s": 0.1, "speedup": 2.0,
            "adaptive": dict(frontend), "baseline": dict(frontend),
            "config": {"model": "ResNet50", "accelerator": "Tesla V100",
                       "replicas": 1},
        }
        payload = serving_payload(result)
        assert payload["bench"] == "BENCH_serving"
        metrics = {(e["metric"], tuple(sorted(e.get("labels", {}).items())))
                   for e in payload["results"]}
        assert ("serving_throughput_rps", (("frontend", "adaptive"),)) in metrics
        assert ("serving_speedup", ()) in metrics
        # deterministic logical-clock numbers gate with real directions
        directions = {e["metric"]: e.get("direction")
                      for e in payload["results"]}
        assert directions["serving_speedup"] == "higher_is_better"
        assert directions["serving_mean_batch"] is None

    def test_serving_stream_payload_shape(self):
        """serving_stream_payload pins the protocol guarantees as exact
        gate metrics — queue_full must stay zero forever."""
        stream_report = {
            "throughput_rps": 1871.0, "p50_latency_s": 0.18,
            "p99_latency_s": 0.23, "p99_credit_wait_s": 0.18,
            "completed": 3000, "cancelled": 0, "expired": 0,
            "queue_full": 0, "out_of_order": 0, "redispatches": 0,
            "scale_ups": 1, "scale_downs": 0, "peak_replicas": 2,
            "provisioned_replica_s": 1.75, "mean_batch": 13.0,
        }
        sync_report = {
            "completed": 1996, "shed": {"queue_full": 1004, "deadline": 0,
                                        "dispatch_failed": 0},
            "throughput_rps": 1318.0,
        }
        result = {
            "seed": 0, "trace": "flash", "latency_budget_s": 1.0,
            "streaming": stream_report, "sync": sync_report,
            "config": {"model": "ResNet50", "accelerator": "Tesla V100",
                       "replicas": 1},
            "stream_config": {"credits": 256, "min_replicas": 1,
                              "max_replicas": 6},
        }
        payload = serving_stream_payload(result)
        assert payload["bench"] == "BENCH_serving_stream"
        directions = {e["metric"]: e.get("direction")
                      for e in payload["results"]}
        assert directions["stream_queue_full"] == "exact"
        assert directions["stream_out_of_order"] == "exact"
        assert directions["stream_provisioned_replica_s"] == "exact"
        assert directions["stream_throughput_rps"] == "higher_is_better"
        assert directions["stream_p99_credit_wait_s"] == "lower_is_better"
        assert directions["sync_queue_full"] == "exact"
        assert payload["config"]["trace"] == "flash"
        assert payload["config"]["credits"] == 256

    def test_percentiles_match_numpy(self):
        from repro.bench.harness import _percentile

        samples = [0.5, 0.1, 0.9, 0.3]
        assert _percentile(samples, 50) == float(np.percentile(samples, 50))
