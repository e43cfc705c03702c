"""Tests for the ``python -m repro.cli`` entry point."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command, stores, floor", [
        ("demo", "0", 1), ("metrics", "0", 1), ("trace", "-2", 1),
        ("checkpoint", "0", 1), ("nemesis", "1", 2),
    ])
    def test_too_few_stores_is_a_usage_error(self, capsys, command, stores,
                                             floor):
        """One argparse line and exit code 2, not a ``ClusterConfig``
        traceback from inside the run."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--stores", stores])
        assert exit_info.value.code == 2
        assert (f"argument --stores: need at least {floor}, got {stores}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("gbps", ["0", "-1"])
    def test_bad_gbps_is_a_usage_error(self, capsys, gbps):
        """One argparse line and exit code 2, not an APO
        ``ZeroDivisionError`` from inside the run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "--gbps", gbps])
        assert exit_info.value.code == 2
        assert (f"argument --gbps: gbps must be positive and finite, "
                f"got {float(gbps)}" in capsys.readouterr().err)

    @pytest.mark.parametrize("attempts", ["0", "-1"])
    def test_perf_attempts_below_one_is_a_usage_error(self, capsys, attempts):
        """Not a gate that prints ``attempt 1/0 failed`` and its findings
        twice."""
        with pytest.raises(SystemExit) as exit_info:
            main(["perf", "--check", "--attempts", attempts])
        assert exit_info.value.code == 2
        assert (f"argument --attempts: need at least 1, got {attempts}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag, message", [
        ("plan", "--max-stores", "need at least 1, got 0"),
        ("plan", "--runs", "need at least 1, got 0"),
        ("plan", "--images", "need at least 1, got 0"),
        ("serve-bench", "--rate", "need a positive finite number, got 0.0"),
        ("serve-bench", "--replicas", "need at least 1, got 0"),
        ("serve-stream", "--credits", "need at least 1, got 0"),
        ("nemesis", "--steps", "need at least 1, got 0"),
        ("demo", "--photos", "need at least 1, got 0"),
        ("shard-bench", "--shards", "need at least 1, got 0"),
    ])
    def test_zero_size_is_a_usage_error(self, capsys, command, flag,
                                        message):
        """Not a traceback from deep inside the run it would have sized."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "0"])
        assert exit_info.value.code == 2
        assert (f"argument {flag}: {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("rate", ["-1", "nan", "inf"])
    def test_rate_not_positive_and_finite_is_a_usage_error(self, capsys,
                                                           rate):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-bench", "--rate", rate])
        assert exit_info.value.code == 2
        assert (f"argument --rate: need a positive finite number, "
                f"got {float(rate)}" in capsys.readouterr().err)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_each_command_answers_help(self, capsys, name):
        """``repro <cmd> --help`` exits 0, and ``repro --help`` lists the
        row's help string (compared without the wrapping whitespace)."""
        for argv in ([name, "--help"], ["--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
        own, listing = capsys.readouterr().out.split("usage: repro [-h]")
        assert own.startswith(f"usage: repro {name} ")
        assert "".join(COMMANDS[name].help.split()) in "".join(
            listing.split())

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "ResNet50"
        assert args.gbps == 10.0


class TestCommands:
    def test_plan_prints_apo_result(self, capsys):
        assert main(["plan", "--model", "ResNet50"]) == 0
        out = capsys.readouterr().out
        assert "APO plan for ResNet50" in out
        assert "+Conv5" in out
        assert "8" in out  # the paper's pick

    def test_plan_inferentia(self, capsys):
        assert main(["plan", "--model", "ResNet50",
                     "--accelerator", "inferentia"]) == 0
        assert "NeuronCoreV1" in capsys.readouterr().out

    def test_plan_unknown_model_raises(self):
        with pytest.raises(KeyError):
            main(["plan", "--model", "AlexNet"])

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out and "Fig. 11" in out and "Fig. 13" in out

    def test_catalog_command(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "g4dn.4xlarge" in out
        assert "ResNet50" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "--stores", "2", "--photos", "24"]) == 0
        out = capsys.readouterr().out
        assert "photos ingested" in out
        assert "model delta" in out


class TestObservabilityCommands:
    def test_metrics_prometheus(self, capsys):
        assert main(["metrics", "--stores", "2", "--photos", "12"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE fabric_bytes_total counter" in out
        assert 'fabric_bytes_total{kind="ingest"' in out
        assert "# TYPE ftdmp_store_stage_seconds histogram" in out

    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "--format", "json",
                     "--stores", "2", "--photos", "12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster_photos_ingested_total"]["value"] == 12

    def test_metrics_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert main(["metrics", "--stores", "2", "--photos", "12",
                     "--out", str(out_path)]) == 0
        assert "fabric_bytes_total" in out_path.read_text()
        assert str(out_path) in capsys.readouterr().out

    def test_trace_command(self, capsys):
        import json

        assert main(["trace", "--stores", "2", "--photos", "12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"cluster.ingest", "cluster.finetune",
                "cluster.offline_relabel"} <= names


class TestShardBenchCommand:
    SMALL = ["--uploads", "2000", "--users", "5000", "--shards", "4"]

    def test_text_tables(self, capsys):
        assert main(["shard-bench"] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "ring movement" in out
        assert "Check-N-Run distribution" in out
        assert "live join" in out
        assert "acme" in out  # per-tenant admission accounting

    def test_json_payload(self, capsys):
        import json

        assert main(["shard-bench", "--format", "json"] + self.SMALL) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["num_shards"] == 4
        assert payload["placement"]["keys"] == 2000
        fanout = payload["fanout"]
        assert fanout["fanout"]["tuner_egress_bytes"] \
            < fanout["unicast"]["tuner_egress_bytes"]
        assert payload["migration"]["unrecoverable"] == 0

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "shard.txt"
        assert main(["shard-bench", "--out", str(out_path)]
                    + self.SMALL) == 0
        assert "ring movement" in out_path.read_text()

    def test_unknown_override_is_loud(self):
        with pytest.raises(ValueError, match="unknown overrides"):
            from repro.placement.bench import run_sharding_bench
            run_sharding_bench(overrides={"shards": 4})


class TestPerfCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.scale == "smoke"
        assert args.tolerance == 0.15
        assert args.attempts == 3
        assert args.baseline_dir == "benchmarks/results"
        assert not args.check and not args.bless

    def test_bless_and_check_are_exclusive(self, capsys):
        assert main(["perf", "--bless", "--check"]) == 2

    def test_bless_records_baselines(self, tmp_path, capsys):
        import json

        base = tmp_path / "results"
        assert main(["perf", "--scenario", "ingest", "--bless",
                     "--baseline-dir", str(base)]) == 0
        payload = json.loads((base / "BENCH_ingest.json").read_text())
        assert payload["schema_version"] == 2
        assert payload["config"]["scale"] == "smoke"
        out = capsys.readouterr().out
        assert "ingest_speed_factor" in out

    def test_check_gates_against_blessed_baselines(self, tmp_path, capsys):
        base = tmp_path / "results"
        assert main(["perf", "--scenario", "ingest", "--bless",
                     "--baseline-dir", str(base)]) == 0
        capsys.readouterr()
        # generous tolerance: this is a plumbing test, not a perf test
        assert main(["perf", "--scenario", "ingest", "--check",
                     "--tolerance", "2.0",
                     "--baseline-dir", str(base)]) == 0
        assert "perf gate" in capsys.readouterr().out

    def test_check_without_baselines_errors(self, tmp_path, capsys):
        assert main(["perf", "--scenario", "ingest", "--check",
                     "--baseline-dir", str(tmp_path / "void")]) == 2
        assert "no committed baseline" in capsys.readouterr().err


class TestDemoOutputIsPinned:
    """``demo``/``metrics``/``trace``/``checkpoint``/``resume`` share one
    demo world and one demo cluster.  For a fixed seed their output is
    pinned byte for byte (wall-clock timings masked): the digests are
    those of the output each command printed when it spelled its own
    world and cluster."""

    # re-pinned when the Tuner began holding feature rows: the metrics
    # export gained ftdmp_feature_rows_{reused_total,held_bytes} (and a
    # reworded images help; bb902f51371d8c75 before), and the mid-run
    # checkpoint's report gained "rows_held": 0, every blob unchanged
    # (checkpoint 33aa6a67ae6ef281, bytes 51862ebd2dcbd86e before).
    # Re-pinned when each upload began passing the front door once:
    # ingest bytes fall (8-bit ``preproc/`` blobs), labels, confidences
    # and the trained tensors are those of the rounded codes, the
    # checkpoint is v4 with an 8-bit journal and its store snapshots hold
    # derived ``preproc/`` blobs as key and CRC (demo d64356a40c4d6a99,
    # demo-json 8dfe9a49faf83da9, metrics a60d374e49ffc0d9, checkpoint
    # ed7a2cb0587f59c8, bytes 20d430052f9a2bc5, resume 58b65883edbaaa2f
    # before; trace unchanged).  Re-pinned when the journal's codes went
    # stored and the feat/ segment Z_RLE: the checkpoint's bytes and the
    # size line it prints moved, what resume prints did not (checkpoint
    # 597e31039143d717, bytes 45f81d279a03cb01 before).  Re-pinned when
    # a store's first extraction began taking ingest's front row: the
    # metrics export gained pipestore_feature_rows_reused_total and a
    # reworded misses help, every value unchanged (metrics
    # cffbbce8d9b9bade before)
    PINNED = {
        "demo": "1c84742012f516c6",
        "demo-json": "39a6f8ef07c61934",
        "metrics": "d25aa4efe2b4cca6",
        "trace": "3adee8aefad31562",
        "checkpoint": "0444d025af8f3e37",
        "checkpoint-bytes": "100058cd000ab47c",
        "resume": "335a586238c53f38",
    }

    @staticmethod
    def _digest(text) -> str:
        import hashlib

        data = text if isinstance(text, bytes) else text.encode()
        return hashlib.sha256(data).hexdigest()[:16]

    @staticmethod
    def _untimed_metrics(text: str) -> str:
        import json

        # stage-time histograms observe wall-clock seconds
        return json.dumps({name: family
                           for name, family in json.loads(text).items()
                           if not name.endswith("_stage_seconds")},
                          sort_keys=True)

    @staticmethod
    def _untimed_trace(text: str) -> str:
        import json

        events = [{k: v for k, v in event.items()
                   if k not in ("ts", "dur", "tid")}
                  for event in json.loads(text)["traceEvents"]]
        return json.dumps(events, sort_keys=True)

    def _outputs(self, capsys):
        outputs = {}

        def run(name, argv):
            assert main(argv) == 0
            outputs[name] = capsys.readouterr().out

        run("demo", ["demo", "--stores", "2", "--photos", "24"])
        run("demo-json", ["demo", "--stores", "2", "--photos", "24",
                          "--format", "json", "--seed", "3"])
        run("metrics", ["metrics", "--format", "json",
                        "--stores", "2", "--photos", "12"])
        outputs["metrics"] = self._untimed_metrics(outputs["metrics"])
        run("trace", ["trace", "--stores", "2", "--photos", "12"])
        outputs["trace"] = self._untimed_trace(outputs["trace"])
        # a relative path: the checkpoint table is padded to its width
        run("checkpoint", ["checkpoint", "--stores", "2", "--photos", "12",
                           "--runs", "2", "--at-run", "0",
                           "--out", "demo.ndcp"])
        with open("demo.ndcp", "rb") as handle:
            outputs["checkpoint-bytes"] = handle.read()
        run("resume", ["resume", "demo.ndcp"])
        return {name: self._digest(out) for name, out in outputs.items()}

    def test_outputs_match_the_pinned_digests(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self._outputs(capsys) == self.PINNED
