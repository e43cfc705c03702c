"""Tests for the NPE: threaded pipeline behaviour and the Fig. 12 ablation."""

import math
import time
from pathlib import Path

import pytest

from repro.core.npe import (
    ABLATION_LEVELS,
    NpeConfig,
    ThreadedPipeline,
    npe_ablation,
    npe_pipeline_stage_times,
    npe_task_times,
    npe_throughput_ips,
)
from repro.models.catalog import model_graph
from repro.sim.specs import PREPROCESSED_BYTES


class TestThreadedPipeline:
    def test_preserves_order_and_applies_stages(self):
        pipe = ThreadedPipeline([
            ("double", lambda x: x * 2),
            ("inc", lambda x: x + 1),
        ])
        assert pipe.run(range(20)) == [x * 2 + 1 for x in range(20)]

    def test_stats_count_items(self):
        pipe = ThreadedPipeline([("noop", lambda x: x)])
        pipe.run(range(7))
        assert pipe.stats[0].items == 7

    def test_overlap_actually_happens(self):
        """3 stages of 10ms sleeps over 8 items: pipelined wall-clock must
        be well under the 240ms serial time."""
        def slow(x):
            time.sleep(0.01)
            return x

        pipe = ThreadedPipeline([("a", slow), ("b", slow), ("c", slow)])
        start = time.perf_counter()
        pipe.run(range(8))
        elapsed = time.perf_counter() - start
        # serial would be 240 ms; allow generous slack for loaded machines
        assert elapsed < 0.21

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("stage failed")

        pipe = ThreadedPipeline([("boom", boom)])
        with pytest.raises(RuntimeError, match="stage failed"):
            pipe.run(range(3))

    def test_midstream_failure_does_not_deadlock(self):
        """A mid-stream stage error with tiny queues and many items used to
        wedge the pipeline: the feeder blocked on a full queue while the
        caller waited on a sentinel that never came.  The run must now
        abort promptly, drain, and re-raise."""
        import threading

        def middle(x):
            if x == 7:
                raise ValueError("item 7 is poison")
            return x

        pipe = ThreadedPipeline([
            ("a", lambda x: x),
            ("poison", middle),
            ("c", lambda x: x),
        ])
        outcome = []

        def drive():
            try:
                pipe.run(range(500))
            except BaseException as exc:
                outcome.append(exc)

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=10)
        assert not driver.is_alive(), "pipeline deadlocked on stage failure"
        assert len(outcome) == 1
        assert isinstance(outcome[0], ValueError)
        assert "poison" in str(outcome[0])

    def test_midstream_failure_joins_all_threads(self):
        import threading

        baseline = threading.active_count()

        def boom(x):
            if x == 3:
                raise RuntimeError("late failure")
            return x

        pipe = ThreadedPipeline([
            ("a", lambda x: x), ("b", boom), ("c", lambda x: x),
        ])
        with pytest.raises(RuntimeError, match="late failure"):
            pipe.run(range(50))
        assert threading.active_count() == baseline

    def test_feeder_exception_propagates_and_shuts_down(self):
        def items():
            yield 1
            yield 2
            raise OSError("source went away")

        pipe = ThreadedPipeline([("noop", lambda x: x)])
        with pytest.raises(OSError, match="source went away"):
            pipe.run(items())

    def test_results_before_failure_are_discarded_not_returned(self):
        """An aborted run raises; it never hands back a partial result."""
        def boom(x):
            if x >= 5:
                raise RuntimeError("boom")
            return x

        pipe = ThreadedPipeline([("boom", boom)])
        with pytest.raises(RuntimeError):
            pipe.run(range(20))
        # the pipeline object is reusable after a failed run
        ok = ThreadedPipeline([("noop", lambda x: x)]).run(range(4))
        assert ok == [0, 1, 2, 3]

    def test_empty_input(self):
        pipe = ThreadedPipeline([("noop", lambda x: x)])
        assert pipe.run([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadedPipeline([])

    def test_real_photo_pipeline(self, rng):
        """Read -> decompress/preprocess -> classify over real blobs."""
        from repro.models.registry import tiny_model
        from repro.nn.tensor import Tensor
        from repro.storage.compression import deflate, inflate
        from repro.storage.imageformat import (
            decode_preprocessed,
            encode_preprocessed,
            preprocess,
        )

        model = tiny_model("ResNet50", num_classes=6, width=8).eval()
        blobs = [
            deflate(encode_preprocessed(preprocess(rng.random((3, 16, 16)))))
            for _ in range(12)
        ]

        pipe = ThreadedPipeline([
            ("read", lambda blob: blob),
            ("decomp", lambda blob: decode_preprocessed(inflate(blob))),
            ("infer", lambda arr: int(
                model(Tensor(arr[None])).data.argmax())),
        ])
        labels = pipe.run(blobs)
        assert len(labels) == 12
        assert all(0 <= label < 6 for label in labels)


class TestBenchmarkProbe:
    """The end-to-end benchmark's ``npe.*`` probe is the pipeline's one
    caller outside tests, and the benchmark's own tests are not tier-1."""

    def test_frozen_probe_reports_six_positive_metrics(self, monkeypatch):
        e2e = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
        monkeypatch.syspath_prepend(str(e2e))
        from ndpipe_e2e.probes import _npe_probe

        out = _npe_probe(photos=64)
        assert sorted(out) == [
            "npe.overlap_gain", "npe.pipeline_photos_per_s",
            "npe.serial_photos_per_s", "npe.stage_decode_busy_share",
            "npe.stage_infer_busy_share", "npe.stage_read_busy_share",
        ]
        assert all(math.isfinite(v) and v > 0 for v in out.values())


class TestAblationModel:
    @pytest.fixture(scope="class")
    def graph(self):
        return model_graph("ResNet50")

    def test_all_levels_present(self, graph):
        out = npe_ablation(graph, "inference")
        assert set(out) == set(ABLATION_LEVELS)

    def test_naive_inference_dominated_by_preprocessing(self, graph):
        """Fig. 12b: with 1 CPU core, preprocessing dwarfs everything."""
        times = npe_task_times(graph, "Naive", "inference")
        assert times["Preproc"] == max(times.values())
        assert times["Preproc"] > 10 * times["Read"]

    def test_offload_eliminates_preprocessing(self, graph):
        times = npe_task_times(graph, "+Offload", "inference")
        assert times["Preproc"] == 0.0

    def test_comp_shrinks_read_time(self, graph):
        offload = npe_task_times(graph, "+Offload", "inference")
        comp = npe_task_times(graph, "+Comp", "inference")
        assert comp["Read"] < offload["Read"]
        assert comp["Decomp"] > 0

    def test_batch_shrinks_fecl(self, graph):
        comp = npe_task_times(graph, "+Comp", "inference")
        batch = npe_task_times(graph, "+Batch", "inference")
        assert batch["FE&Cl"] < comp["FE&Cl"] / 3

    def test_final_stages_roughly_balanced(self, graph):
        """§5.4: batch size 128 balances each stage's duration."""
        times = npe_task_times(graph, "+Batch", "inference")
        busy = [v for v in times.values() if v > 0]
        assert max(busy) / min(busy) < 3.0

    def test_throughput_increases_along_ablation(self, graph):
        rates = [npe_throughput_ips(graph, level, "inference")
                 for level in ABLATION_LEVELS]
        assert rates == sorted(rates)
        # final optimised PipeStore reaches the paper's per-store IPS
        assert rates[-1] == pytest.approx(2129, rel=0.05)

    def test_finetune_naive_bottleneck_is_fe(self, graph):
        """Fig. 12a: FE dominates naive fine-tuning (sync moved to Tuner)."""
        times = npe_task_times(graph, "Naive", "finetune")
        assert times["FE"] == max(times.values())

    def test_unknown_level_and_task(self, graph):
        with pytest.raises(ValueError):
            npe_task_times(graph, "turbo")
        with pytest.raises(ValueError):
            npe_task_times(graph, "Naive", task="training")


class TestStatsAcrossRuns:
    """Regression: ``stats`` used to accumulate across ``run()`` calls, so
    a reused pipeline reported totals mixed from old runs."""

    def test_stats_reset_per_run(self):
        pipe = ThreadedPipeline([("noop", lambda x: x)])
        pipe.run(range(7))
        pipe.run(range(3))
        assert pipe.stats[0].items == 3  # latest run only


class TestAbortedRunStats:
    """Regression: an aborted ``run()`` used to leak its partial progress
    into the next run's books, so the retry after a failure double-counted
    every item the aborted run had already pushed through."""

    def test_retry_after_abort_counts_each_item_once(self):
        calls = {"n": 0}

        def work(x):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            return x

        pipe = ThreadedPipeline([("work", work)])
        with pytest.raises(RuntimeError, match="boom"):
            pipe.run(range(6))
        assert pipe.run(range(6)) == list(range(6))
        # the retried run reports exactly its 6 items
        assert pipe.stats[0].items == 6


class TestSharedCpuStage:
    """Regression: throughput took max() over subtasks, but Preproc and
    Decomp share the CPU stage — the bottleneck is their sum."""

    @pytest.fixture(scope="class")
    def graph(self):
        return model_graph("ResNet50")

    def test_pipeline_stage_folding(self, graph):
        times = npe_task_times(graph, "+Comp", "inference")
        stages = npe_pipeline_stage_times(times)
        assert stages["read"] == times["Read"]
        assert stages["cpu"] == times["Preproc"] + times["Decomp"]
        assert stages["accelerator"] == times["FE&Cl"]

    def test_both_cpu_subtasks_sum_into_bottleneck(self, graph):
        cfg = NpeConfig(
            "custom", PREPROCESSED_BYTES, PREPROCESSED_BYTES,
            preprocess_on_store=True, decompress=True,
            batch_size=1, decompress_cores=2,
        )
        times = npe_task_times(graph, cfg, "inference")
        assert times["Preproc"] > 0 and times["Decomp"] > 0
        stages = npe_pipeline_stage_times(times)
        assert stages["cpu"] == max(stages.values())
        ips = npe_throughput_ips(graph, cfg, "inference")
        assert ips == pytest.approx(1e3 / stages["cpu"])
        # the old max-over-subtasks bottleneck overstated throughput
        assert ips < 1e3 / max(times.values())

    def test_standard_levels_unchanged(self, graph):
        """At every Fig. 12 level at most one CPU subtask is active, so
        the fix leaves the published ablation rates alone."""
        for level in ABLATION_LEVELS:
            times = npe_task_times(graph, level, "inference")
            assert times["Preproc"] == 0.0 or times["Decomp"] == 0.0
