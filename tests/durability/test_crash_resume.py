"""Crash-resume chaos suite — the issue's acceptance scenario.

A :class:`TunerCrash` event kills the Tuner mid-lifecycle (every
subsequent operation raises the non-transient ``TunerCrashError``, so
retries cannot absorb it).  The operator restores the latest run-boundary
checkpoint into a fresh cluster and finishes the lifecycle; the result
must match an uninterrupted run bit for bit — same final model version,
same weights, same label counts.

``NDPIPE_CHAOS_SEED`` varies the schedule in CI; ``NDPIPE_CKPT_DIR``
redirects the ``.ndcp`` blobs somewhere the CI job can upload them as
artifacts.  Everything is deterministic for a fixed seed.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.durability.checkpoint import _VERSION as FRAME_VERSION
from repro.faults import FaultInjector, TunerCrash
from repro.faults.errors import TunerCrashError
from repro.models.registry import tiny_model

NUM_PHOTOS = 18
NUM_RUNS = 3
CHAOS_SEED = int(os.environ.get("NDPIPE_CHAOS_SEED", "0"))


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def fresh_cluster():
    return NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, replication=2, seed=0))


def ingest_world(cluster, small_world, seed):
    x, y = small_world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(seed))
    return cluster.ingest(x, train_labels=y)


def lifecycle_fingerprint(cluster):
    """Everything the acceptance criterion compares."""
    return {
        "tuner_version": cluster.tuner.version,
        "model": {k: v.copy()
                  for k, v in cluster.tuner.model.state_dict().items()},
        "labels": cluster.database.snapshot_labels(),
        "version_counts": cluster.database.version_counts(),
    }


def assert_fingerprints_equal(a, b):
    assert a["tuner_version"] == b["tuner_version"]
    assert a["labels"] == b["labels"]
    assert a["version_counts"] == b["version_counts"]
    assert set(a["model"]) == set(b["model"])
    for key in a["model"]:
        assert np.array_equal(a["model"][key], b["model"][key]), key


def checkpoint_dir(tmp_path: Path) -> Path:
    configured = os.environ.get("NDPIPE_CKPT_DIR")
    if configured:
        path = Path(configured)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


def run_uninterrupted(small_world, seed):
    cluster = fresh_cluster()
    ingest_world(cluster, small_world, seed)
    report = cluster.finetune(epochs=1, num_runs=NUM_RUNS)
    cluster.offline_relabel()
    return cluster, report


def run_until_crash(small_world, seed, crash_tick, out_dir):
    """Ingest, then fine-tune until the injected Tuner crash kills it.
    Returns the on-disk checkpoints written before the crash."""
    cluster = fresh_cluster()
    ingest_world(cluster, small_world, seed)
    injector = FaultInjector([TunerCrash(at=crash_tick)]).attach(cluster)
    written = {}

    def sink(run_index, blob):
        # byte 5 of a frame is its version: the one the writer stamps today
        assert blob[:4] == b"NDCP" and blob[4] == FRAME_VERSION
        path = out_dir / f"crash-resume-s{seed}-run{run_index}.ndcp"
        path.write_bytes(blob)
        written[run_index] = path

    with pytest.raises(TunerCrashError):
        cluster.finetune(epochs=1, num_runs=NUM_RUNS, checkpoint_sink=sink)
    assert injector.tuner_crashed
    injector.detach()
    return written


def resume_from_latest(written, small_world_unused=None):
    latest = written[max(written)]
    cluster = fresh_cluster()
    progress = cluster.restore(latest.read_bytes())
    assert progress is not None
    report = cluster.finetune(resume=progress)
    cluster.offline_relabel()
    return cluster, report


@pytest.mark.parametrize("seed", sorted({0, CHAOS_SEED}))
class TestTunerCrashResume:
    """Crash mid-gather (between run boundaries), resume, compare."""

    def test_resumed_lifecycle_matches_uninterrupted(self, small_world,
                                                     tmp_path, seed):
        baseline, base_report = run_uninterrupted(small_world, seed)
        expected = lifecycle_fingerprint(baseline)

        # each run moves 3 feature transfers; tick 4-6 is inside run 1's
        # gather, so run 0's checkpoint is durable and run 1 is lost
        crash_tick = 4 + seed % 3
        out_dir = checkpoint_dir(tmp_path)
        written = run_until_crash(small_world, seed, crash_tick, out_dir)
        assert max(written) == 0  # the crash lost every later run

        resumed, resumed_report = resume_from_latest(written)
        assert_fingerprints_equal(lifecycle_fingerprint(resumed), expected)
        # the resumed report accumulates onto the restored one: identical
        # loss trajectory, identical coverage
        assert [e.loss for e in resumed_report.epochs] == \
            [e.loss for e in base_report.epochs]
        assert resumed_report.images_extracted == base_report.images_extracted
        assert resumed.database.outdated_ids(resumed.tuner.version) == []

    def test_crash_and_resume_are_deterministic(self, small_world,
                                                tmp_path, seed):
        crash_tick = 4 + seed % 3

        def once(label):
            out = tmp_path / label
            out.mkdir()
            written = run_until_crash(small_world, seed, crash_tick, out)
            blobs = {run: path.read_bytes()
                     for run, path in written.items()}
            cluster, _ = resume_from_latest(written)
            return blobs, lifecycle_fingerprint(cluster)

        blobs_a, fp_a = once("a")
        blobs_b, fp_b = once("b")
        assert blobs_a == blobs_b  # checkpoints are bit-identical
        assert_fingerprints_equal(fp_a, fp_b)


class TestCrashAtOtherPoints:
    def test_crash_during_distribution_resumes_cleanly(self, small_world,
                                                       tmp_path):
        """All runs gathered; the crash hits the Check-N-Run round.  The
        last checkpoint says 'nothing left to gather' and resume only
        redoes the distribution."""
        baseline, _ = run_uninterrupted(small_world, CHAOS_SEED)
        expected = lifecycle_fingerprint(baseline)

        # 3 runs x 3 feature sends = 9 ticks; tick 10+ is distribution
        out_dir = checkpoint_dir(tmp_path)
        written = run_until_crash(small_world, CHAOS_SEED, crash_tick=10,
                                  out_dir=out_dir)
        assert max(written) == NUM_RUNS - 1
        latest = written[max(written)]

        cluster = fresh_cluster()
        progress = cluster.restore(latest.read_bytes())
        assert progress.next_run == progress.num_runs
        report = cluster.finetune(resume=progress)
        cluster.offline_relabel()
        assert_fingerprints_equal(lifecycle_fingerprint(cluster), expected)
        assert report.images_extracted == NUM_PHOTOS

    def test_crash_before_any_checkpoint_leaves_nothing(self, small_world,
                                                        tmp_path):
        """A crash inside run 0 writes no checkpoint: the operator
        restarts the lifecycle from scratch — no silent partial state."""
        cluster = fresh_cluster()
        ingest_world(cluster, small_world, CHAOS_SEED)
        injector = FaultInjector([TunerCrash(at=1)]).attach(cluster)
        sink_calls = []
        with pytest.raises(TunerCrashError):
            cluster.finetune(epochs=1, num_runs=NUM_RUNS,
                             checkpoint_sink=lambda r, b: sink_calls.append(r))
        assert sink_calls == []
        injector.detach()

    def test_retries_cannot_absorb_a_tuner_crash(self, small_world):
        """TunerCrashError is not transient: the retry policy must let it
        through instead of spinning against a dead process."""
        cluster = fresh_cluster()
        ingest_world(cluster, small_world, CHAOS_SEED)
        FaultInjector([TunerCrash(at=1)]).attach(cluster)
        with pytest.raises(TunerCrashError):
            cluster.finetune(epochs=1)
