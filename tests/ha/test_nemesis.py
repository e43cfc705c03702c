"""Nemesis chaos runs: invariants hold, logs replay deterministically."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.ha import InvariantViolation, NemesisHarness

#: ``repro nemesis --seed S --steps 8 --format json --out F`` logs for
#: S = 0, 1, 2, pinned byte for byte
GOLDEN = Path(__file__).parent / "golden"


def run(seed, steps=6):
    return NemesisHarness(seed=seed, steps=steps, num_stores=3,
                          photos_per_step=3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariants_hold_across_seeds(seed):
    harness = run(seed)
    report = harness.run()
    assert len(report.events) == 6
    assert report.invariant_checks >= 3 * 6
    assert report.photos_acknowledged == len(set(harness.acknowledged))
    # every step's bookkeeping made it into the log
    for entry in report.events:
        assert entry["outcome"] in ("ok", "failed")
        assert entry["epoch"] >= 0

    # the log is JSON-serialisable (it is the CI artifact)
    assert json.dumps(dataclasses.asdict(report))


def test_event_log_is_deterministic():
    a = dataclasses.asdict(run(1).run())
    b = dataclasses.asdict(run(1).run())
    assert a == b


def test_tuner_crash_drives_a_failover():
    """Seed 1's schedule includes a tuner crash mid-fine-tune."""
    report = run(1, steps=8).run()
    assert report.failovers >= 1
    assert report.final_epoch >= 1
    # the run kept going after the election: model training completed
    assert report.final_version >= 1


def test_acknowledged_loss_is_loud():
    harness = run(0, steps=2)
    harness.run()
    pid = harness.acknowledged[0]
    # vaporise every copy: blobs on all stores plus the journal entry
    for store in harness.cluster.stores:
        if store.objects.exists(store.objects.raw_key(pid)):
            store.evict_photo(pid)
    if harness.cluster.control.journal is not None:
        harness.cluster.control.journal.pop(pid, None)
    with pytest.raises(InvariantViolation, match="lost"):
        harness.check_invariants(99)


def test_lineage_regression_is_loud():
    harness = run(0, steps=1)
    harness.run()
    harness.cluster.tuner.epoch = -1
    with pytest.raises(InvariantViolation, match="lineage"):
        harness.check_invariants(99)


def test_harness_validates_inputs():
    with pytest.raises(ValueError):
        NemesisHarness(steps=0)
    with pytest.raises(ValueError):
        NemesisHarness(num_stores=1)


def first_difference(got, want):
    """Where two nemesis logs part: the first step that differs, else the
    first top-level field."""
    for step, (ours, theirs) in enumerate(zip(got["events"], want["events"])):
        if ours != theirs:
            keys = sorted(k for k in set(ours) | set(theirs)
                          if ours.get(k) != theirs.get(k))
            return f"step {step} differs in {keys}: {ours} != {theirs}"
    if len(got["events"]) != len(want["events"]):
        return (f"step {min(len(got['events']), len(want['events']))} "
                f"is missing from one log")
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return f"no step differs; fields {keys} do"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_event_log_matches_the_golden_bytes(tmp_path, capsys, seed):
    out = tmp_path / "nemesis.json"
    assert main(["nemesis", "--seed", str(seed), "--steps", "8",
                 "--format", "json", "--out", str(out)]) == 0
    golden = GOLDEN / f"nemesis_seed{seed}.json"
    if out.read_bytes() != golden.read_bytes():
        pytest.fail(f"seed {seed}: " + first_difference(
            json.loads(out.read_text()), json.loads(golden.read_text())))
