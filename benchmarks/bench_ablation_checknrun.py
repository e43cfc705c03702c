"""Ablation: Check-N-Run delta distribution vs alternatives.

The paper reports up to 427.4x traffic reduction from shipping compressed
deltas instead of whole models.  This ablation measures, with real zlib on
ResNet50-shaped state dicts, how the reduction decomposes: shipping only
changed tensors, deflate, and quantisation — and what quantisation costs
in weight error.  A second table follows the live format over several
rounds: each round ships ``master - published`` at
:data:`~repro.core.checknrun.LIVE_DELTA_BITS`, so the residual the
quantiser left is fed into the next round and stays within half a step.
"""

import numpy as np

from repro.analysis.tables import format_bytes, format_table
from repro.core.checknrun import (
    LIVE_DELTA_BITS,
    apply_delta,
    delta_stats,
    encode_delta,
    publish,
)

LIVE_ROUNDS = 4


def make_states(seed: int = 0):
    """A ResNet50-shaped fp32 state where only the classifier changed."""
    rng = np.random.default_rng(seed)
    old = {
        "backbone.conv": rng.normal(0, 0.05, size=(5_880_000,)).astype(np.float32),
        "classifier.weight": rng.normal(0, 0.05, size=(2048, 250)).astype(np.float32),
        "classifier.bias": np.zeros(250, dtype=np.float32),
    }
    new = {k: v.copy() for k, v in old.items()}
    new["classifier.weight"] = (
        new["classifier.weight"]
        + rng.normal(0, 0.003, size=new["classifier.weight"].shape)
        .astype(np.float32))
    new["classifier.bias"] = new["classifier.bias"] + 0.001
    return old, new


def run_ablation():
    old, new = make_states()
    rows = []
    for bits in (None, 16, 8, 4):
        stats = delta_stats(old, new, quantize_bits=bits)
        blob = encode_delta(old, new, quantize_bits=bits)
        rebuilt = apply_delta(old, blob)
        err = max(
            float(np.abs(rebuilt[k] - new[k]).max()) for k in new
        )
        rows.append({
            "mode": "exact" if bits is None else f"{bits}-bit",
            "delta_bytes": stats.delta_bytes,
            "reduction": stats.reduction_factor,
            "max_weight_error": err,
        })
    return rows


def run_live_rounds(rounds: int = LIVE_ROUNDS, seed: int = 0):
    """Exact against error-fed bytes per round on the same master walk.

    The exact column is what shipping the master's own delta costs (the
    pre-quantisation live format); the live column is what
    :func:`publish` ships from the published state.
    """
    rng = np.random.default_rng(seed)
    master, _ = make_states(seed)
    published = master
    rows = []
    for index in range(1, rounds + 1):
        previous = master
        master = dict(master)
        master["classifier.weight"] = (
            master["classifier.weight"]
            + rng.normal(0, 0.003, size=master["classifier.weight"].shape)
            .astype(np.float32))
        master["classifier.bias"] = master["classifier.bias"] + 0.001
        exact = encode_delta(previous, master)
        # half the quantiser's step this round, per tensor
        half_step = {k: float(np.ptp(master[k].astype(np.float64)
                                     - published[k]))
                     / ((1 << LIVE_DELTA_BITS) - 1) / 2 for k in master}
        blob, published = publish(published, master)
        residual = {k: float(np.abs(master[k].astype(np.float64)
                                    - published[k]).max()) for k in master}
        # the published tensor is rounded to its own dtype once more
        rounding = {k: float(np.finfo(v.dtype).eps * np.abs(v).max())
                    for k, v in published.items()}
        rows.append({
            "round": index,
            "exact_bytes": len(exact),
            "live_bytes": len(blob),
            "residual": max(residual.values()),
            "within_half_step": all(
                residual[k] <= half_step[k] + rounding[k] for k in master),
        })
    return rows


def test_ablation_checknrun(benchmark, report):
    rows = benchmark.pedantic(run_ablation, iterations=1, rounds=1)

    old, new = make_states()
    full = delta_stats(old, new).full_model_bytes
    table = format_table(
        ["delta mode", "bytes on wire", "reduction vs full model",
         "max weight error"],
        [[r["mode"], format_bytes(r["delta_bytes"]),
          f"{r['reduction']:.1f}x", f"{r['max_weight_error']:.2e}"]
         for r in rows],
        title=(f"Ablation: Check-N-Run delta encoding "
               f"(full model {format_bytes(full)}; paper: up to 427.4x)"),
    )
    live = run_live_rounds()
    table += "\n\n" + format_table(
        ["round", "exact delta", "live delta", "live reduction",
         "max |master - published|"],
        [[r["round"], format_bytes(r["exact_bytes"]),
          format_bytes(r["live_bytes"]),
          f"{full / r['live_bytes']:.1f}x", f"{r['residual']:.2e}"]
         for r in live],
        title=(f"Live rounds: {LIVE_DELTA_BITS}-bit deltas from the "
               "published state, residual fed into the next round"),
    )
    report("ablation_checknrun", table)

    by_mode = {r["mode"]: r for r in rows}
    # exact deltas are bit-faithful
    assert by_mode["exact"]["max_weight_error"] == 0.0
    # quantisation buys more reduction at bounded error
    assert (by_mode["8-bit"]["reduction"]
            > by_mode["exact"]["reduction"])
    assert by_mode["8-bit"]["max_weight_error"] < 1e-3
    # the headline: >40x even exact, >100x quantised on this shape
    assert by_mode["exact"]["reduction"] > 10
    assert by_mode["8-bit"]["reduction"] > 25
    # every live round undercuts the exact delta, and the residual does
    # not drift: each round it is within half that round's step
    for row in live:
        assert row["live_bytes"] < row["exact_bytes"]
        assert row["within_half_step"]
