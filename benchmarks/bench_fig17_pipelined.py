"""Fig. 17 — pipelined FT-DMP: accuracy and wall-clock vs N_run.

Paper: pipelining cuts training time by 23% (N_run=2) and 32% (N_run=3)
with negligible accuracy loss (71.61 -> 71.55 / 71.52%); N_run=4 drops
accuracy noticeably (70.36%) as catastrophic forgetting bites.  The
"published top-1" column is what the fleet serves after the round's live
(quantised) Check-N-Run delta, beside the Tuner master's final top-1.
"""

from repro.analysis.accuracy import fig17_pipelined_training
from repro.analysis.tables import format_table


def test_fig17_pipelined_training(benchmark, report, bench_scale):
    out = benchmark.pedantic(
        lambda: fig17_pipelined_training(scale=bench_scale),
        iterations=1, rounds=1,
    )

    rows = [
        [n, entry["sim_time_s"], entry["time_reduction_pct"],
         entry["final_top1"] * 100, entry["published_top1"] * 100]
        for n, entry in sorted(out.items())
    ]
    table = format_table(
        ["N_run", "simulated time (s)", "time reduction %", "final top-1 %",
         "published top-1 %"],
        rows,
        title="Fig. 17: pipelined FT-DMP (ResNet50, 4 PipeStores)",
    )
    report("fig17_pipelined", table)

    # time reductions land near the paper's 23% / 32%
    assert 18 < out[2]["time_reduction_pct"] < 30
    assert 27 < out[3]["time_reduction_pct"] < 38
    if bench_scale.train >= 400:  # statistically meaningful scales only
        # accuracy holds up to N_run=3 (within a few points of N_run=1);
        # the Lemma 5.2 audit lives in tests/core/test_convergence.py on an
        # IID run split — the time-ordered stream here deliberately
        # violates the paper's condition (iii)
        assert out[3]["final_top1"] > out[1]["final_top1"] - 0.06
