"""Fleet-scale, layer-attributed benchmark of the NDPipe reproduction.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--scale smoke]
                                  [--repeat N [--agree]]

One invocation with ``--workload`` runs that workload in this process,
checks its outputs, prints every metric by name with unit, sample count
and regression bound, and ends with one JSON line (``correct``,
``attempted``, ``failed``, ``metrics``): the ``BENCHMARK.json``
end-to-end metrics with tracing off, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs in a fresh
process of its own.  See README.md beside this file.
"""

import os

# one BLAS thread, decided before numpy loads: the only extra threads in a
# run are the program's own (ThreadedPipeline stages)
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: the program's source is not at {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

from ndpipe_e2e import agree  # noqa: E402
from ndpipe_e2e.calibrate import Calibrator  # noqa: E402
from ndpipe_e2e.layers import (  # noqa: E402
    INTERACTION_RULES,
    SEAMS,
    layer_metrics,
    per_layer_specs,
)
from ndpipe_e2e.metrics import (  # noqa: E402
    CONTRACT_METRICS,
    DETAIL_METRICS,
    WORKLOADS,
    Measured,
)
from ndpipe_e2e.probes import run_probes  # noqa: E402
from ndpipe_e2e.spans import SpanRecorder  # noqa: E402
from ndpipe_e2e.workloads import (  # noqa: E402
    UNTRACED,
    WORKLOAD_CLASSES,
    GateError,
    gate,
)

#: what ``BENCHMARK.json`` freezes as ``run_seconds``; sizes scale with
#: ``--seconds / RUN_SECONDS``
RUN_SECONDS = 10
SMOKE_SECONDS = 0.5
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
RESULTS = HERE / "results"


def environment() -> dict:
    from repro.fastpath import flags

    return {
        "blas_threads": BLAS_ENV, "python": platform.python_version(),
        "numpy": numpy.__version__, "cpus": os.cpu_count(),
        "fastpath": vars(flags()),
    }


def run_once(name: str, seed: int, scale: float, smoke: bool, setups: int,
             recorder=None):
    """Set up ``setups`` times, measure once; returns (workload, outcome)."""
    workload = WORKLOAD_CLASSES[name](seed, scale, smoke)
    setup = Calibrator()
    for _ in range(setups):
        with setup.section():
            workload.setup()
    measured = Calibrator()
    if recorder is None:
        workload.measure(UNTRACED, measured)
    else:
        recorder.install(SEAMS)
        try:
            workload.measure(recorder, measured)
        finally:
            recorder.uninstall()
    outcome = workload.finish()
    outcome.detail.update({
        "setup_s": Measured(
            statistics.median(t.seconds for t in setup.sections), setups),
        "measured_wall_s": Measured(
            measured.total_s, len(measured.sections),
            f"raw {measured.total_raw_s:.3f} s at machine speed "
            f"{measured.speed:.2f}"),
        "peak_rss_mb": Measured(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    })
    return workload, outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in this process; returns the result payload."""
    scale = seconds / RUN_SECONDS
    workload, outcome = run_once(
        name, seed, scale, smoke, setups=1 if trace else SETUP_REPEATS)
    payload = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": {**environment(), "workload": workload.config},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "notes": outcome.notes,
        "detail": detail_rows(name, outcome.detail),
    }
    payload["contract"] = {
        metric.name: {"value": outcome.detail[metric.source[name]].value,
                      "unit": metric.unit}
        for metric in CONTRACT_METRICS}
    if trace:
        del workload
        payload.update(traced_pass(name, seed, scale, smoke, outcome))
    return payload


def detail_rows(name: str, detail: dict) -> dict:
    rows = {}
    for spec in DETAIL_METRICS:
        if name not in spec.workloads:
            continue
        measured = detail[spec.name]
        rows[spec.name] = {
            "value": measured.value, "unit": spec.unit,
            "samples": measured.samples, "better": spec.better,
            "bound": "exact" if spec.kind == "exact" else
                     f"{spec.bound:g} {spec.kind}",
            "note": measured.note,
        }
    return rows


def traced_pass(name: str, seed: int, scale: float, smoke: bool,
                untraced) -> dict:
    """The same work again under the SpanRecorder, then the probes."""
    recorder = SpanRecorder()
    _workload, outcome = run_once(name, seed, scale, smoke, 1, recorder)
    # tracing must observe, not perturb: every logical number repeats
    gate(outcome.failed == untraced.failed,
         f"{outcome.failed} operations failed under tracing")
    for spec in DETAIL_METRICS:
        if spec.kind == "exact" and name in spec.workloads:
            gate(outcome.detail[spec.name].value
                 == untraced.detail[spec.name].value,
                 f"{spec.name} differs between the untraced and traced pass")
    analysis = recorder.analyze()
    metrics = layer_metrics(
        recorder, analysis, outcome.facts, run_probes(scale),
        outcome.detail["measured_wall_s"].value
        / untraced.detail["measured_wall_s"].value - 1.0)
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace_{name}.json"
    recorder.write_chrome_trace(trace_path)
    phases = {}
    for (op, layer), seconds in analysis.self_by_op.items():
        phases.setdefault(op or "(outside operations)", {})[layer] = seconds
    return {
        "per_layer": {spec_name: {"value": metrics[spec_name], "unit": unit}
                      for spec_name, unit, _better in per_layer_specs()},
        "phases": phases, "spans": len(recorder.spans),
        "traced_wall_s": analysis.wall_s,
        "missing_seams": recorder.missing,
        "trace_file": str(trace_path.relative_to(HERE.parent.parent)),
    }


# -- printing -----------------------------------------------------------------
def print_report(payload: dict) -> None:
    name = payload["workload"]
    print(f"== {name}: seed {payload['seed']}, {payload['seconds']:g} s "
          f"budget, tracing {'on' if payload['trace'] else 'off'} ==")
    print(f"why: {WORKLOADS[name]}")
    print("config: " + json.dumps(payload["config"], sort_keys=True))
    print(f"operations: attempted {payload['attempted']}, "
          f"failed {payload['failed']}")
    for key, value in payload["notes"].items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    if payload["trace"]:
        print_layers(payload)
        return
    print("end-to-end metrics (tracing off):")
    print(f"  {'name':28} {'value':>14}  {'unit':10} {'n':>6}  "
          f"{'bound':10} note")
    for metric, row in payload["detail"].items():
        print(f"  {metric:28} {row['value']:14.6g}  {row['unit']:10} "
              f"{row['samples']:6d}  {row['bound']:10} {row['note']}")
    print("BENCHMARK.json end_to_end (this workload's source metric):")
    for metric in CONTRACT_METRICS:
        row = payload["contract"][metric.name]
        print(f"  {metric.name:28} {row['value']:14.6g}  {row['unit']:10} "
              f"<- {metric.source[name]}, bound {metric.bound:g}")


def print_layers(payload: dict) -> None:
    rows = payload["per_layer"]
    print(f"per-layer metrics ({payload['spans']} spans, written to "
          f"{payload['trace_file']}):")
    for metric, row in rows.items():
        print(f"  {metric:46} {row['value']:16.6g}  {row['unit']}")
    if payload["missing_seams"]:
        print("seams that no longer exist (skipped): "
              + ", ".join(payload["missing_seams"]))
    print("self time by phase (top layers):")
    for op, layers in payload["phases"].items():
        total = sum(layers.values())
        if total <= 0:
            continue
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:5]
        print(f"  {op:24} {total:8.3f} s  " + "  ".join(
            f"{layer} {seconds / total:.0%}" for layer, seconds in top))
    print("how to read these together:")
    for rule in INTERACTION_RULES:
        print(f"  - {rule}")


def result_line(payload: dict) -> str:
    metrics = payload["per_layer"] if payload["trace"] else payload["contract"]
    return json.dumps({
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"], "failed": payload["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measurement budget; work scales with it")
    parser.add_argument("--scale", choices=["smoke"],
                        help=f"smoke = --seconds {SMOKE_SECONDS}")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in a fresh process")
    parser.add_argument("--agree", action="store_true",
                        help="two sets of --repeat runs must agree within "
                             "each metric's own bound")
    args = parser.parse_args(argv)
    smoke = args.scale == "smoke"
    seconds = SMOKE_SECONDS if smoke else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None or args.repeat > 1 or args.agree:
        names = [args.workload] if args.workload else list(WORKLOADS)
        options = ["--seed", str(args.seed), "--seconds", repr(seconds),
                   "--trace", str(args.trace)]
        return agree.run_sets(
            Path(__file__), names, options + ["--scale", "smoke"] * smoke,
            max(1, args.repeat), args.agree)
    try:
        payload = run_workload(args.workload, args.seed, seconds,
                               bool(args.trace), smoke)
    except GateError as error:
        print(f"GATE FAILED ({args.workload}): {error}", file=sys.stderr)
        return 1
    print_report(payload)
    print(agree.DETAIL_TAG + json.dumps(
        {k: payload[k] for k in ("workload", "detail", "attempted", "failed")}))
    print(result_line(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
