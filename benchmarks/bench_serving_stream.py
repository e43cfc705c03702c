"""Streaming serving protocol vs the synchronous front end.

Not a paper figure — the production counterpart of the paper's serving
deployment (§3.1): upload traffic is bursty, and a hard-bounded queue
turns every burst into dropped uploads.  One flash-crowd trace is
played through both front ends:

* **streaming** — the :mod:`repro.serving.stream` protocol: request-id'd
  out-of-order completion, credit-window backpressure, SLO-headroom
  replica autoscaling;
* **sync** — the PR 5 :class:`~repro.serving.frontend.ServingFrontend`
  at a static replica count with its hard-bounded admission queue.

The headline claims recorded in ``results/BENCH_serving_stream.json``:
the streaming side sheds *zero* requests as ``queue_full`` on an
offered load that makes the synchronous queue drop (conservation is
``offered == completed + cancelled + expired``), completes every request
with a p99 no worse than the blessed one, and scales the replica set up
under the flash.  (Out-of-order completion is pinned by
``tests/serving/test_stream.py::test_out_of_order_completion_across_replicas``;
here it shows up once the second replica joins: a batch's service time
now depends on how many of its rows miss (a hit pays only the classifier
tail), so a later batch on one replica can finish before an earlier
batch on the other.)
"""

from pathlib import Path

from repro.analysis.tables import format_table
from repro.bench.harness import serving_stream_payload
from repro.obs.benchjson import BenchResult, load_bench_json
from repro.serving.bench import run_streaming_bench

SEED = 0
BLESSED = Path(__file__).parent / "results" / "BENCH_serving_stream.json"


def streaming_comparison():
    return run_streaming_bench(seed=SEED)


def test_streaming_vs_sync_frontend(benchmark, report, bench_json):
    # read before bench_json below overwrites the committed baseline
    blessed_p99_s = next(r.value for r in load_bench_json(BLESSED)
                         if r.metric == "stream_p99_latency_s")
    result = benchmark(streaming_comparison)
    s = result["streaming"]
    sync = result["sync"]

    text = format_table(
        ["frontend", "offered", "completed", "expired", "queue_full",
         "rps", "p50 (ms)", "p99 (ms)", "replicas"],
        [
            ["streaming", s["offered"], s["completed"], s["expired"],
             s["queue_full"], f"{s['throughput_rps']:.0f}",
             f"{s['p50_latency_s'] * 1e3:.1f}",
             f"{s['p99_latency_s'] * 1e3:.1f}",
             f"{result['stream_config']['min_replicas']}->"
             f"{s['final_replicas']}"],
            ["sync", sync["offered"], sync["completed"],
             sync["shed"]["deadline"], sync["shed"]["queue_full"],
             f"{sync['throughput_rps']:.0f}",
             f"{sync['p50_latency_s'] * 1e3:.1f}",
             f"{sync['p99_latency_s'] * 1e3:.1f}",
             str(result["config"]["replicas"])],
        ],
        title=(f"streaming vs sync on a {result['trace']} trace "
               f"({s['out_of_order']} out-of-order completions, "
               f"+{s['scale_ups']} replicas)"),
    )
    report("serving_streaming_vs_sync", text)

    # the perf harness (repro.bench.harness) builds the exact same
    # payload, so the CLI gate and this bench write identical files
    payload = serving_stream_payload(result)
    bench_json("BENCH_serving_stream", [
        BenchResult(e["metric"], e["value"], e["unit"],
                    dict(e.get("labels", {})), e.get("direction"))
        for e in payload["results"]
    ], config=payload["config"])

    # credit flow never sheds: conservation without a queue_full path
    assert s["queue_full"] == 0
    assert s["conserved"]
    assert s["offered"] == s["completed"] + s["cancelled"] + s["expired"]
    # ...at an offered load that makes the synchronous queue drop
    assert sync["shed"]["queue_full"] > 0
    assert s["completed"] > sync["completed"]
    # nothing is lost to the flash, and the tail is no worse than blessed
    assert s["completed"] == s["offered"] == result["num_requests"]
    assert s["p99_latency_s"] <= blessed_p99_s
    # the flash forces the autoscaler's hand
    assert s["scale_ups"] >= 1
    assert s["peak_replicas"] > result["stream_config"]["min_replicas"]
