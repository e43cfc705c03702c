"""Command-line interface: ``python -m repro.cli <command>``.

Each subcommand is one ``@_command`` row of :data:`COMMANDS`, written
beside its body; ``repro --help`` prints the rows' help strings.  Every
subcommand takes the same three plumbing flags: ``--seed`` (the
deterministic run seed), ``--out`` (write the report to a file instead
of stdout), and ``--format`` (output encoding, where the command has
more than one).  A body returns what the command prints as an
:class:`Output`, and :func:`main` picks the encoding and honours
``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .analysis.tables import format_bytes, format_table


class Output(NamedTuple):
    """What one command prints.

    ``text`` serves every format but ``json``; ``payload`` serves
    ``--format json``, as an object or as JSON an exporter already
    encoded.  ``status`` is the exit code, or a callable that prints
    what follows the output (the perf gate, the lint manifest check)
    and returns the exit code once the output is written.
    """

    text: Optional[str] = None
    payload: object = None
    status: Union[int, Callable[[], int]] = 0


class _Command(NamedTuple):
    help: str
    flags: Tuple[Callable[[argparse.ArgumentParser], object], ...]
    formats: Tuple[str, ...]
    out_default: Optional[str]
    out_help: str
    body: Callable[[argparse.Namespace], Output]


#: subcommand name -> its row, in ``repro --help`` order
COMMANDS: Dict[str, _Command] = {}


def _command(name: str, help: str, *flags,
             formats: Tuple[str, ...] = ("text", "json"),
             out_default: Optional[str] = None,
             out_help: str = "write the output to a file instead of stdout"):
    """Register the decorated body as subcommand ``name``.  ``flags``
    are :func:`_arg` rows; ``formats[0]`` is the default ``--format``;
    a command whose ``--out`` has a default writes its own file there
    and prints its report to stdout."""
    def register(body: Callable[[argparse.Namespace], Output]):
        COMMANDS[name] = _Command(help, flags, formats, out_default,
                                  out_help, body)
        return body
    return register


def _arg(*names: str, **options):
    """One ``add_argument`` call, made when the parser is built."""
    return lambda parser: parser.add_argument(*names, **options)


def _at_least(floor: int):
    """An argparse integer type refusing values below ``floor`` (one
    line, exit 2)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"need at least {floor}, got {value}")
        return value

    return integer


def _stores(at_least: int = 1):
    """``--stores N``, refused below the smallest fleet the subcommand
    can build."""
    return _arg("--stores", type=_at_least(at_least), default=3)


def _gbps(text: str) -> float:
    """An argparse type: a link speed :class:`NetworkSpec` accepts (one
    line, exit 2)."""
    from .sim.specs import NetworkSpec

    try:
        return NetworkSpec(gbps=float(text)).gbps
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_float(text: str) -> float:
    """An argparse type: a positive, finite number (one line, exit 2)."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"need a positive finite number, got {value}")
    return value


def _two_column(key: str, rows: List[list], title: str) -> Output:
    """A ``key``/value table; its JSON is the rows as strings."""
    return Output(format_table([key, "value"], rows, title=title),
                  {str(k): str(v) for k, v in rows})


@_command("plan", "run APO (Algorithm 1)",
          _arg("--model", default="ResNet50"),
          _arg("--accelerator", choices=("t4", "inferentia"), default="t4"),
          _arg("--gbps", type=_gbps, default=10.0),
          _arg("--max-stores", type=_at_least(1), default=20),
          _arg("--images", type=_at_least(1), default=1_200_000),
          _arg("--runs", type=_at_least(1), default=3))
def _cmd_plan(args: argparse.Namespace) -> Output:
    from .core.apo import plan_organization
    from .core.partition import FinetunePlanConfig
    from .models.catalog import model_graph
    from .sim.specs import INF1_2XLARGE, G4DN_4XLARGE, NetworkSpec

    graph = model_graph(args.model)
    store = INF1_2XLARGE if args.accelerator == "inferentia" else G4DN_4XLARGE
    plan = plan_organization(
        graph,
        max_pipestores=args.max_stores,
        store_server=store,
        network=NetworkSpec(gbps=args.gbps),
        config=FinetunePlanConfig(dataset_images=args.images,
                                  num_runs=args.runs),
    )
    best = plan.most_energy_efficient()
    return Output(format_table(
        ["setting", "value"],
        [
            ["model", graph.name],
            ["PipeStore accelerator", store.accelerator.name],
            ["network", f"{args.gbps} Gbps"],
            ["partition point", plan.split_label],
            ["PipeStores (APO)", plan.num_pipestores],
            ["training time", f"{plan.best.training_time_s / 60:.2f} min"],
            ["PipeStores (max IPS/kJ)", best.num_pipestores],
            ["energy efficiency", f"{best.ips_per_kj:,.0f} IPS/kJ"],
        ],
        title=f"APO plan for {graph.name}",
    ), {
        "model": graph.name,
        "accelerator": store.accelerator.name,
        "gbps": args.gbps,
        "partition_point": plan.split_label,
        "pipestores_apo": plan.num_pipestores,
        "training_time_s": plan.best.training_time_s,
        "pipestores_energy": best.num_pipestores,
        "ips_per_kj": best.ips_per_kj,
    })


@_command("figures", "regenerate simulator-backed figures")
def _cmd_figures(args: argparse.Namespace) -> Output:
    from .analysis import perf

    f09 = perf.fig09_partition_sweep()
    apo = perf.fig11_apo_sweep()
    f13 = perf.fig13_inference_scaling(["ResNet50"])["ResNet50"]
    return Output("\n".join([
        format_table(
            ["cut", "feature GB", "sync GB", "train time (s)"],
            [[r["cut"], r["feature_traffic_gb"], r["sync_traffic_gb"],
              r["training_time_s"]] for r in f09],
            title="Fig. 9: partition sweep",
        ),
        "",
        format_table(
            ["stores", "train time (s)", "T_diff (s)", "IPS/kJ"],
            [[r["stores"], r["training_time_s"], r["t_diff_s"],
              r["ips_per_kj"]] for r in apo["rows"]],
            title=f"Fig. 11: APO sweep (pick: {apo['apo_pick']} stores)",
        ),
        "",
        format_table(
            ["system", "KIPS"],
            [[v, f13["srv_ips"][v] / 1e3]
             for v in ("SRV-I", "SRV-P", "SRV-C")]
            + [[f"NDPipe x{n}", f13["ndpipe_ips"][n] / 1e3]
               for n in (1, 4, 8, 16, 20)],
            title=f"Fig. 13 (ResNet50), crossovers {f13['crossovers']}",
        ),
    ]), {"fig09": f09, "fig11": apo, "fig13_resnet50": f13})


@_command("demo", "run the tiny-cluster lifecycle",
          _stores(), _arg("--photos", type=_at_least(1), default=90))
def _cmd_demo(args: argparse.Namespace) -> Output:
    cluster = _make_demo_cluster(args.stores, seed=args.seed)
    _ingest_demo_photos(cluster, args.photos, args.seed)
    report = cluster.finetune(epochs=2)
    relabel = cluster.offline_relabel()
    return _two_column("metric", [
        ["photos ingested", len(cluster.database)],
        ["images fine-tuned", report.images_extracted],
        ["labels refreshed", relabel.photos_processed],
        ["model delta",
         f"{cluster.tuner.distributions[-1].reduction_factor:.1f}x "
         "smaller than the full model"],
    ] + [[f"traffic: {kind}", format_bytes(num)]
         for kind, num in sorted(cluster.traffic_summary().items())],
        "NDPipe demo lifecycle")


def _make_demo_cluster(stores: int, replication: int = 1, seed: int = 0):
    """The tiny demo cluster every lifecycle command runs on."""
    from .core.cluster import NDPipeCluster
    from .core.config import ClusterConfig
    from .models.registry import tiny_model

    return NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ClusterConfig(num_stores=stores, nominal_raw_bytes=8192,
                      replication=replication, seed=seed),
    )


def _ingest_demo_photos(cluster, photos: int, seed: int) -> None:
    """Ingest ``photos`` labelled photos of the seeded demo world."""
    import numpy as np

    from .data.drift import DriftingPhotoWorld, WorldConfig

    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3,
        seed=seed,
    ))
    x, y = world.sample(photos, 0, rng=np.random.default_rng(seed + 1))
    cluster.ingest(x, train_labels=y)


def _run_lifecycle(stores: int, photos: int, seed: int = 0):
    """One ingest -> finetune -> relabel pass on a tiny cluster."""
    cluster = _make_demo_cluster(stores, seed=seed)
    _ingest_demo_photos(cluster, photos, seed)
    cluster.finetune(epochs=1)
    cluster.offline_relabel()
    return cluster


@_command("metrics", "run the lifecycle and export cluster metrics",
          _stores(), _arg("--photos", type=int, default=48),
          formats=("prometheus", "json"))
def _cmd_metrics(args: argparse.Namespace) -> Output:
    cluster = _run_lifecycle(args.stores, args.photos, seed=args.seed)
    return Output(cluster.metrics.export_prometheus(),
                  cluster.metrics.export_json(indent=2))


@_command("trace", "run the lifecycle and export a chrome://tracing JSON",
          _stores(), _arg("--photos", type=int, default=48),
          formats=("json",))
def _cmd_trace(args: argparse.Namespace) -> Output:
    cluster = _run_lifecycle(args.stores, args.photos, seed=args.seed)
    return Output(payload=cluster.tracer.export_chrome_trace(indent=2))


@_command("checkpoint",
          "run the lifecycle and write a durable checkpoint blob",
          _stores(), _arg("--photos", type=int, default=48),
          _arg("--runs", type=int, default=3),
          _arg("--replication", type=int, default=1),
          _arg("--at-run", type=int, default=None,
               help="write the mid-fine-tune checkpoint taken after this "
                    "run (default: the final post-lifecycle state)"),
          out_default="ndpipe.ndcp", out_help="checkpoint file to write")
def _cmd_checkpoint(args: argparse.Namespace) -> Output:
    from .durability import inspect_checkpoint

    cluster = _make_demo_cluster(args.stores, replication=args.replication,
                                 seed=args.seed)
    _ingest_demo_photos(cluster, args.photos, args.seed)
    run_blobs = {}
    cluster.finetune(
        epochs=1, num_runs=args.runs,
        checkpoint_sink=lambda run, blob: run_blobs.__setitem__(run, blob),
    )
    if args.at_run is not None:
        if args.at_run not in run_blobs:
            print(f"no checkpoint at run {args.at_run} "
                  f"(runs 0..{args.runs - 1})", file=sys.stderr)
            return Output(status=1)
        blob = run_blobs[args.at_run]
    else:
        cluster.offline_relabel()
        blob = cluster.checkpoint()
    with open(args.out, "wb") as handle:
        handle.write(blob)
    info = inspect_checkpoint(blob)
    pending = info["pending_finetune"]
    return _two_column("field", [
        ["file", args.out],
        ["bytes", len(blob)],
        ["tuner version", info["tuner_version"]],
        ["stores", info["num_stores"]],
        ["photos", info["photos"]],
        ["replication", info["replication"]],
        ["pending fine-tune",
         "none" if pending is None else
         f"run {pending['next_run']}/{pending['num_runs']}"],
    ], "NDPipe checkpoint")


@_command("resume", "restore a checkpoint and finish any pending fine-tune",
          _arg("ckpt", help="checkpoint file written by 'checkpoint'"))
def _cmd_resume(args: argparse.Namespace) -> Output:
    from .durability import inspect_checkpoint

    with open(args.ckpt, "rb") as handle:
        blob = handle.read()
    info = inspect_checkpoint(blob)
    cluster = _make_demo_cluster(info["num_stores"],
                                 replication=info["replication"],
                                 seed=args.seed)
    progress = cluster.restore(blob)
    rows = [
        ["restored photos", len(cluster.database)],
        ["tuner version (restored)", info["tuner_version"]],
    ]
    if progress is not None:
        report = cluster.finetune(resume=progress)
        rows += [
            ["resumed at run", progress.next_run],
            ["runs completed", report.num_runs],
            ["final loss", f"{report.final_loss:.4f}"],
        ]
    else:
        rows.append(["pending fine-tune", "none"])
    # post-restore hygiene sweep: re-place anything orphaned on downed
    # stores, evict stale copies, and report how much the journal shed
    journal_before = cluster.journal_size
    reingested = sum(
        len(cluster.reingest_orphans(store.store_id))
        for store in cluster.stores if not store.is_available)
    evicted = sum(
        len(cluster.reconcile(store))
        for store in cluster.stores if store.is_available)
    rows += [
        ["orphans re-ingested", reingested],
        ["reconcile evicted", evicted],
        ["journal pruned", journal_before - cluster.journal_size],
        ["tuner version (now)", cluster.tuner.version],
    ]
    return _two_column("field", rows, "NDPipe resume")


@_command("nemesis", "run a seeded chaos schedule and check HA invariants",
          _arg("--steps", type=_at_least(1), default=8,
               help="lifecycle actions to interleave (default 8)"),
          _stores(at_least=2),  # it crashes one and goes on
          _arg("--photos", type=int, default=4,
               help="photos per ingest/serve step (default 4)"),
          out_help="write the event log / summary to a file "
                   "(use --format json for the CI artifact)")
def _cmd_nemesis(args: argparse.Namespace) -> Output:
    from .ha import InvariantViolation, NemesisHarness

    harness = NemesisHarness(seed=args.seed, steps=args.steps,
                             num_stores=args.stores,
                             photos_per_step=args.photos)
    violation = None
    report = None
    try:
        report = harness.run()
    except InvariantViolation as exc:
        violation = str(exc)
    payload = (dataclasses.asdict(report) if report is not None else {
        "seed": args.seed,
        "steps": args.steps,
        "num_stores": args.stores,
        "events": harness.events,
    })
    payload["violation"] = violation
    rows = [
        ["steps run", len(harness.events)],
        ["faults fired", len(harness.injector.fired)],
        ["failovers", int(payload.get("failovers", 0))],
        ["final epoch", harness.cluster.tuner.epoch],
        ["final model version", harness.cluster.tuner.version],
        ["photos acknowledged", len(harness.acknowledged)],
        ["invariant checks", payload.get("invariant_checks", "-")],
        ["verdict", "OK" if violation is None else f"VIOLATION: {violation}"],
    ]
    return Output(format_table(["field", "value"], rows,
                               title=f"NDPipe nemesis (seed {args.seed})"),
                  payload, 0 if violation is None else 1)


@_command("catalog", "dump the hardware catalog")
def _cmd_catalog(args: argparse.Namespace) -> Output:
    from .models.catalog import ALL_MODELS, model_graph
    from .sim.specs import NEURONCORE_V1, SERVERS, TESLA_T4, TESLA_V100

    rows = []
    for name in ALL_MODELS:
        graph = model_graph(name)
        rows.append([
            name, graph.total_flops / 1e9, graph.total_params / 1e6,
            TESLA_T4.inference_ips(graph, 128),
            TESLA_V100.inference_ips(graph, 128),
            NEURONCORE_V1.inference_ips(graph, 128),
        ])
    return Output("\n".join([
        format_table(
            ["model", "GFLOPs", "params (M)", "T4 IPS@128", "V100 IPS@128",
             "NeuronCore IPS@128"],
            rows, title="model catalog (calibrated)",
        ),
        "",
        format_table(
            ["instance", "accelerator", "$/h"],
            [[s.name, s.accelerator.name if s.accelerator else "-",
              s.price_per_hour] for s in SERVERS.values()],
            title="server catalog",
        ),
    ]), {
        "models": [dict(zip(
            ("model", "gflops", "params_m", "t4_ips_128",
             "v100_ips_128", "neuroncore_ips_128"), row)) for row in rows],
        "servers": [{
            "instance": s.name,
            "accelerator": s.accelerator.name if s.accelerator else None,
            "price_per_hour": s.price_per_hour,
        } for s in SERVERS.values()],
    })


@_command("validate", "check the catalog against the paper's anchors",
          formats=("text",))
def _cmd_validate(args: argparse.Namespace) -> Output:
    from .analysis.validate import calibration_report, validate_calibration

    return Output(calibration_report(), status=0 if all(
        a.ok for a in validate_calibration()) else 1)


@_command("serve-bench",
          "benchmark adaptive micro-batching vs the batch=1 baseline",
          _arg("--requests", type=int, default=800,
               help="requests in the Poisson trace (default 800)"),
          _arg("--rate", type=_positive_float, default=1500.0,
               help="offered load in requests/s (default 1500)"),
          _arg("--replicas", type=_at_least(1), default=1),
          _arg("--slo", type=float, default=0.1,
               help="latency SLO in seconds (default 0.1)"))
def _cmd_serve_bench(args: argparse.Namespace) -> Output:
    from .serving.bench import run_serving_comparison
    from .serving.config import ServingConfig

    config = ServingConfig(replicas=args.replicas, slo_s=args.slo)
    result = run_serving_comparison(
        seed=args.seed, num_requests=args.requests, rate_rps=args.rate,
        config=config,
    )
    rows = []
    for name in ("adaptive", "baseline"):
        r = result[name]
        rows.append([
            name, r["offered"], r["completed"], sum(r["shed"].values()),
            f"{r['throughput_rps']:.0f}",
            f"{r['p50_latency_s'] * 1e3:.1f}",
            f"{r['p99_latency_s'] * 1e3:.1f}",
            f"{r['mean_batch']:.1f}",
        ])
    return Output(format_table(
        ["frontend", "offered", "completed", "shed", "rps",
         "p50 (ms)", "p99 (ms)", "mean batch"],
        rows,
        title=(f"serve-bench @ {args.rate:.0f} rps, "
               f"budget {result['latency_budget_s'] * 1e3:.0f} ms "
               f"-> {result['speedup']:.2f}x throughput"),
    ), result)


@_command("serve-stream",
          "benchmark the streaming credit-window protocol vs the "
          "synchronous front end on a bursty trace",
          _arg("--trace", choices=("flash", "diurnal", "poisson"),
               default="flash", help="arrival-trace shape (default flash)"),
          _arg("--requests", type=int, default=800,
               help="requests in the trace (default 800)"),
          _arg("--replicas", type=int, default=1,
               help="starting (and minimum) replica count"),
          _arg("--max-replicas", type=int, default=6,
               help="autoscaler ceiling (default 6)"),
          _arg("--credits", type=_at_least(1), default=256,
               help="client send-credit window (default 256)"),
          _arg("--slo", type=float, default=0.1,
               help="latency SLO in seconds (default 0.1)"),
          _arg("--deadline", type=float, default=1.0,
               help="per-request deadline in seconds (default 1.0)"),
          _arg("--no-autoscale", action="store_true",
               help="pin the replica set (no elasticity)"))
def _cmd_serve_stream(args: argparse.Namespace) -> Output:
    from .serving.bench import run_streaming_bench
    from .serving.config import ServingConfig, StreamConfig

    config = ServingConfig(replicas=args.replicas, slo_s=args.slo,
                           deadline_s=args.deadline)
    stream = StreamConfig(credits=args.credits,
                          min_replicas=args.replicas,
                          max_replicas=args.max_replicas,
                          autoscale=not args.no_autoscale)
    result = run_streaming_bench(
        seed=args.seed, trace=args.trace, num_requests=args.requests,
        config=config, stream=stream,
    )
    s = result["streaming"]

    def row(name: str, r: dict) -> list:
        return [name, r["offered"], r["completed"],
                r["cancelled"] + r["expired"], r["queue_full"],
                f"{r['throughput_rps']:.0f}",
                f"{r['p50_latency_s'] * 1e3:.1f}",
                f"{r['p99_latency_s'] * 1e3:.1f}",
                f"{r['mean_batch']:.1f}"]

    return Output("\n".join([
        format_table(
            ["frontend", "offered", "completed", "late/expired",
             "queue_full", "rps", "p50 (ms)", "p99 (ms)", "mean batch"],
            [row("streaming", s), row("sync", result["sync"])],
            title=(f"serve-stream [{result['trace']}] "
                   f"budget {result['latency_budget_s'] * 1e3:.0f} ms"),
        ),
        "",
        f"out-of-order completions: {s['out_of_order']}  "
        f"redispatches: {s['redispatches']}",
        f"replicas: {result['config']['replicas']} -> "
        f"{s['final_replicas']} (peak {s['peak_replicas']}, "
        f"+{s['scale_ups']}/-{s['scale_downs']})  "
        f"p99 credit wait: {s['p99_credit_wait_s'] * 1e3:.1f} ms",
    ]), result)


@_command("shard-bench",
          "benchmark the sharded fleet: ring placement at population "
          "scale, fan-out vs unicast distribution, live rebalance",
          _arg("--uploads", type=int, default=None,
               help="trace length (default 200000)"),
          _arg("--users", type=int, default=None,
               help="simulated user population (default 1000000)"),
          _arg("--shards", type=_at_least(1), default=None,
               help="fleet size (default 8)"))
def _cmd_shard_bench(args: argparse.Namespace) -> Output:
    from .placement.bench import run_sharding_bench

    overrides = {}
    if args.uploads is not None:
        overrides["num_uploads"] = args.uploads
    if args.users is not None:
        overrides["num_users"] = args.users
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    result = run_sharding_bench(seed=args.seed, overrides=overrides or None)
    placement = result["placement"]
    fanout = result["fanout"]
    migration = result["migration"]
    return Output("\n\n".join([
        format_table(
            ["tenant", "offered", "admitted", "rejected", "resident MiB"],
            [[t, a["offered"], a["admitted"], a["rejected"],
              f"{a['resident_bytes'] / 2**20:.1f}"]
             for t, a in sorted(placement["admission"].items())],
            title=(f"placement: {placement['keys']} uploads from "
                   f"{placement['distinct_users']} of "
                   f"{placement['num_users']} users @ "
                   f"{placement['keys_per_s']:.0f} keys/s, "
                   f"spread {placement['spread_max_over_mean']:.3f}x"),
        ),
        format_table(
            ["event", "keys moved", "fraction", "bound"],
            [["join", placement["join"]["moved"],
              f"{placement['join']['fraction']:.4f}",
              f"{placement['join']['bound']:.4f}"],
             ["leave", placement["leave"]["moved"],
              f"{placement['leave']['fraction']:.4f}",
              f"{placement['leave']['bound']:.4f}"]],
            title="ring movement (join lands only on the newcomer: "
                  f"{placement['join']['all_to_new_shard']})",
        ),
        format_table(
            ["strategy", "tuner egress (B)", "relayed", "store versions"],
            [[name, fanout[name]["tuner_egress_bytes"],
              fanout[name]["relayed"],
              str(fanout[name]["store_versions"])]
             for name in ("unicast", "fanout")],
            title=(f"Check-N-Run distribution: fan-out saves "
                   f"{fanout['egress_saving_bytes']} B "
                   f"({fanout['egress_saving_fraction']:.0%}) at equal "
                   f"freshness ({fanout['freshness_equal']})"),
        ),
        format_table(
            ["metric", "value"],
            [["objects moved", migration["ledger"]["objects_moved"]],
             ["objects received", migration["ledger"]["objects_received"]],
             ["objects inflight", migration["ledger"]["objects_inflight"]],
             ["moved fraction",
              f"{migration['join']['moved_fraction']:.4f} "
              f"(bound {migration['bound']:.4f})"],
             ["rebalance bytes", migration["rebalance_bytes"]],
             ["unrecoverable", migration["unrecoverable"]]],
            title=(f"live join -> {migration['join']['num_shards']} shards "
                   f"(within bound: {migration['within_bound']})"),
        ),
    ]), result)


@_command("perf",
          "run the perf-trajectory harness; --check gates against the "
          "committed baselines, --bless re-records them",
          _arg("--scenario", action="append",
               choices=("ingest", "finetune", "relabel", "serving",
                        "serving_stream", "sharding"),
               help="scenario to run (repeatable; default: all six)"),
          _arg("--scale", choices=("smoke", "fast", "paper"),
               default="smoke",
               help="harness size (default smoke — the scale the "
                    "committed baselines are recorded at)"),
          _arg("--check", action="store_true",
               help="gate the fresh results against the baselines; "
                    "exit 1 on regression, 2 on invalid comparison"),
          _arg("--attempts", type=_at_least(1), default=3,
               help="with --check, a regression must reproduce in "
                    "this many fresh runs to fail the gate "
                    "(default 3; bursty machine noise is not a "
                    "regression)"),
          _arg("--bless", action="store_true",
               help="write the fresh results over the committed "
                    "baselines (the intentional-change workflow)"),
          _arg("--tolerance", type=float, default=0.15,
               help="allowed relative drift for directional metrics "
                    "(default 0.15; 'exact' metrics get none)"),
          _arg("--out-dir", default=None,
               help="directory for the fresh BENCH_*.json files "
                    "(default: the baseline dir when blessing, a "
                    "temp dir otherwise)"),
          _arg("--baseline-dir", default="benchmarks/results",
               help="committed baseline directory "
                    "(default benchmarks/results)"))
def _cmd_perf(args: argparse.Namespace) -> Output:
    import tempfile
    from pathlib import Path

    from .bench import (
        SCALES,
        SCENARIOS,
        GateError,
        bless_harness,
        gate_directories,
        render_findings,
        run_harness,
        write_results,
    )

    if args.bless and args.check:
        print("--bless and --check are mutually exclusive", file=sys.stderr)
        return Output(status=2)
    scenarios = args.scenario or list(SCENARIOS)
    scale = SCALES[args.scale]
    baseline_dir = Path(args.baseline_dir)
    if args.out_dir:
        out_dir = Path(args.out_dir)
    elif args.bless:
        # blessing re-records the committed trajectory in place
        out_dir = baseline_dir
    else:
        # a plain run (and --check) must not clobber the baselines it
        # would be compared against
        out_dir = Path(tempfile.mkdtemp(prefix="ndpipe-perf-"))
    if args.bless:
        # median of several runs centres the baseline in its noise band
        payloads = bless_harness(scale, seed=args.seed, scenarios=scenarios)
    else:
        payloads = run_harness(scale, seed=args.seed, scenarios=scenarios)
    write_results(payloads, out_dir)

    def gate() -> int:
        # a regression must reproduce in every attempt to fail the gate:
        # bursty interference (scheduler preemption, host steal) can push
        # one run's timing past tolerance without any code change
        for attempt in range(args.attempts):
            if attempt:
                write_results(run_harness(scale, seed=args.seed,
                                          scenarios=scenarios), out_dir)
            try:
                findings = gate_directories(baseline_dir, out_dir,
                                            sorted(payloads),
                                            tolerance=args.tolerance)
            except GateError as exc:
                print(f"perf gate error: {exc}", file=sys.stderr)
                return 2
            if all(f.ok for f in findings) or attempt == args.attempts - 1:
                break
            print(f"perf gate attempt {attempt + 1}/{args.attempts} "
                  "failed, retrying:")
            print(render_findings(findings))
        print(render_findings(findings))
        return 1 if any(not f.ok for f in findings) else 0

    rows = [
        [bench, e["metric"],
         ",".join(f"{k}={v}" for k, v in e.get("labels", {}).items())
         or "-",
         f"{e['value']:g}", e["unit"], e.get("direction") or "info"]
        for bench, payload in sorted(payloads.items())
        for e in payload["results"]
    ]
    return Output(format_table(
        ["bench", "metric", "labels", "value", "unit", "direction"],
        rows,
        title=f"repro perf @ scale={scale.name} -> {out_dir}",
    ), {
        "scale": scale.name,
        "out_dir": str(out_dir),
        "benches": payloads,
    }, gate if args.check else 0)


@_command("lint", "run the ndlint invariant rules; nonzero on findings",
          _arg("paths", nargs="*",
               help="files/directories to lint (default: the "
                    "installed repro package)"),
          _arg("--update-manifest", action="store_true",
               help="regenerate obs/METRICS.md before linting"),
          _arg("--check-manifests", action="store_true",
               help="fail when obs/METRICS.md is stale"))
def _cmd_lint(args: argparse.Namespace) -> Output:
    from pathlib import Path

    from .lint.engine import LintEngine, package_root
    from .lint.findings import render_json, render_text

    engine = LintEngine()
    paths = ([Path(p) for p in args.paths] if args.paths
             else [package_root()])
    if args.update_manifest:
        # collect registrations with the manifest check disabled, rewrite
        # METRICS.md, then lint for real against the fresh copy
        probe = LintEngine()
        probe.config.manifest_path = None
        probe.run(paths)
        engine.registrations = probe.registrations
        target = engine.write_manifest()
        print(f"wrote {target}", file=sys.stderr)
    findings = engine.run(paths)

    def manifest_check() -> int:
        # runs after the report is written, so the CI gate always has
        # its artifact, pass or fail
        path = engine.config.manifest_path
        stale = args.check_manifests and path is not None and (
            path.read_text() if path.is_file() else ""
        ) != engine.render_manifest()
        if stale:
            print(f"manifest drift: {path} is stale; regenerate with "
                  "'repro lint --update-manifest'", file=sys.stderr)
        return 1 if findings or stale else 0

    return Output(render_text(findings), render_json(findings),
                  manifest_check)


def _report_topics(parser: argparse.ArgumentParser) -> None:
    from .report import TOPICS

    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("topic", nargs="?", choices=list(TOPICS))
    which.add_argument("--all", action="store_true",
                       help="every topic, in table order")


@_command("report", "print the numbers CI puts in its job summary "
                    "(Markdown), for one topic or --all",
          _report_topics, formats=("markdown",))
def _cmd_report(args: argparse.Namespace) -> Output:
    from .report import TOPICS, render

    return Output(render(TOPICS if args.all else [args.topic]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NDPipe reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        command = sub.add_parser(name, help=row.help)
        for flag in row.flags:
            flag(command)
        command.add_argument("--seed", type=int, default=0,
                             help="deterministic run seed (default 0)")
        command.add_argument("--out", default=row.out_default,
                             help=row.out_help)
        command.add_argument("--format", choices=row.formats,
                             default=row.formats[0],
                             help=f"output format (default {row.formats[0]})")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    row = COMMANDS[args.command]
    text, payload, status = row.body(args)
    if args.format == "json" and payload is not None:
        text = payload if isinstance(payload, str) else json.dumps(
            payload, indent=2, default=str)
    if text is not None:
        out = None if row.out_default else args.out
        if out:
            with open(out, "w") as handle:
                handle.write(text)
            print(f"wrote {out}")
        else:
            print(text)
    return status() if callable(status) else status


if __name__ == "__main__":
    sys.exit(main())
