"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``plan``     — run APO for a model/hardware combination and print the
  recommended organisation (Algorithm 1);
* ``figures``  — regenerate the simulator-backed paper figures as text
  tables (the fast subset; accuracy figures live in the benchmarks);
* ``demo``     — run the end-to-end tiny-cluster lifecycle;
* ``metrics``  — run the lifecycle and export the cluster's metrics
  (Prometheus text or JSON);
* ``trace``    — run the lifecycle and export a Chrome ``trace_event``
  JSON of the nested flow/FT-DMP spans;
* ``checkpoint`` — run the lifecycle and write a durable ``.ndcp``
  checkpoint (optionally from a mid-fine-tune run boundary);
* ``resume``   — restore a ``.ndcp`` checkpoint into a fresh cluster and
  finish whatever fine-tuning was pending;
* ``catalog``  — dump the calibrated hardware catalog;
* ``serve-bench`` — run the online serving benchmark (adaptive
  micro-batching vs. the synchronous batch=1 baseline);
* ``perf``     — run the perf-trajectory harness (seeded ingest /
  finetune / relabel / serving / sharding scenarios), write
  ``BENCH_*.json``
  results, and optionally gate them against the committed baselines
  (``--check``) or re-record the baselines (``--bless``);
* ``lint``     — run the ndlint invariant rules (per-module ND001,
  ND002, ND004, ND005 and ND011, the interprocedural tier ND006, ND007
  and ND009, and the ND012 census when the whole package is linted)
  over the package (or given paths) and exit nonzero on any finding.
* ``nemesis``  — run a seeded chaos schedule against an HA cluster and
  exit nonzero on any invariant violation;
* ``validate`` — check the hardware catalog against the paper's anchors;
* ``serve-stream`` — run the streaming credit-window protocol against
  the synchronous front end on a bursty trace;
* ``shard-bench`` — run the sharded-fleet benchmark (ring placement,
  fan-out distribution, live rebalance);
* ``report``   — print the numbers CI puts in its job summary, one topic
  (``repro.report.TOPICS``) or ``--all``, as Markdown.

Every subcommand takes the same three plumbing flags: ``--seed`` (the
deterministic run seed), ``--out`` (write the report to a file instead
of stdout), and ``--format`` (output encoding, where the command has
more than one).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _add_common_flags(parser: argparse.ArgumentParser,
                      formats: tuple = ("text", "json"),
                      default_format: str = "text",
                      out_default: Optional[str] = None,
                      out_help: str = "write the output to a file instead "
                                      "of stdout") -> None:
    """The plumbing flags every subcommand shares."""
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic run seed (default 0)")
    parser.add_argument("--out", default=out_default, help=out_help)
    parser.add_argument("--format", choices=formats, default=default_format,
                        help=f"output format (default {default_format})")


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


def _add_stores_flag(parser: argparse.ArgumentParser,
                      at_least: int = 1) -> None:
    """``--stores N``, refused below the smallest fleet the subcommand
    can build."""
    parser.add_argument("--stores", type=_at_least(at_least), default=3)


def _cmd_plan(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
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
    if args.format == "json":
        _emit(json.dumps({
            "model": graph.name,
            "accelerator": store.accelerator.name,
            "gbps": args.gbps,
            "partition_point": plan.split_label,
            "pipestores_apo": plan.num_pipestores,
            "training_time_s": plan.best.training_time_s,
            "pipestores_energy": best.num_pipestores,
            "ips_per_kj": best.ips_per_kj,
        }, indent=2), args.out)
        return 0
    _emit(format_table(
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
    ), args.out)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis import perf
    from .analysis.tables import format_table

    if args.format == "json":
        _emit(json.dumps({
            "fig09": perf.fig09_partition_sweep(),
            "fig11": perf.fig11_apo_sweep(),
            "fig13_resnet50": perf.fig13_inference_scaling(
                ["ResNet50"])["ResNet50"],
        }, indent=2, default=str), args.out)
        return 0
    apo = perf.fig11_apo_sweep()
    f13 = perf.fig13_inference_scaling(["ResNet50"])["ResNet50"]
    _emit("\n".join([
        format_table(
            ["cut", "feature GB", "sync GB", "train time (s)"],
            [[r["cut"], r["feature_traffic_gb"], r["sync_traffic_gb"],
              r["training_time_s"]] for r in perf.fig09_partition_sweep()],
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
    ]), args.out)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .analysis.tables import format_bytes, format_table

    cluster = _make_demo_cluster(args.stores, seed=args.seed)
    _ingest_demo_photos(cluster, args.photos, args.seed)
    report = cluster.finetune(epochs=2)
    relabel = cluster.offline_relabel()
    rows = [
        ["photos ingested", len(cluster.database)],
        ["images fine-tuned", report.images_extracted],
        ["labels refreshed", relabel.photos_processed],
        ["model delta",
         f"{cluster.tuner.distributions[-1].reduction_factor:.1f}x "
         "smaller than the full model"],
    ] + [[f"traffic: {kind}", format_bytes(num)]
         for kind, num in sorted(cluster.traffic_summary().items())]
    if args.format == "json":
        _emit(json.dumps({str(k): str(v) for k, v in rows}, indent=2),
              args.out)
        return 0
    _emit(format_table(["metric", "value"], rows,
                       title="NDPipe demo lifecycle"), args.out)
    return 0


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


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_metrics(args: argparse.Namespace) -> int:
    cluster = _run_lifecycle(args.stores, args.photos, seed=args.seed)
    if args.format == "json":
        _emit(cluster.metrics.export_json(indent=2), args.out)
    else:
        _emit(cluster.metrics.export_prometheus(), args.out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cluster = _run_lifecycle(args.stores, args.photos, seed=args.seed)
    _emit(cluster.tracer.export_chrome_trace(indent=2), args.out)
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
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
            return 1
        blob = run_blobs[args.at_run]
    else:
        cluster.offline_relabel()
        blob = cluster.checkpoint()
    with open(args.out, "wb") as handle:
        handle.write(blob)
    info = inspect_checkpoint(blob)
    pending = info["pending_finetune"]
    rows = [
        ["file", args.out],
        ["bytes", len(blob)],
        ["tuner version", info["tuner_version"]],
        ["stores", info["num_stores"]],
        ["photos", info["photos"]],
        ["replication", info["replication"]],
        ["pending fine-tune",
         "none" if pending is None else
         f"run {pending['next_run']}/{pending['num_runs']}"],
    ]
    if args.format == "json":
        print(json.dumps({str(k): str(v) for k, v in rows}, indent=2))
        return 0
    print(format_table(["field", "value"], rows, title="NDPipe checkpoint"))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
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
    ]
    rows.append(["tuner version (now)", cluster.tuner.version])
    if args.format == "json":
        _emit(json.dumps({str(k): str(v) for k, v in rows}, indent=2),
              args.out)
        return 0
    _emit(format_table(["field", "value"], rows, title="NDPipe resume"),
          args.out)
    return 0


def _cmd_nemesis(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
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
    payload = (report.to_dict() if report is not None else {
        "seed": args.seed,
        "steps": args.steps,
        "num_stores": args.stores,
        "events": harness.events,
    })
    payload["violation"] = violation
    status = 0 if violation is None else 1
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
        return status
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
    _emit(format_table(["field", "value"], rows,
                       title=f"NDPipe nemesis (seed {args.seed})"), args.out)
    return status


def _cmd_validate(args: argparse.Namespace) -> int:
    from .analysis.validate import calibration_report, validate_calibration

    _emit(calibration_report(), args.out)
    return 0 if all(a.ok for a in validate_calibration()) else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from .analysis.tables import format_table
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
        return 2
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

    if args.format == "json":
        _emit(json.dumps({
            "scale": scale.name,
            "out_dir": str(out_dir),
            "benches": payloads,
        }, indent=2), args.out)
    else:
        rows = [
            [bench, e["metric"],
             ",".join(f"{k}={v}" for k, v in e.get("labels", {}).items())
             or "-",
             f"{e['value']:g}", e["unit"], e.get("direction") or "info"]
            for bench, payload in sorted(payloads.items())
            for e in payload["results"]
        ]
        _emit(format_table(
            ["bench", "metric", "labels", "value", "unit", "direction"],
            rows,
            title=f"repro perf @ scale={scale.name} -> {out_dir}",
        ), args.out)

    if not args.check:
        return 0
    # a regression must reproduce in every attempt to fail the gate:
    # bursty interference (scheduler preemption, host steal) can push
    # one run's timing past tolerance without any code change
    for attempt in range(args.attempts):
        if attempt:
            payloads = run_harness(scale, seed=args.seed,
                                   scenarios=scenarios)
            write_results(payloads, out_dir)
        try:
            findings = gate_directories(baseline_dir, out_dir,
                                        sorted(payloads),
                                        tolerance=args.tolerance)
        except GateError as exc:
            print(f"perf gate error: {exc}", file=sys.stderr)
            return 2
        if all(f.ok for f in findings) or attempt == args.attempts - 1:
            break
        print(f"perf gate attempt {attempt + 1}/{args.attempts} failed, "
              "retrying:")
        print(render_findings(findings))
    print(render_findings(findings))
    return 1 if any(not f.ok for f in findings) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
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
    report = (render_json(findings) if args.format == "json"
              else render_text(findings))
    # write the report before deciding the exit code so the CI gate
    # always has its artifact, pass or fail
    _emit(report, args.out)
    drift = _manifest_drift(engine) if args.check_manifests else []
    for line in drift:
        print(f"manifest drift: {line}", file=sys.stderr)
    return 1 if findings or drift else 0


def _manifest_drift(engine) -> list:
    """Human-readable drift lines for METRICS.md."""
    drift = []
    path = engine.config.manifest_path
    if path is not None:
        on_disk = path.read_text() if path.is_file() else ""
        if on_disk != engine.render_manifest():
            drift.append(f"{path} is stale; regenerate with "
                         "'repro lint --update-manifest'")
    return drift


def _cmd_catalog(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
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
    if args.format == "json":
        _emit(json.dumps({
            "models": [dict(zip(
                ("model", "gflops", "params_m", "t4_ips_128",
                 "v100_ips_128", "neuroncore_ips_128"), row)) for row in rows],
            "servers": [{
                "instance": s.name,
                "accelerator": s.accelerator.name if s.accelerator else None,
                "price_per_hour": s.price_per_hour,
            } for s in SERVERS.values()],
        }, indent=2), args.out)
        return 0
    _emit("\n".join([
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
    ]), args.out)
    return 0


def _cmd_shard_bench(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .placement.bench import run_sharding_bench

    overrides = {}
    if args.uploads is not None:
        overrides["num_uploads"] = args.uploads
    if args.users is not None:
        overrides["num_users"] = args.users
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    result = run_sharding_bench(seed=args.seed, overrides=overrides or None)
    if args.format == "json":
        _emit(json.dumps(result, indent=2), args.out)
        return 0
    placement = result["placement"]
    fanout = result["fanout"]
    migration = result["migration"]
    tables = [
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
    ]
    _emit("\n\n".join(tables), args.out)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .serving.bench import run_serving_comparison
    from .serving.config import ServingConfig

    config = ServingConfig(replicas=args.replicas, slo_s=args.slo)
    result = run_serving_comparison(
        seed=args.seed, num_requests=args.requests, rate_rps=args.rate,
        config=config,
    )
    if args.format == "json":
        _emit(json.dumps(result, indent=2), args.out)
        return 0
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
    _emit(format_table(
        ["frontend", "offered", "completed", "shed", "rps",
         "p50 (ms)", "p99 (ms)", "mean batch"],
        rows,
        title=(f"serve-bench @ {args.rate:.0f} rps, "
               f"budget {result['latency_budget_s'] * 1e3:.0f} ms "
               f"-> {result['speedup']:.2f}x throughput"),
    ), args.out)
    return 0


def _cmd_serve_stream(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
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
    if args.format == "json":
        _emit(json.dumps(result, indent=2), args.out)
        return 0
    s = result["streaming"]

    def row(name: str, r: dict) -> list:
        return [name, r["offered"], r["completed"],
                r["cancelled"] + r["expired"], r["queue_full"],
                f"{r['throughput_rps']:.0f}",
                f"{r['p50_latency_s'] * 1e3:.1f}",
                f"{r['p99_latency_s'] * 1e3:.1f}",
                f"{r['mean_batch']:.1f}"]

    rows = [row("streaming", s), row("sync", result["sync"])]
    _emit("\n".join([
        format_table(
            ["frontend", "offered", "completed", "late/expired",
             "queue_full", "rps", "p50 (ms)", "p99 (ms)", "mean batch"],
            rows,
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
    ]), args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import TOPICS, render

    _emit(render(TOPICS if args.all else [args.topic]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .report import TOPICS

    parser = argparse.ArgumentParser(
        prog="repro", description="NDPipe reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run APO (Algorithm 1)")
    plan.add_argument("--model", default="ResNet50")
    plan.add_argument("--accelerator", choices=("t4", "inferentia"),
                      default="t4")
    plan.add_argument("--gbps", type=float, default=10.0)
    plan.add_argument("--max-stores", type=int, default=20)
    plan.add_argument("--images", type=int, default=1_200_000)
    plan.add_argument("--runs", type=int, default=3)
    _add_common_flags(plan)
    plan.set_defaults(func=_cmd_plan)

    figures = sub.add_parser("figures",
                             help="regenerate simulator-backed figures")
    _add_common_flags(figures)
    figures.set_defaults(func=_cmd_figures)

    demo = sub.add_parser("demo", help="run the tiny-cluster lifecycle")
    _add_stores_flag(demo)
    demo.add_argument("--photos", type=int, default=90)
    _add_common_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    metrics = sub.add_parser(
        "metrics",
        help="run the lifecycle and export cluster metrics")
    _add_stores_flag(metrics)
    metrics.add_argument("--photos", type=int, default=48)
    _add_common_flags(metrics, formats=("prometheus", "json"),
                      default_format="prometheus")
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace",
        help="run the lifecycle and export a chrome://tracing JSON")
    _add_stores_flag(trace)
    trace.add_argument("--photos", type=int, default=48)
    _add_common_flags(trace, formats=("json",), default_format="json")
    trace.set_defaults(func=_cmd_trace)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run the lifecycle and write a durable checkpoint blob")
    _add_stores_flag(checkpoint)
    checkpoint.add_argument("--photos", type=int, default=48)
    checkpoint.add_argument("--runs", type=int, default=3)
    checkpoint.add_argument("--replication", type=int, default=1)
    checkpoint.add_argument(
        "--at-run", type=int, default=None,
        help="write the mid-fine-tune checkpoint taken after this run "
             "(default: the final post-lifecycle state)")
    _add_common_flags(checkpoint, out_default="ndpipe.ndcp",
                      out_help="checkpoint file to write")
    checkpoint.set_defaults(func=_cmd_checkpoint)

    resume = sub.add_parser(
        "resume",
        help="restore a checkpoint and finish any pending fine-tune")
    resume.add_argument("ckpt", help="checkpoint file written by 'checkpoint'")
    _add_common_flags(resume)
    resume.set_defaults(func=_cmd_resume)

    nemesis = sub.add_parser(
        "nemesis",
        help="run a seeded chaos schedule and check HA invariants")
    nemesis.add_argument("--steps", type=int, default=8,
                         help="lifecycle actions to interleave (default 8)")
    _add_stores_flag(nemesis, at_least=2)  # it crashes one and goes on
    nemesis.add_argument("--photos", type=int, default=4,
                         help="photos per ingest/serve step (default 4)")
    _add_common_flags(
        nemesis, out_help="write the event log / summary to a file "
                          "(use --format json for the CI artifact)")
    nemesis.set_defaults(func=_cmd_nemesis)

    catalog = sub.add_parser("catalog", help="dump the hardware catalog")
    _add_common_flags(catalog)
    catalog.set_defaults(func=_cmd_catalog)

    validate = sub.add_parser(
        "validate", help="check the catalog against the paper's anchors")
    _add_common_flags(validate, formats=("text",))
    validate.set_defaults(func=_cmd_validate)

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark adaptive micro-batching vs the batch=1 baseline")
    serve.add_argument("--requests", type=int, default=800,
                       help="requests in the Poisson trace (default 800)")
    serve.add_argument("--rate", type=float, default=1500.0,
                       help="offered load in requests/s (default 1500)")
    serve.add_argument("--replicas", type=int, default=1)
    serve.add_argument("--slo", type=float, default=0.1,
                       help="latency SLO in seconds (default 0.1)")
    _add_common_flags(serve)
    serve.set_defaults(func=_cmd_serve_bench)

    serve_stream = sub.add_parser(
        "serve-stream",
        help="benchmark the streaming credit-window protocol vs the "
             "synchronous front end on a bursty trace")
    serve_stream.add_argument("--trace",
                              choices=("flash", "diurnal", "poisson"),
                              default="flash",
                              help="arrival-trace shape (default flash)")
    serve_stream.add_argument("--requests", type=int, default=800,
                              help="requests in the trace (default 800)")
    serve_stream.add_argument("--replicas", type=int, default=1,
                              help="starting (and minimum) replica count")
    serve_stream.add_argument("--max-replicas", type=int, default=6,
                              help="autoscaler ceiling (default 6)")
    serve_stream.add_argument("--credits", type=int, default=256,
                              help="client send-credit window (default 256)")
    serve_stream.add_argument("--slo", type=float, default=0.1,
                              help="latency SLO in seconds (default 0.1)")
    serve_stream.add_argument("--deadline", type=float, default=1.0,
                              help="per-request deadline in seconds "
                                   "(default 1.0)")
    serve_stream.add_argument("--no-autoscale", action="store_true",
                              help="pin the replica set (no elasticity)")
    _add_common_flags(serve_stream)
    serve_stream.set_defaults(func=_cmd_serve_stream)

    shard = sub.add_parser(
        "shard-bench",
        help="benchmark the sharded fleet: ring placement at population "
             "scale, fan-out vs unicast distribution, live rebalance")
    shard.add_argument("--uploads", type=int, default=None,
                       help="trace length (default 200000)")
    shard.add_argument("--users", type=int, default=None,
                       help="simulated user population (default 1000000)")
    shard.add_argument("--shards", type=int, default=None,
                       help="fleet size (default 8)")
    _add_common_flags(shard)
    shard.set_defaults(func=_cmd_shard_bench)

    perf = sub.add_parser(
        "perf",
        help="run the perf-trajectory harness; --check gates against the "
             "committed baselines, --bless re-records them")
    perf.add_argument("--scenario", action="append",
                      choices=("ingest", "finetune", "relabel", "serving",
                               "serving_stream", "sharding"),
                      help="scenario to run (repeatable; default: all six)")
    perf.add_argument("--scale", choices=("smoke", "fast", "paper"),
                      default="smoke",
                      help="harness size (default smoke — the scale the "
                           "committed baselines are recorded at)")
    perf.add_argument("--check", action="store_true",
                      help="gate the fresh results against the baselines; "
                           "exit 1 on regression, 2 on invalid comparison")
    perf.add_argument("--attempts", type=_at_least(1), default=3,
                      help="with --check, a regression must reproduce in "
                           "this many fresh runs to fail the gate "
                           "(default 3; bursty machine noise is not a "
                           "regression)")
    perf.add_argument("--bless", action="store_true",
                      help="write the fresh results over the committed "
                           "baselines (the intentional-change workflow)")
    perf.add_argument("--tolerance", type=float, default=0.15,
                      help="allowed relative drift for directional metrics "
                           "(default 0.15; 'exact' metrics get none)")
    perf.add_argument("--out-dir", default=None,
                      help="directory for the fresh BENCH_*.json files "
                           "(default: the baseline dir when blessing, a "
                           "temp dir otherwise)")
    perf.add_argument("--baseline-dir", default="benchmarks/results",
                      help="committed baseline directory "
                           "(default benchmarks/results)")
    _add_common_flags(perf)
    perf.set_defaults(func=_cmd_perf)

    lint = sub.add_parser(
        "lint", help="run the ndlint invariant rules; nonzero on findings")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--update-manifest", action="store_true",
                      help="regenerate obs/METRICS.md before linting")
    lint.add_argument("--check-manifests", action="store_true",
                      help="fail when obs/METRICS.md is stale")
    _add_common_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    report = sub.add_parser(
        "report", help="print the numbers CI puts in its job summary "
                       "(Markdown), for one topic or --all")
    which = report.add_mutually_exclusive_group(required=True)
    which.add_argument("topic", nargs="?", choices=list(TOPICS))
    which.add_argument("--all", action="store_true",
                       help="every topic, in table order")
    _add_common_flags(report, formats=("markdown",),
                      default_format="markdown")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
