"""``repro report <topic>``: the numbers CI writes into its job summary.

Each topic builds its own small cluster, fleet or sample and prints what
the system itself reports about it: fabric bytes, fine-tune reports,
Check-N-Run distribution stats, store contents, wall time of a public
call.  A topic patches nothing, so what it prints is what any
caller of the package sees, and it asserts nothing: the contracts behind
these numbers are tier-1 tests (``tests/test_report.py`` runs every
topic).  Topics print Markdown (a ``###`` header per topic, its lines
fenced), so ``repro report --all >> "$GITHUB_STEP_SUMMARY"`` is the whole
CI step.
"""

from __future__ import annotations

import statistics
import zlib
from functools import partial
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from .core import ClusterConfig, NDPipeCluster
from .core.checknrun import (
    FEATURE_BITS,
    FINGERPRINT_BYTES,
    LIVE_DELTA_BITS,
    encode_delta,
    state_dict_bytes,
)
from .data import DriftingPhotoWorld, WorldConfig
from .models.registry import tiny_model
from .obs.tracing import wall_clock
from .placement import ShardConfig, ShardedCluster, TenantConfig

__all__ = ["TOPICS", "render", "instrument_cost"]

#: topic name -> (summary header, body lines)
TOPICS: Dict[str, Tuple[str, Callable[[], List[str]]]] = {}


def _topic(name: str, header: str):
    def register(body: Callable[[], List[str]]):
        TOPICS[name] = (header, body)
        return body
    return register


def render(names: Iterable[str]) -> str:
    """Each topic's header and its fenced lines, in the order given."""
    out = []
    for name in names:
        header, body = TOPICS[name]
        out += [f"### {header}", "```", *body(), "```"]
    return "\n".join(out)


def _photos(count: int):
    return DriftingPhotoWorld(WorldConfig()).sample(
        count, 0, rng=np.random.default_rng(0))


def _fleet(factory=lambda: tiny_model("ResNet50")) -> ShardedCluster:
    return ShardedCluster(factory, ShardConfig(num_shards=4, replication=2),
                          tenants=[TenantConfig(name="acme")])


def _best_of(repeats: int, call: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = wall_clock()
        call()
        best = min(best, wall_clock() - begin)
    return best


@_topic("eval-forward", "Compiled eval forward, ResNet50-tiny: us per image")
def _eval_forward() -> List[str]:
    from .nn.tensor import Tensor, inference_mode

    model = tiny_model("ResNet50").eval()
    rng = np.random.default_rng(0)
    lines = []
    with inference_mode():
        for batch, repeats in ((1, 200), (64, 20)):
            x = Tensor(rng.random((batch,) + model.input_shape,
                                  dtype=np.float32))
            model(x)  # builds the folds
            samples = []
            for _ in range(repeats):
                begin = wall_clock()
                model(x)
                samples.append(wall_clock() - begin)
            lines.append(f"batch {batch:>2}: "
                         f"{1e6 * statistics.median(samples) / batch:8.1f} "
                         f"us/img  (median of {repeats})")
    return lines


@_topic("finetune-rounds", "Fine-tune rounds, 2 stores x 48 photos: feature "
        "rows shipped and held, store misses, Check-N-Run live deltas, "
        "replicas")
def _finetune_rounds() -> List[str]:
    cluster = NDPipeCluster(lambda: tiny_model("ResNet50"),
                            ClusterConfig(num_stores=2))
    x, y = _photos(48)
    cluster.ingest(x, train_labels=y)
    tuner = cluster.tuner
    lines = [f"{FEATURE_BITS}-bit feature rows, held on the Tuner once "
             f"received; {LIVE_DELTA_BITS}-bit error-fed live deltas; a "
             "store miss takes ingest's row (reused) or runs the front",
             f"{'round':>5s} {'shipped':>7s} {'held':>5s} {'held B':>7s} "
             f"{'features B':>10s} {'misses':>6s} {'reused':>6s} "
             f"{'front':>5s} {'exact B':>8s} {'live B':>7s} "
             f"{'x full':>7s} {'max|master-published|':>22s}  replicas"]

    def counted(name: str) -> int:
        return int(cluster.metrics.get(name).total())

    for index in range(1, 4):
        before = tuner.published
        features = cluster.network.bytes_of_kind("features")
        misses = counted("pipestore_feature_misses_total")
        reused = counted("pipestore_feature_rows_reused_total")
        report = cluster.finetune(epochs=2, num_runs=2)
        misses = counted("pipestore_feature_misses_total") - misses
        reused = counted("pipestore_feature_rows_reused_total") - reused
        master, published = tuner.model.state_dict(), tuner.published
        stats = tuner.distributions[-1]
        residual = max(float(np.abs(master[k] - published[k]).max())
                       for k in master)
        replicas = [s.model for s in cluster.stores] + [
            cluster.inference_server.model] + [
            r.model for r in cluster.make_serving_frontend().dispatcher.replicas]
        same = all(s.model_version == tuner.version for s in cluster.stores) \
            and all(all(m.state_dict()[k].tobytes() == v.tobytes()
                        for k, v in published.items()) for m in replicas)
        lines.append(
            f"{index:5d} {report.images_extracted - report.rows_held:7d} "
            f"{report.rows_held:5d} {tuner.rows.nbytes:7,d} "
            f"{cluster.network.bytes_of_kind('features') - features:10,d} "
            f"{misses:6d} {reused:6d} {misses - reused:5d} "
            f"{len(encode_delta(before, master)):8,d} "
            f"{stats.bytes_per_store:7,d} {stats.reduction_factor:7.1f} "
            f"{residual:22.3e}  {len(replicas)} "
            f"{'match' if same else 'DIFFER'}")
    return lines


@_topic("half-width-front", "Half-width frozen front: 2 stores + 1 "
        "other-base join x 48 photos, ingest + finetune + relabel")
def _half_width_front() -> List[str]:
    cluster = NDPipeCluster(lambda: tiny_model("ResNet50"),
                            ClusterConfig(num_stores=2))
    model, split = cluster.tuner.model, cluster.tuner.split
    state = model.state_dict()
    whole = state_dict_bytes(state)
    sync = FINGERPRINT_BYTES + state_dict_bytes(
        {key: value for key, value in state.items()
         if key.startswith(model.classifier_prefix)})
    installs = cluster.network.bytes_of_kind("model-full")
    cluster.join_store("pipestore-other-base",
                       base=tiny_model("ResNet50", seed=1))
    fallback = cluster.network.bytes_of_kind("model-full") - installs
    x, y = _photos(48)
    cluster.ingest(x, train_labels=y)
    cluster.finetune(epochs=1)
    cluster.offline_relabel(only_outdated=False)
    front = {str(a.dtype) for i in range(split)
             for a in model.stage(i).state_dict().values()}
    tail = {str(a.dtype) for a in model.classifier.state_dict().values()}
    replicas = [cluster.inference_server.model] + [
        s.model for s in cluster.stores]
    digests = {m.front.digest for m in [model] + replicas}
    differing = sum(any(m.state_dict()[key].tobytes() != value.tobytes()
                        for key, value in cluster.tuner.published.items())
                    for m in replicas)
    return [
        f"per install: tail + fingerprint {sync:,} B against the whole "
        f"state {whole:,} B ({whole / sync:.1f}x); model-full {installs:,} B "
        f"over 2 installs",
        f"join with other frozen stages: {fallback:,} B (a refused tail "
        f"sync, then the whole state)",
        f"front {sorted(front)}  tail {sorted(tail)}",
        f"{len(digests)} distinct front digest(s) across the Tuner, "
        f"{len(cluster.stores)} stores and the inference server; "
        f"{differing} replica(s) not holding the published state",
    ]


@_topic("fleet-roster", "Fleet roster: 4 shards x replication 2, one join, "
        "then the fault schedule crashes the newcomer")
def _fleet_roster() -> List[str]:
    from .faults import FaultInjector, StoreCrash
    from .ha import HAConfig

    fleet = ShardedCluster(lambda: tiny_model("ResNet50"),
                           ShardConfig(num_shards=4, replication=2))
    x, y = _photos(64)
    fleet.ingest(x, train_labels=y)
    newcomer = "pipestore-4"  # joins after the schedule and HA attach
    injector = FaultInjector([StoreCrash(at=80, store_id=newcomer)])
    injector.attach(fleet)
    ha = fleet.enable_ha(HAConfig(standby=False), injector=injector)
    summary = fleet.join_shard()
    joined = (f"joined {summary['shard']} at tick {injector.clock}: "
              f"{summary['copies']['objects_moved']} copies moved, "
              f"{len(fleet.database.ids_at(newcomer))} primaries")
    suspected = None
    while suspected is None and injector.clock < 200:
        if ("suspect", newcomer) in ha.poll():
            suspected = injector.clock
    promoted = fleet.cluster.metrics.get(
        "durability_replicas_promoted_total").total()
    moved = ha.metrics.orphans_reingested.value(store=newcomer)
    members = {
        "roster": len(fleet.stores),
        "ha": sum(1 for _, info in ha.members() if info["kind"] == "store"),
        "injector": len(injector.stores()),
        "ring": len(fleet.ring),
    }
    return [
        joined,
        f"crash fired at tick {injector.fired[0].at}, suspected at tick "
        f"{suspected}; {moved:.0f} photos moved: {promoted:.0f} promoted, "
        f"{moved - promoted:.0f} re-ingested",
        "members: " + "  ".join(f"{k} {v}" for k, v in members.items()),
    ]


@_topic("store-snapshot", "Checkpoint -> restore, 4 shards x 256 photos "
        "after one fine-tune round")
def _store_snapshot() -> List[str]:
    fleet = _fleet()
    x, y = _photos(256)
    fleet.ingest(x, tenant="acme", train_labels=y)
    fleet.finetune(epochs=1)
    blob = fleet.checkpoint()
    restores = [_fleet() for _ in range(3)]
    checkpoint_s = _best_of(3, fleet.checkpoint)
    restore_s = min(_best_of(1, lambda: fresh.restore(blob))
                    for fresh in restores)
    stored = sum(s.objects.volume.used_bytes for s in fleet.stores)
    return [
        f"checkpoint {checkpoint_s:.3f} s   restore {restore_s:.3f} s   "
        f"(best of 3)",
        f"{sum(len(s.objects) for s in fleet.stores)} objects, {stored:,} "
        f"stored bytes, checkpoint {len(blob):,} B",
    ]


@_topic("bytes-held", "Bytes held: a 4-shard fleet after one fine-tune "
        "round and the fleet restored from its checkpoint")
def _bytes_held() -> List[str]:
    builds = []

    def factory():
        builds.append(tiny_model("ResNet50"))
        return builds[-1]

    live = _fleet(factory)
    x, y = _photos(128)
    live.ingest(x, tenant="acme", train_labels=y)
    live.finetune(epochs=1)
    restored = _fleet(factory)
    restored.restore(live.checkpoint())
    lines = []
    for title, fleet in (("live fleet", live), ("restored fleet", restored)):
        # per namespace: nominal bytes accounted, payload bytes held (each
        # distinct bytes object once), objects
        spaces: Dict[str, list] = {}
        for store in fleet.stores:
            for key in store.objects.keys():
                # ndlint: allow[ND002] -- a census of what is held, not a workload read
                payload, nominal = store.objects.peek_payload(key)
                row = spaces.setdefault(key.split("/", 1)[0], [0, {}, 0])
                row[0] += nominal
                row[1][id(payload)] = len(payload)
                row[2] += 1
        lines.append(f"{title}: {len(fleet.stores)} stores")
        for space, (nominal, held, count) in sorted(spaces.items()):
            lines.append(
                f"  {space + '/':9s} accounted {nominal:>11,} B   held "
                f"{sum(held.values()):>10,} B   {len(held):>5} bytes objects "
                f"for {count:>5} objects")
        front = fleet.tuner.model.front
        models = [s.model for s in fleet.stores] + [
            fleet.tuner.model, fleet.inference_server.model]
        held = sum(array.nbytes for array in front.arrays.values())
        lines.append(
            f"  model     {len(models)} replicas + published: "
            f"{len({id(m.front) for m in models})} front value(s), "
            f"{sum(m.front is front for m in builds)} factory build(s); "
            f"frozen arrays held {held:,} B in {len(front.arrays)} buffers, "
            f"{held * (len(models) + 1):,} B as private copies")
    return lines


@_topic("codec-fit", "Codec fit: 256 sample photos, each payload's codec "
        "against what it replaced")
def _codec_fit() -> List[str]:
    import struct

    from .core.pipestore import StoredPhoto
    from .durability.checkpoint import pack_arrays
    from .storage import imageformat
    from .storage.compression import (FEATURE_ROWS, NOISE, WEIGHTS, Codec,
                                      compress_array, deflate, inflate)
    from .storage.persistence import dump_object_store, squeezed_segment

    x, y = _photos(256)
    # the front door, once: every payload below derives from these codes
    photos = [StoredPhoto(f"acme/photo-{i:08d}", codes)
              for i, codes in enumerate(imageformat.quantise(x))]
    head = struct.calcsize(imageformat._HEADER_FMT)

    def noise(p):
        return p.codes.tobytes()

    def derived(p):
        return imageformat.encode_preprocessed(
            imageformat.model_input(p.codes))

    def per_entry(ps):
        return pack_arrays({p.photo_id: p.codes for p in ps})

    def stacked(ps):
        return inflate(compress_array(np.stack([p.codes for p in ps])))

    # a 4-shard fleet over the sample after one fine-tune round: each
    # store snapshot's feat/ segment, inflated
    fleet = _fleet()
    fleet.ingest(x, tenant="acme", train_labels=y)
    fleet.finetune(epochs=1)
    segments = [inflate(squeezed_segment(dump_object_store(store.objects)))
                for store in fleet.stores]

    # payload: (what the landing/checkpoint path writes, [(what it
    # replaced, that encode, its input)], the items)
    rows = {
        "stand-in JPEG payload": (
            lambda p: imageformat.encode_photo(p.codes)[head:],
            [("level 6", lambda raw: zlib.compress(raw, 6), noise)], photos),
        "preproc/ (8-bit codes)": (
            # a fresh photo each time: a StoredPhoto encodes its blob once
            lambda p: StoredPhoto(p.photo_id, p.codes).preprocessed_blob(),
            [("fp32 level 6", lambda raw: deflate(raw, Codec(6)), derived)],
            photos),
        "journal (stacked)": (
            lambda ps: compress_array(np.stack([p.codes for p in ps])),
            [("level 9 per entry", lambda raw: deflate(raw, WEIGHTS),
              per_entry),
             ("Huffman-only", lambda raw: deflate(
                 raw, Codec(6, zlib.Z_HUFFMAN_ONLY)), stacked)], [photos]),
        "feat/ segment (Z_RLE)": (
            lambda rows: deflate(rows, FEATURE_ROWS),
            [("level 1", lambda rows: deflate(rows, Codec(1)), bytes),
             ("stored", lambda rows: deflate(rows, NOISE), bytes)],
            segments),
    }

    def timed(encode, items):
        sizes = [len(encode(item)) for item in items]
        wall = _best_of(5 if len(items) > 1 else 2,
                        lambda: [encode(item) for item in items])
        return 1e6 * wall / len(items), np.mean(sizes)

    lines = [f"{'payload':24s} {'blobs':>5s} {'us/blob':>9s} {'mean B':>10s}"
             f"   {'against':18s} {'us/blob':>9s} {'mean B':>10s}"]
    for name, (write, befores, items) in rows.items():
        us, size = timed(write, items)
        for label, before, raw_of in befores:
            us0, size0 = timed(before, [raw_of(item) for item in items])
            lines.append(f"{name:24s} {len(items):5d} {us:9.1f} {size:10.1f}"
                         f"   {label:18s} {us0:9.1f} {size0:10.1f}")
    return lines


def instrument_cost() -> List[Tuple[str, float, float]]:
    """ns per report through a family's spelling and through its bound
    child, for an unlabelled counter, a 3-label counter and a histogram
    of a fresh cluster's registry: ``[(instrument, family ns, child ns)]``.
    The two spellings are timed interleaved, 20 000 reports a timing,
    best of 7, so both see the same host."""
    reports = 20_000
    registry = NDPipeCluster(lambda: tiny_model("ResNet50"),
                             ClusterConfig(num_stores=1)).metrics
    plain = registry.get("cluster_photos_ingested_total")
    edges = registry.get("fabric_bytes_total")
    seconds = registry.get("ftdmp_store_stage_seconds")
    edge = dict(kind="ingest", src="inference-server", dst="pipestore-0")
    cases = [
        ("unlabelled counter", plain.inc, plain.labels().inc),
        ("3-label counter", partial(edges.inc, 1, **edge),
         partial(edges.labels(**edge).inc, 1)),
        ("histogram", partial(seconds.observe, 0.01),
         partial(seconds.labels().observe, 0.01)),
    ]
    out = []
    for name, family, child in cases:
        best = [float("inf")] * 2
        for _ in range(7):
            for side, report in enumerate((family, child)):
                begin = wall_clock()
                for _ in range(reports):
                    report()
                best[side] = min(best[side], wall_clock() - begin)
        out.append((name, 1e9 * best[0] / reports, 1e9 * best[1] / reports))
    return out


@_topic("instrument-cost", "Instrument cost: ns per report through the "
        "family spelling and through a bound child")
def _instrument_cost() -> List[str]:
    return [f"{'instrument':20s} {'family ns':>10s} {'bound ns':>10s}"] + [
        f"{name:20s} {family:10.0f} {child:10.0f}"
        for name, family, child in instrument_cost()]
