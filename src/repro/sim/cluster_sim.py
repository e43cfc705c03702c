"""Event-driven NDPipe cluster simulation.

The figure drivers use closed-form pipeline models; this module runs the
same fleets on the discrete-event kernel with explicit resources — per
PipeStore a disk, a 2-core decompression pool, and an accelerator; a
shared front-end link into the Tuner; the Tuner's GPU — with genuine
queueing, batching, pipeline fill/drain, and run-boundary barriers.

Property tests assert the DES results converge to the analytic models
(`tests/sim/test_cluster_sim.py`), which is the strongest evidence the
closed forms used throughout the figure drivers are right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..models.graph import ModelGraph
from .engine import Event, Simulation, Store, all_of
from .resources import AcceleratorResource, CpuPool, DiskResource, LinkResource
from .specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    G4DN_4XLARGE,
    P3_2XLARGE,
    NetworkSpec,
    ServerSpec,
    TEN_GBE,
)

_DECOMPRESS_CORES = 2


@dataclass(frozen=True)
class ClusterSimResult:
    """Outcome of one simulated campaign."""

    makespan_s: float
    images: int
    feature_bytes: int
    #: resource-name -> busy fraction over the makespan; lets the APO
    #: balance story (§5.3) be checked directly: at the APO pick the
    #: Tuner GPU and store accelerators are near-equally utilised
    utilization: Dict[str, float] = None

    @property
    def throughput_ips(self) -> float:
        return self.images / self.makespan_s

    def utilization_of(self, prefix: str) -> float:
        """Mean utilisation across resources whose name starts with prefix."""
        if not self.utilization:
            raise ValueError("no utilisation was recorded")
        values = [v for k, v in self.utilization.items()
                  if k.startswith(prefix)]
        if not values:
            raise KeyError(f"no resource matches prefix {prefix!r}")
        return sum(values) / len(values)


@dataclass(frozen=True)
class _Batch:
    run: int
    size: int
    #: None = whole-model inference; otherwise FE through `split` stages
    split: "int | None" = None
    #: ship the extracted features over the Tuner link
    ship_features: bool = False
    #: which logical job this batch belongs to ("inference" / "finetune")
    job: str = "finetune"


class _StoreNode:
    """One PipeStore's resources plus its NPE stage pipeline.

    Stages (disk read -> decompress x2 cores -> accelerator -> optional
    link send) are independent processes joined by bounded queues, so
    they overlap exactly like the real NPE (§5.4).
    """

    def __init__(self, sim: Simulation, server: ServerSpec, name: str,
                 queue_depth: int):
        self.sim = sim
        self.name = name
        self.disk = DiskResource(sim, server.disk, name=f"{name}-disk")
        self.cpu = CpuPool(sim, server.cpu, cores=_DECOMPRESS_CORES,
                           name=f"{name}-cpu")
        self.accelerator = AcceleratorResource(sim, server.accelerator,
                                               name=f"{name}-accel")
        self.q_read = Store(sim, capacity=queue_depth)
        self.q_cpu = Store(sim, capacity=queue_depth)

    def start(self, graph: ModelGraph, batches: List[_Batch], link,
              on_batch_done) -> Event:
        """Launch the stage processes; returns the last stage's Process.

        Each batch carries its own job shape: whole-model inference
        (``split is None``) or feature extraction through ``batch.split``
        (optionally shipping the activations over ``link``).
        """
        sim = self.sim

        def reader():
            for batch in batches:
                yield from self.disk.read(
                    COMPRESSED_PREPROCESSED_BYTES * batch.size)
                yield self.q_read.put(batch)

        def decompress_worker():
            while True:
                batch = yield self.q_read.get()
                yield from self.cpu.decompress(
                    COMPRESSED_PREPROCESSED_BYTES * batch.size)
                yield self.q_cpu.put(batch)

        def accelerator_stage():
            for _ in range(len(batches)):
                batch = yield self.q_cpu.get()
                if batch.split is None:
                    yield from self.accelerator.infer_batch(graph, batch.size)
                else:
                    yield from self.accelerator.extract_batch(
                        graph, batch.split, batch.size)
                if batch.ship_features and link is not None:
                    feature_bytes = graph.partition_point(
                        batch.split).feature_bytes
                    yield from link.transfer(feature_bytes * batch.size)
                on_batch_done(batch)

        sim.process(reader())
        for _ in range(_DECOMPRESS_CORES):
            sim.process(decompress_worker())
        return sim.process(accelerator_stage())


def _collect_utilization(nodes: List["_StoreNode"], sim: Simulation,
                         ) -> Dict[str, float]:
    utilization: Dict[str, float] = {}
    for node in nodes:
        utilization[node.disk.name] = node.disk.utilization(sim.now)
        utilization[node.cpu.name] = node.cpu.utilization(sim.now)
        utilization[node.accelerator.name] = node.accelerator.utilization(sim.now)
    return utilization


def _plan_batches(images: int, batch_size: int, run: int = 0,
                  split=None, ship_features: bool = False,
                  job: str = "finetune") -> List[_Batch]:
    batches = []
    remaining = images
    while remaining > 0:
        size = min(batch_size, remaining)
        batches.append(_Batch(run=run, size=size, split=split,
                              ship_features=ship_features, job=job))
        remaining -= size
    return batches


def _interleave(a: List[_Batch], b: List[_Batch]) -> List[_Batch]:
    """Round-robin merge of two batch streams (fair sharing at the NPE)."""
    merged: List[_Batch] = []
    for i in range(max(len(a), len(b))):
        if i < len(a):
            merged.append(a[i])
        if i < len(b):
            merged.append(b[i])
    return merged


def _shard(total: int, parts: int) -> List[int]:
    base = total // parts
    shares = [base] * parts
    for i in range(total - base * parts):
        shares[i] += 1
    return shares


def simulate_offline_inference(graph: ModelGraph, num_stores: int,
                               images: int, batch_size: int = 128,
                               store_server: ServerSpec = G4DN_4XLARGE,
                               queue_depth: int = 4,
                               failed_stores: int = 0) -> ClusterSimResult:
    """DES run of an offline-inference campaign across PipeStores.

    ``failed_stores`` models a degraded fleet: that many stores are down
    and their shards are re-sharded over the survivors (what the cluster's
    re-ingest path does), so the campaign still covers every image at the
    cost of a longer makespan.
    """
    if num_stores < 1 or images < 1:
        raise ValueError("need at least one store and one image")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0 <= failed_stores < num_stores:
        raise ValueError("failed_stores must leave at least one survivor")
    survivors = num_stores - failed_stores
    sim = Simulation()
    finishers = []
    nodes = []
    for index, shard in enumerate(_shard(images, survivors)):
        if shard == 0:
            continue
        node = _StoreNode(sim, store_server, f"store{index}", queue_depth)
        nodes.append(node)
        finishers.append(node.start(
            graph,
            _plan_batches(shard, batch_size, split=None, job="inference"),
            link=None, on_batch_done=lambda b: None,
        ))
    sim.run_until_complete(all_of(sim, finishers))
    return ClusterSimResult(makespan_s=sim.now, images=images,
                            feature_bytes=0,
                            utilization=_collect_utilization(nodes, sim))


def simulate_ftdmp_finetune(graph: ModelGraph, num_stores: int, images: int,
                            num_runs: int = 1, batch_size: int = 512,
                            tuner_epochs: int = 1,
                            store_server: ServerSpec = G4DN_4XLARGE,
                            tuner_server: ServerSpec = P3_2XLARGE,
                            network: NetworkSpec = TEN_GBE,
                            queue_depth: int = 4) -> ClusterSimResult:
    """DES run of (optionally pipelined) FT-DMP fine-tuning.

    PipeStores stream through all runs back to back; the Tuner trains a
    run's classifier only after every store has shipped that run's
    features (the Fig. 10 barrier), overlapping with extraction of the
    next run.
    """
    if num_stores < 1 or images < 1:
        raise ValueError("need at least one store and one image")
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sim = Simulation()
    split = graph.num_partition_points() - 2
    feature_bytes = graph.partition_point(split).feature_bytes
    link = LinkResource(sim, network, name="tuner-link")
    tuner_gpu = AcceleratorResource(sim, tuner_server.accelerator,
                                    name="tuner-gpu")
    tuner_rate = tuner_server.accelerator.tail_train_ips(graph, split)

    run_sizes = _shard(images, num_runs)
    # how many batches each run expects across the whole fleet
    expected: Dict[int, int] = {}
    per_store_batches: List[List[_Batch]] = [[] for _ in range(num_stores)]
    for run_index, run_images in enumerate(run_sizes):
        for store_index, shard in enumerate(_shard(run_images, num_stores)):
            batches = _plan_batches(shard, batch_size, run=run_index,
                                    split=split, ship_features=True)
            per_store_batches[store_index].extend(batches)
            expected[run_index] = expected.get(run_index, 0) + len(batches)

    run_done = [sim.event() for _ in range(num_runs)]
    arrived: Dict[int, int] = {k: 0 for k in range(num_runs)}

    def on_batch_done(batch: _Batch) -> None:
        arrived[batch.run] += 1
        if arrived[batch.run] == expected[batch.run]:
            run_done[batch.run].trigger()

    nodes = []
    for store_index in range(num_stores):
        batches = per_store_batches[store_index]
        if not batches:
            continue
        node = _StoreNode(sim, store_server, f"store{store_index}",
                          queue_depth)
        nodes.append(node)
        node.start(graph, batches, link=link, on_batch_done=on_batch_done)

    def tuner_process():
        for run_index, run_images in enumerate(run_sizes):
            if expected.get(run_index, 0) == 0:
                continue
            yield run_done[run_index]
            service = tuner_epochs * run_images / tuner_rate
            yield from tuner_gpu.use(service)

    finish = sim.process(tuner_process())
    sim.run_until_complete(finish)
    utilization = _collect_utilization(nodes, sim)
    utilization["tuner-gpu"] = tuner_gpu.utilization(sim.now)
    utilization["tuner-link"] = link.utilization(sim.now)
    return ClusterSimResult(makespan_s=sim.now, images=images,
                            feature_bytes=feature_bytes * images,
                            utilization=utilization)


@dataclass(frozen=True)
class MixedWorkloadResult:
    """Per-job outcomes when inference and fine-tuning share the fleet."""

    inference: ClusterSimResult
    finetune: ClusterSimResult
    #: per-job makespans when each job had the fleet to itself
    inference_solo_s: float
    finetune_solo_s: float

    @property
    def inference_slowdown(self) -> float:
        return self.inference.makespan_s / self.inference_solo_s

    @property
    def finetune_slowdown(self) -> float:
        return self.finetune.makespan_s / self.finetune_solo_s


def simulate_mixed_workload(graph: ModelGraph, num_stores: int,
                            inference_images: int, finetune_images: int,
                            batch_size: int = 128,
                            finetune_batch_size: int = 512,
                            tuner_epochs: int = 1,
                            store_server: ServerSpec = G4DN_4XLARGE,
                            tuner_server: ServerSpec = P3_2XLARGE,
                            network: NetworkSpec = TEN_GBE,
                            queue_depth: int = 4) -> MixedWorkloadResult:
    """Offline inference and FT-DMP fine-tuning contending for one fleet.

    The paper's PipeStore runs both near-data jobs on the same hardware
    (§5); when a relabelling campaign overlaps a continuous-training round
    they contend for every store's disk, CPU pool, and accelerator.  Both
    jobs start at t = 0, their batch streams interleave fairly at each
    store's NPE, and the per-job makespans are reported next to what each
    job would have taken alone.
    """
    if num_stores < 1:
        raise ValueError("need at least one PipeStore")
    if inference_images < 1 or finetune_images < 1:
        raise ValueError("both workloads need at least one image")
    sim = Simulation()
    split = graph.num_partition_points() - 2
    feature_bytes = graph.partition_point(split).feature_bytes
    link = LinkResource(sim, network, name="tuner-link")
    tuner_gpu = AcceleratorResource(sim, tuner_server.accelerator,
                                    name="tuner-gpu")
    tuner_rate = tuner_server.accelerator.tail_train_ips(graph, split)

    nodes = []
    job_last_done = {"inference": 0.0, "finetune": 0.0}
    job_remaining = {"inference": 0, "finetune": 0}
    ft_features_done = sim.event()

    plans = []
    for inf_shard, ft_shard in zip(_shard(inference_images, num_stores),
                                   _shard(finetune_images, num_stores)):
        inf_batches = _plan_batches(inf_shard, batch_size, split=None,
                                    job="inference")
        ft_batches = _plan_batches(ft_shard, finetune_batch_size,
                                   split=split, ship_features=True,
                                   job="finetune")
        job_remaining["inference"] += len(inf_batches)
        job_remaining["finetune"] += len(ft_batches)
        plans.append(_interleave(inf_batches, ft_batches))

    def on_batch_done(batch: _Batch) -> None:
        job_remaining[batch.job] -= 1
        job_last_done[batch.job] = sim.now
        if batch.job == "finetune" and job_remaining["finetune"] == 0:
            ft_features_done.trigger()

    for index, batches in enumerate(plans):
        if not batches:
            continue
        node = _StoreNode(sim, store_server, f"store{index}", queue_depth)
        nodes.append(node)
        node.start(graph, batches, link=link, on_batch_done=on_batch_done)

    def tuner_process():
        yield ft_features_done
        yield from tuner_gpu.use(tuner_epochs * finetune_images / tuner_rate)

    finish = sim.process(tuner_process())
    sim.run_until_complete(finish)
    ft_makespan = sim.now
    utilization = _collect_utilization(nodes, sim)
    utilization["tuner-gpu"] = tuner_gpu.utilization(sim.now)
    utilization["tuner-link"] = link.utilization(sim.now)

    inference_result = ClusterSimResult(
        makespan_s=job_last_done["inference"], images=inference_images,
        feature_bytes=0, utilization=utilization,
    )
    finetune_result = ClusterSimResult(
        makespan_s=ft_makespan, images=finetune_images,
        feature_bytes=feature_bytes * finetune_images,
        utilization=utilization,
    )
    solo_inf = simulate_offline_inference(
        graph, num_stores, inference_images, batch_size, store_server,
        queue_depth).makespan_s
    solo_ft = simulate_ftdmp_finetune(
        graph, num_stores, finetune_images, 1, finetune_batch_size,
        tuner_epochs, store_server, tuner_server, network,
        queue_depth).makespan_s
    return MixedWorkloadResult(
        inference=inference_result, finetune=finetune_result,
        inference_solo_s=solo_inf, finetune_solo_s=solo_ft,
    )
