"""FindBestPoint: partition-point evaluation for FT-DMP fine-tuning (§5.3).

Given a model graph, the PipeStore and Tuner accelerator specs, the network
bandwidth, and the number of participating PipeStores, this module predicts
for every partitionable cut:

* the Store-stage time (NPE-pipelined: disk -> decompress -> FE),
* the feature-transfer time through the Tuner's NIC,
* the Tuner-stage time (training the remaining stages),
* the weight-synchronisation time if trainable layers were offloaded
  (the +FC pathology of Fig. 9),

and picks the cut minimising estimated training time.  This is the
``FindBestPoint()`` subroutine of Algorithm 1; :mod:`repro.core.apo` loops
it over PipeStore counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..models.graph import ModelGraph, PartitionPoint
from ..sim.specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    AcceleratorSpec,
    CpuSpec,
    DiskSpec,
    NetworkSpec,
    ST1_RAID,
    STORAGE_CPU,
)


@dataclass(frozen=True)
class FinetunePlanConfig:
    """Operating parameters of one fine-tuning job."""

    dataset_images: int = 1_200_000
    #: per-PipeStore feature-extraction batch (paper trains at 512)
    batch_size: int = 512
    #: pipelined FT-DMP run count (§5.2); 1 = unpipelined
    num_runs: int = 3
    #: epochs the Tuner trains over the (cached) features
    tuner_epochs: int = 1
    #: CPU cores each PipeStore may spend on decompression (§5.4)
    decompress_cores: int = 2

    def __post_init__(self):
        if self.dataset_images <= 0:
            raise ValueError("dataset_images must be positive")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.num_runs > self.dataset_images:
            raise ValueError("more pipeline runs than images")


@dataclass(frozen=True)
class PartitionEvaluation:
    """Predicted behaviour of fine-tuning at one cut point."""

    point: PartitionPoint
    num_pipestores: int
    #: aggregate Store-stage throughput (images/s across all PipeStores)
    store_rate_ips: float
    #: feature-transfer capacity through the Tuner NIC (images/s)
    transfer_rate_ips: float
    #: Tuner-stage training throughput (images/s)
    tuner_rate_ips: float
    #: end-to-end training time including pipelining (seconds)
    training_time_s: float
    #: Store-stage time if it ran alone (seconds)
    store_time_s: float
    #: Tuner-stage time if it ran alone (seconds)
    tuner_time_s: float
    #: feature bytes shipped over the network for the whole job
    feature_traffic_bytes: float
    #: weight-synchronisation bytes (non-zero only past the classifier)
    sync_traffic_bytes: float
    #: extra seconds spent synchronising weights
    sync_time_s: float

    @property
    def stage_imbalance_s(self) -> float:
        """|T_ps - T_tuner| — what Algorithm 1 minimises across store counts."""
        return abs(self.store_time_s - self.tuner_time_s)


def store_stage_rate(graph: ModelGraph, split: int, accelerator: AcceleratorSpec,
                     config: FinetunePlanConfig,
                     disk: DiskSpec = ST1_RAID,
                     cpu: CpuSpec = STORAGE_CPU) -> float:
    """One PipeStore's NPE-pipelined feature-extraction rate (images/s).

    The 3-stage NPE pipeline (§5.4) overlaps disk reads of compressed
    preprocessed binaries, CPU decompression, and accelerator FE, so the
    rate is the bottleneck stage.
    """
    read_rate = disk.read_ips(COMPRESSED_PREPROCESSED_BYTES)
    decompress_rate = cpu.decompress_ips(
        config.decompress_cores, COMPRESSED_PREPROCESSED_BYTES
    )
    fe_rate = accelerator.fe_ips(graph, split, config.batch_size, training=True)
    return min(read_rate, decompress_rate, fe_rate)


def pipelined_time(store_time: float, tuner_time: float, num_runs: int) -> float:
    """Makespan of the §5.2 two-stage pipeline split into ``num_runs`` runs.

    Run boundaries synchronise the stages, so with per-run times
    ``s = store_time / R`` and ``t = tuner_time / R``::

        T = s + (R - 1) * max(s, t) + t

    ``R = 1`` degenerates to the unpipelined serial sum (Fig. 10a).
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    per_store = store_time / num_runs
    per_tuner = tuner_time / num_runs
    return per_store + (num_runs - 1) * max(per_store, per_tuner) + per_tuner


def evaluate_partition(graph: ModelGraph, split: int, num_pipestores: int,
                       store_accel: AcceleratorSpec,
                       tuner_accel: AcceleratorSpec,
                       network: NetworkSpec,
                       config: Optional[FinetunePlanConfig] = None,
                       tuner_gpus: int = 1) -> PartitionEvaluation:
    """Predict fine-tuning behaviour with ``split`` stages on PipeStores."""
    config = config or FinetunePlanConfig()
    if num_pipestores < 1:
        raise ValueError("need at least one PipeStore")
    if tuner_gpus < 1:
        raise ValueError("the Tuner needs at least one GPU")
    point = graph.partition_point(split)
    images = config.dataset_images

    per_store = store_stage_rate(graph, split, store_accel, config)
    aggregate_store = per_store * num_pipestores
    transfer_rate = network.transfer_ips(point.feature_bytes)
    # the Store stage and the feature stream into the Tuner overlap; the
    # slower of the two feeds the Tuner
    supply_rate = min(aggregate_store, transfer_rate)
    tuner_rate = tuner_gpus * tuner_accel.tail_train_ips(graph, split)

    store_time = images / supply_rate
    tuner_time = config.tuner_epochs * images / tuner_rate

    feature_traffic = float(images) * point.feature_bytes

    # weight sync: parameter-server rounds whenever trainable layers run on
    # PipeStores.  The global batch is fixed, so every store ships
    # up-gradients and receives down-weights each iteration — total sync
    # traffic grows linearly with the store count, exactly the §4.1
    # scaling pathology.
    sync_traffic = 0.0
    sync_time = 0.0
    if point.sync_bytes:
        iterations = images / config.batch_size
        sync_traffic = iterations * 2.0 * point.sync_bytes * num_pipestores
        sync_time = network.transfer_time(sync_traffic)

    total_time = pipelined_time(store_time, tuner_time, config.num_runs) + sync_time
    return PartitionEvaluation(
        point=point,
        num_pipestores=num_pipestores,
        store_rate_ips=aggregate_store,
        transfer_rate_ips=transfer_rate,
        tuner_rate_ips=tuner_rate,
        training_time_s=total_time,
        store_time_s=store_time,
        tuner_time_s=tuner_time,
        feature_traffic_bytes=feature_traffic,
        sync_traffic_bytes=sync_traffic,
        sync_time_s=sync_time,
    )


def find_best_point(graph: ModelGraph, num_pipestores: int,
                    store_accel: AcceleratorSpec,
                    tuner_accel: AcceleratorSpec,
                    network: NetworkSpec,
                    config: Optional[FinetunePlanConfig] = None,
                    tuner_gpus: int = 1) -> PartitionEvaluation:
    """The paper's ``FindBestPoint``: the cut with the shortest training time.

    Cuts that offload trainable layers are admissible candidates (the
    algorithm evaluates them) but lose on sync cost; to 'prevent weight
    synchronization among the PipeStores, the trainable layer is assigned
    to the Tuner' — which the cost model enforces naturally.
    """
    evaluations = evaluate_all_points(
        graph, num_pipestores, store_accel, tuner_accel, network, config,
        tuner_gpus,
    )
    return min(evaluations, key=lambda e: e.training_time_s)


def evaluate_all_points(graph: ModelGraph, num_pipestores: int,
                        store_accel: AcceleratorSpec,
                        tuner_accel: AcceleratorSpec,
                        network: NetworkSpec,
                        config: Optional[FinetunePlanConfig] = None,
                        tuner_gpus: int = 1) -> List[PartitionEvaluation]:
    """Evaluate every partitionable cut (the Fig. 9 sweep)."""
    return [
        evaluate_partition(graph, split, num_pipestores, store_accel,
                           tuner_accel, network, config, tuner_gpus)
        for split in range(graph.num_partition_points())
    ]
