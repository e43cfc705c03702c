"""Comparison systems: SRV-I / SRV-P / SRV-C, Typical/Ideal, naive NDP.

These are the throughput-and-power operating points the paper plots NDPipe
against.  Each function composes pipeline stages from the hardware catalog
and returns a :class:`SystemPoint` (throughput, component power, fleet).

System definitions (§3.4, §6.2):

* **SRV-I** — host keeps preprocessed binaries locally; GPU-bound (ideal).
* **SRV-P** — host loads *uncompressed* preprocessed binaries from storage
  servers over the network.
* **SRV-C** — like SRV-P but deflate-compressed binaries, 8 host cores
  decompressing.
* **Typical / Ideal** — the §3.4 strawmen: same hardware as SRV but with
  *sequential* (unpipelined, unoptimised) stage execution.
* **naive NDP** — §4's strawman: entire fine-tuning on storage servers
  with per-iteration weight synchronisation; offline inference with 1
  preprocessing core per store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..models.graph import ModelGraph
from ..sim.pipeline import Stage, pipelined_throughput, sequential_throughput
from ..sim.power import PowerDraw, server_power, total_power
from ..sim.specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    G4DN_4XLARGE,
    G4DN_4XLARGE_NOGPU,
    LABEL_BYTES,
    P3_8XLARGE,
    PCIE,
    PREPROCESSED_BYTES,
    RAW_IMAGE_BYTES,
    NetworkSpec,
    ServerSpec,
    TEN_GBE,
)

SRV_VARIANTS = ("SRV-I", "SRV-P", "SRV-C")

#: storage servers behind the host in every SRV configuration (§3.4)
DEFAULT_NUM_STORAGE = 4
#: host cores dedicated to decompression in SRV-C (§6.2)
SRV_C_DECOMPRESS_CORES = 8


@dataclass(frozen=True)
class SystemPoint:
    """One system at one operating point."""

    name: str
    throughput_ips: float
    power: PowerDraw
    bottleneck: str
    #: bytes each image puts on the network (0: it never leaves the
    #: server that processes it)
    wire_bytes: int = 0

    @property
    def ips_per_watt(self) -> float:
        return self.throughput_ips / self.power.total_watts

    def time_for(self, images: int) -> float:
        return images / self.throughput_ips

    def energy_kj_for(self, images: int) -> float:
        return self.power.total_watts * self.time_for(images) / 1e3


# ---------------------------------------------------------------------------
# Offline inference
# ---------------------------------------------------------------------------
def srv_inference(variant: str, graph: ModelGraph,
                  network: NetworkSpec = TEN_GBE,
                  host: ServerSpec = P3_8XLARGE,
                  num_storage: int = DEFAULT_NUM_STORAGE,
                  batch_size: int = 128) -> SystemPoint:
    """Offline-inference operating point of an SRV variant (Fig. 13)."""
    if variant not in SRV_VARIANTS:
        raise ValueError(f"unknown SRV variant {variant!r}")
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.inference_ips(graph, batch_size)
    stages = [Stage("FE&Cl", gpu_rate)]
    decomp_cores = 0
    payload = 0
    if variant != "SRV-I":
        payload = (COMPRESSED_PREPROCESSED_BYTES if variant == "SRV-C"
                   else PREPROCESSED_BYTES)
        disk = G4DN_4XLARGE_NOGPU.disk
        stages.append(Stage("Read", num_storage * disk.read_ips(payload)))
        stages.append(Stage("Data Trans.", network.transfer_ips(payload)))
        if variant == "SRV-C":
            decomp_cores = SRV_C_DECOMPRESS_CORES
            stages.append(Stage("Decomp.", host.cpu.decompress_ips(
                decomp_cores, payload)))
    rate, bottleneck = pipelined_throughput(stages)

    gpu_util = min(1.0, rate / gpu_rate)
    draws = [server_power(host, gpu_util=gpu_util, active_cores=decomp_cores)]
    for _ in range(num_storage):
        # the photos live on these servers either way; disks keep spinning
        draws.append(server_power(G4DN_4XLARGE_NOGPU, active_cores=1,
                                  disk_active=True))
    return SystemPoint(variant, rate, total_power(draws), bottleneck,
                       payload)


def ndpipe_inference(graph: ModelGraph, num_stores: int,
                     store: ServerSpec = G4DN_4XLARGE,
                     batch_size: int = 128,
                     decompress_cores: int = 2) -> SystemPoint:
    """NDPipe offline inference: NPE-pipelined PipeStores, labels-only net."""
    if num_stores < 1:
        raise ValueError("need at least one PipeStore")
    accel = store.accelerator
    if not accel.fits_batch(graph, batch_size):
        raise MemoryError(
            f"{graph.name} at batch {batch_size} exceeds {accel.name} memory"
        )
    per_store_stages = [
        Stage("Read", store.disk.read_ips(COMPRESSED_PREPROCESSED_BYTES)),
        Stage("Decomp.", store.cpu.decompress_ips(
            decompress_cores, COMPRESSED_PREPROCESSED_BYTES)),
        Stage("FE&Cl", accel.inference_ips(graph, batch_size)),
    ]
    per_store_rate, bottleneck = pipelined_throughput(per_store_stages)
    rate = num_stores * per_store_rate

    gpu_util = min(1.0, per_store_rate /
                   accel.inference_ips(graph, batch_size))
    draw = server_power(store, gpu_util=gpu_util,
                        active_cores=decompress_cores,
                        disk_active=True).scaled(num_stores)
    return SystemPoint("NDPipe", rate, draw, bottleneck, LABEL_BYTES)


def inference_crossovers(graph: ModelGraph, max_stores: int = 20,
                         network: NetworkSpec = TEN_GBE,
                         store: ServerSpec = G4DN_4XLARGE,
                         ) -> Dict[str, Optional[int]]:
    """P1/P2/P3: fewest PipeStores matching SRV-P / SRV-C / SRV-I (Fig. 13)."""
    crossings: Dict[str, Optional[int]] = {}
    for label, variant in (("P1", "SRV-P"), ("P2", "SRV-C"), ("P3", "SRV-I")):
        target = srv_inference(variant, graph, network).throughput_ips
        crossings[label] = None
        for n in range(1, max_stores + 1):
            if ndpipe_inference(graph, n, store).throughput_ips >= target:
                crossings[label] = n
                break
    return crossings


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------
def srv_finetune(graph: ModelGraph, network: NetworkSpec = TEN_GBE,
                 host: ServerSpec = P3_8XLARGE,
                 num_storage: int = DEFAULT_NUM_STORAGE,
                 variant: str = "SRV-C") -> SystemPoint:
    """Centralised fine-tuning on the host (the Fig. 15 baseline)."""
    if variant not in SRV_VARIANTS:
        raise ValueError(f"unknown SRV variant {variant!r}")
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.full_finetune_ips(graph)
    stages = [Stage("FE&CT", gpu_rate)]
    decomp_cores = 0
    payload = 0
    if variant != "SRV-I":
        payload = (COMPRESSED_PREPROCESSED_BYTES if variant == "SRV-C"
                   else PREPROCESSED_BYTES)
        disk = G4DN_4XLARGE_NOGPU.disk
        stages.append(Stage("Read", num_storage * disk.read_ips(payload)))
        stages.append(Stage("Data Trans.", network.transfer_ips(payload)))
        if variant == "SRV-C":
            decomp_cores = SRV_C_DECOMPRESS_CORES
            stages.append(Stage("Decomp.", host.cpu.decompress_ips(
                decomp_cores, payload)))
    rate, bottleneck = pipelined_throughput(stages)

    gpu_util = min(1.0, rate / gpu_rate)
    draws = [server_power(host, gpu_util=gpu_util, active_cores=decomp_cores)]
    for _ in range(num_storage):
        draws.append(server_power(G4DN_4XLARGE_NOGPU, active_cores=1,
                                  disk_active=True))
    return SystemPoint(f"{variant} (fine-tune)", rate, total_power(draws),
                       bottleneck, payload)


# ---------------------------------------------------------------------------
# §3.4 strawmen: Typical vs Ideal (sequential execution)
# ---------------------------------------------------------------------------
def typical_finetune(graph: ModelGraph, network: NetworkSpec = TEN_GBE,
                     host: ServerSpec = P3_8XLARGE,
                     num_storage: int = DEFAULT_NUM_STORAGE) -> SystemPoint:
    """§3.4 Typical fine-tuning: unpipelined, uncompressed, naive engine."""
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.full_finetune_ips(graph, naive=True)
    disk = G4DN_4XLARGE_NOGPU.disk
    stages = [
        Stage("Read", num_storage * disk.read_ips(PREPROCESSED_BYTES)),
        Stage("Data Trans.", network.transfer_ips(PREPROCESSED_BYTES)),
        Stage("FE&CT", gpu_rate),
        # two host GPUs allreduce the trainable layers over PCIe
        Stage("Weight Sync.", _local_sync_rate(graph, batch_size=512)),
    ]
    rate = sequential_throughput(stages)
    draws = [server_power(host, gpu_util=min(1.0, rate / gpu_rate))]
    draws += [server_power(G4DN_4XLARGE_NOGPU, active_cores=1, disk_active=True)
              for _ in range(num_storage)]
    return SystemPoint("Typical", rate, total_power(draws), "sequential",
                       PREPROCESSED_BYTES)


def ideal_finetune(graph: ModelGraph,
                   host: ServerSpec = P3_8XLARGE) -> SystemPoint:
    """§3.4 Ideal fine-tuning: data already in host memory."""
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.full_finetune_ips(graph, naive=True)
    stages = [
        Stage("FE&CT", gpu_rate),
        Stage("Weight Sync.", _local_sync_rate(graph, batch_size=512)),
    ]
    rate = sequential_throughput(stages)
    return SystemPoint("Ideal", rate, server_power(host, gpu_util=1.0),
                       "FE&CT")


def typical_offline_inference(graph: ModelGraph,
                              network: NetworkSpec = TEN_GBE,
                              host: ServerSpec = P3_8XLARGE,
                              num_storage: int = DEFAULT_NUM_STORAGE,
                              preprocess_cores: int = 8) -> SystemPoint:
    """§3.4 Typical offline inference over raw 2.7 MB JPEGs, sequential."""
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.inference_ips(graph, 128)
    disk = G4DN_4XLARGE_NOGPU.disk
    stages = [
        Stage("Read", num_storage * disk.read_ips(RAW_IMAGE_BYTES)),
        Stage("Data Trans.", network.transfer_ips(RAW_IMAGE_BYTES)),
        Stage("Preproc.", host.cpu.preprocess_ips(preprocess_cores)),
        Stage("FE&Cl", gpu_rate),
    ]
    rate = sequential_throughput(stages)
    draws = [server_power(host, gpu_util=min(1.0, rate / gpu_rate),
                          active_cores=preprocess_cores)]
    draws += [server_power(G4DN_4XLARGE_NOGPU, active_cores=1, disk_active=True)
              for _ in range(num_storage)]
    return SystemPoint("Typical", rate, total_power(draws), "sequential",
                       RAW_IMAGE_BYTES)


def ideal_offline_inference(graph: ModelGraph,
                            host: ServerSpec = P3_8XLARGE,
                            preprocess_cores: int = 8) -> SystemPoint:
    """§3.4 Ideal offline inference: images served from local memory."""
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.inference_ips(graph, 128)
    stages = [
        Stage("Preproc.", host.cpu.preprocess_ips(preprocess_cores)),
        Stage("FE&Cl", gpu_rate),
    ]
    rate = sequential_throughput(stages)
    return SystemPoint(
        "Ideal", rate,
        server_power(host, gpu_util=min(1.0, rate / gpu_rate),
                     active_cores=preprocess_cores),
        "Preproc.",
    )


# ---------------------------------------------------------------------------
# §4 strawman: naive NDP (full offload + weight sync)
# ---------------------------------------------------------------------------
def naive_ndp_finetune_breakdown(graph: ModelGraph,
                                 network: NetworkSpec = TEN_GBE,
                                 num_stores: int = DEFAULT_NUM_STORAGE,
                                 store: ServerSpec = G4DN_4XLARGE,
                                 batch_per_store: int = 128,
                                 ) -> Dict[str, float]:
    """Per-image seconds of each fine-tuning subprocess under naive NDP.

    The entire fine-tuning job runs on the storage servers; the trainable
    layers synchronise parameter-server style through the shared front-end
    link every iteration — the §4.1 bottleneck.
    """
    accel = store.accelerator
    fleet_rate = num_stores * accel.full_finetune_ips(graph, naive=True)
    read_rate = num_stores * store.disk.read_ips(PREPROCESSED_BYTES)
    sync_bytes_per_image = (
        2.0 * graph.classifier_params * 4 * num_stores
        / (batch_per_store * num_stores)
    )
    return {
        "Read": 1.0 / read_rate,
        "Data Trans.": 0.0,
        "FE&CT": 1.0 / fleet_rate,
        "Weight Sync.": sync_bytes_per_image / network.bytes_per_s,
    }


def typical_finetune_breakdown(graph: ModelGraph,
                               network: NetworkSpec = TEN_GBE,
                               host: ServerSpec = P3_8XLARGE,
                               num_storage: int = DEFAULT_NUM_STORAGE,
                               batch_size: int = 512) -> Dict[str, float]:
    """Per-image seconds of each fine-tuning subprocess in Typical (Fig. 6a)."""
    accel = host.accelerator
    gpu_rate = host.accelerator_count * accel.full_finetune_ips(graph, naive=True)
    disk = G4DN_4XLARGE_NOGPU.disk
    return {
        "Read": 1.0 / (num_storage * disk.read_ips(PREPROCESSED_BYTES)),
        "Data Trans.": 1.0 / network.transfer_ips(PREPROCESSED_BYTES),
        "FE&CT": 1.0 / gpu_rate,
        "Weight Sync.": 1.0 / _local_sync_rate(graph, batch_size),
    }


def naive_ndp_inference_breakdown(graph: ModelGraph,
                                  num_stores: int = DEFAULT_NUM_STORAGE,
                                  store: ServerSpec = G4DN_4XLARGE,
                                  preprocess_cores: int = 1,
                                  ) -> Dict[str, float]:
    """Per-image seconds of each offline-inference subprocess, naive NDP."""
    accel = store.accelerator
    return {
        "Read": 1.0 / (num_stores * store.disk.read_ips(RAW_IMAGE_BYTES)),
        "Data Trans.": 0.0,
        "Preproc.": 1.0 / (num_stores *
                           store.cpu.preprocess_ips(preprocess_cores)),
        "FE&Cl": 1.0 / (num_stores * accel.inference_ips(graph, 128)),
    }


def typical_inference_breakdown(graph: ModelGraph,
                                network: NetworkSpec = TEN_GBE,
                                host: ServerSpec = P3_8XLARGE,
                                num_storage: int = DEFAULT_NUM_STORAGE,
                                preprocess_cores: int = 8) -> Dict[str, float]:
    """Per-image seconds of each offline-inference subprocess in Typical."""
    accel = host.accelerator
    disk = G4DN_4XLARGE_NOGPU.disk
    return {
        "Read": 1.0 / (num_storage * disk.read_ips(RAW_IMAGE_BYTES)),
        "Data Trans.": 1.0 / network.transfer_ips(RAW_IMAGE_BYTES),
        "Preproc.": 1.0 / host.cpu.preprocess_ips(preprocess_cores),
        "FE&Cl": 1.0 / (host.accelerator_count * accel.inference_ips(graph, 128)),
    }


def _local_sync_rate(graph: ModelGraph, batch_size: int) -> float:
    """Images/s capacity of the Typical host's 2-GPU PCIe allreduce."""
    sync_bytes = 2.0 * graph.classifier_params * 4
    per_iteration = sync_bytes / PCIE.bytes_per_s
    return batch_size / per_iteration
