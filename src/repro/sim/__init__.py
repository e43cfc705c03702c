"""``repro.sim`` — discrete-event datacenter simulator and hardware models.

Substitutes for the paper's AWS EC2 testbed: a DES kernel, typed resources,
a calibrated hardware catalog (accelerators, CPUs, disks, networks, EC2
instance types), a component power model, and the AWS cost model.
"""

from .cluster_sim import (
    ClusterSimResult,
    MixedWorkloadResult,
    simulate_ftdmp_finetune,
    simulate_mixed_workload,
    simulate_offline_inference,
)
from .cost import fleet_price_per_hour, run_cost
from .engine import Event, Process, Resource, Simulation, Store, all_of
from .pipeline import (
    Stage,
    makespan,
    pipelined_throughput,
    sequential_throughput,
)
from .power import (
    PowerDraw,
    ZERO_POWER,
    ips_per_watt,
    server_power,
    total_power,
)
from .resources import (
    AcceleratorResource,
    CpuPool,
    DiskResource,
    LinkResource,
    TimedResource,
)
from .specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    DEFAULT_DATASET_IMAGES,
    G4DN_4XLARGE,
    G4DN_4XLARGE_NOGPU,
    HOST_CPU,
    INF1_2XLARGE,
    INFERENCE_MEM_MB_PER_IMAGE,
    LABEL_BYTES,
    NEURONCORE_V1,
    NVLINK,
    PCIE,
    P3_2XLARGE,
    P3_8XLARGE,
    PREPROCESSED_BYTES,
    PREPROCESSED_DEFLATE_RATIO,
    RAW_IMAGE_BYTES,
    SERVERS,
    ST1_RAID,
    STORAGE_CPU,
    TEN_GBE,
    TESLA_T4,
    TESLA_V100,
    AcceleratorSpec,
    CpuSpec,
    DiskSpec,
    NetworkSpec,
    ServerSpec,
)

__all__ = [
    "Simulation", "Event", "Process", "Resource", "Store", "all_of",
    "Stage", "pipelined_throughput", "sequential_throughput", "makespan",
    "PowerDraw", "ZERO_POWER", "server_power", "total_power",
    "ips_per_watt", "fleet_price_per_hour", "run_cost",
    "ClusterSimResult", "MixedWorkloadResult", "simulate_offline_inference",
    "simulate_ftdmp_finetune", "simulate_mixed_workload",
    "TimedResource", "DiskResource", "LinkResource", "CpuPool",
    "AcceleratorResource",
    "AcceleratorSpec", "CpuSpec", "DiskSpec", "NetworkSpec", "ServerSpec",
    "TESLA_T4", "TESLA_V100", "NEURONCORE_V1",
    "HOST_CPU", "STORAGE_CPU", "ST1_RAID", "TEN_GBE", "PCIE", "NVLINK",
    "P3_8XLARGE", "P3_2XLARGE", "G4DN_4XLARGE", "G4DN_4XLARGE_NOGPU",
    "INF1_2XLARGE", "SERVERS",
    "RAW_IMAGE_BYTES", "PREPROCESSED_BYTES", "COMPRESSED_PREPROCESSED_BYTES",
    "PREPROCESSED_DEFLATE_RATIO", "LABEL_BYTES", "DEFAULT_DATASET_IMAGES",
    "INFERENCE_MEM_MB_PER_IMAGE",
]
