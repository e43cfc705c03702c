"""Hardware catalog calibrated against the paper's testbed (§6.1).

Every timing experiment in the paper reduces to pipeline-stage service
rates on this catalog: accelerator throughput per model, disk and network
bandwidth, CPU preprocessing/decompression rates, and per-component power.

Calibration targets (from the paper's measurements):

* per-PipeStore (T4, TensorRT, batch 128) offline-inference IPS:
  ResNet50 2129, InceptionV3 2439, ResNeXt101 449, ViT 277 (§6.2);
* per-PipeStore feature-extraction throughput ~1913 IPS for ResNet50
  fine-tuning (artifact appendix A.6);
* SRV-I (2x V100) equals NDPipe at 5-7 PipeStores (Fig. 13 P3)
  -> V100 ~ 3x T4 effective throughput;
* APO picks 8 PipeStores for ResNet50 with one V100 Tuner (Fig. 11)
  -> Tuner classifier-training rate ~ 8x a PipeStore's FE rate;
* Typical offline inference 94 IPS vs Ideal 123 IPS (Fig. 5b) -> host
  preprocessing 15.4 images/s/core on 2.7 MB JPEGs, *sequential* stage
  execution in the §3 strawman systems (the NPE's 3-stage pipelining is
  precisely what the strawmen lack);
* SRV-C stops scaling beyond 20 Gbps because 8 host cores cannot
  decompress faster (Fig. 18) -> host decompression ~330 MB/s/core over
  compressed bytes; storage-server cores (shared with the storage daemons)
  sustain about half of that;
* NDPipe-Inf1 needs 11-16 PipeStores to match SRV-C where T4 needs 4-7
  (Fig. 20) -> NeuronCoreV1 ~ 0.41x T4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..models.graph import ModelGraph

# ---------------------------------------------------------------------------
# Workload byte sizes (§3.4, §5.4)
# ---------------------------------------------------------------------------
#: average raw photo (JPEG) size
RAW_IMAGE_BYTES = 2_700_000
#: preprocessed input binary (fp32 tensor, 0.59 MB for 224x224x3)
PREPROCESSED_BYTES = 590_000
#: deflate ratio on preprocessed binaries (typical for zlib over fp32 image
#: tensors; makes SRV-C network-bound at ~5.7 KIPS over 10 Gbps, which
#: reproduces the paper's fine-tuning crossover at 3 PipeStores for
#: ResNet50/InceptionV3 and 6 for ResNeXt101, Fig. 15)
PREPROCESSED_DEFLATE_RATIO = 2.86
#: compressed preprocessed binary
COMPRESSED_PREPROCESSED_BYTES = int(PREPROCESSED_BYTES / PREPROCESSED_DEFLATE_RATIO)
#: an extracted label shipped back from offline inference
LABEL_BYTES = 16

#: default experiment scale (paper fine-tunes over ImageNet-1K's 1.2M images)
DEFAULT_DATASET_IMAGES = 1_200_000

#: extra working-set memory per image during batched inference, used for the
#: Fig. 19 OOM model (ViT OOMs on a 16 GB T4 at batch >= 256)
INFERENCE_MEM_MB_PER_IMAGE: Dict[str, float] = {
    "ShuffleNetV2": 4.0,
    "ResNet50": 12.0,
    "InceptionV3": 16.0,
    "ResNeXt101": 25.0,
    "ViT": 60.0,
}


# ---------------------------------------------------------------------------
# Accelerators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AcceleratorSpec:
    """A GPU / inference accelerator with calibrated sustained throughput.

    ``effective_tflops`` is the sustained dense rate on the reference model
    (ResNet50); ``model_efficiency`` rescales it per architecture (TensorRT
    loves Inception's convs, dislikes transformers on T4-class parts).
    """

    name: str
    effective_tflops: float
    idle_watts: float
    active_watts: float
    mem_gb: float
    #: multiplier when running training-mode frameworks instead of an
    #: inference runtime (NPE-optimised TensorFlow vs TensorRT)
    train_efficiency: float
    #: multiplier for the *unoptimised* §3/§4 strawman engines (no 3-stage
    #: pipelining, stock framework defaults)
    naive_train_efficiency: float
    #: fraction of peak achieved on tiny classifier-only kernels
    #: (launch-bound); sets the Tuner-stage rate
    clf_train_efficiency: float
    #: fixed per-batch launch/setup overhead (drives the Fig. 19 curve)
    batch_overhead_s: float
    model_efficiency: Mapping[str, float] = field(default_factory=dict)

    # -- throughput -------------------------------------------------------
    def _rate_flops(self, model_name: str) -> float:
        eff = self.model_efficiency.get(model_name, 1.0)
        return self.effective_tflops * 1e12 * eff

    def flops_ips(self, model_name: str, flops_per_image: float) -> float:
        """Saturated images/s pushing ``flops_per_image`` through the device."""
        if flops_per_image <= 0:
            return float("inf")
        return self._rate_flops(model_name) / flops_per_image

    def inference_ips(self, graph: ModelGraph, batch_size: int = 128) -> float:
        """Offline-inference throughput at a given batch size.

        Models the launch-overhead saturation curve of Fig. 19:
        ``ips(b) = b / (b / ips_max + overhead)``.
        """
        ips_max = self.flops_ips(graph.name, graph.total_flops)
        per_image = 1.0 / ips_max
        return batch_size / (batch_size * per_image + self.batch_overhead_s)

    def fe_ips(self, graph: ModelGraph, split: int, batch_size: int = 512,
               training: bool = True) -> float:
        """Feature-extraction throughput through the first ``split`` stages."""
        point = graph.partition_point(split)
        if point.front_flops <= 0:
            return float("inf")
        ips_max = self.flops_ips(graph.name, point.front_flops)
        if training:
            ips_max *= self.train_efficiency
        per_image = 1.0 / ips_max
        return batch_size / (batch_size * per_image + self.batch_overhead_s)

    def tail_train_ips(self, graph: ModelGraph, split: int) -> float:
        """Tuner-side training throughput over stages ``split:``.

        The trainable classifier runs tiny launch-bound kernels, hence the
        separate efficiency knob.
        """
        point = graph.partition_point(split)
        flops = point.back_flops_train
        if flops <= 0:
            return float("inf")
        rate = self.effective_tflops * 1e12 * self.clf_train_efficiency
        return rate / flops

    def full_finetune_ips(self, graph: ModelGraph, naive: bool = False) -> float:
        """Monolithic fine-tuning rate (FE forward + classifier update)."""
        flops = sum(s.flops_train for s in graph.stages)
        eff = self.naive_train_efficiency if naive else self.train_efficiency
        return self.flops_ips(graph.name, flops) * eff

    def full_train_ips(self, graph: ModelGraph) -> float:
        """Full-training rate (forward + backward through every stage)."""
        flops = 3.0 * graph.total_flops
        return self.flops_ips(graph.name, flops) * self.train_efficiency

    # -- memory -------------------------------------------------------------
    def fits_batch(self, graph: ModelGraph, batch_size: int) -> bool:
        """Does a batch fit in device memory? (fp16 weights + activations)"""
        per_image_mb = INFERENCE_MEM_MB_PER_IMAGE.get(graph.name, 10.0)
        weights_mb = graph.total_params * 2 / 1e6
        needed_mb = weights_mb + batch_size * per_image_mb
        return needed_mb <= self.mem_gb * 1024


_MODEL_EFFICIENCY = {
    # calibrated so a T4 at batch 128 hits the paper's per-PipeStore IPS
    # (2129 / 2439 / 449 / 277 for the four figure models, §6.2)
    "ResNet50": 1.000,
    "InceptionV3": 1.559,
    "ResNeXt101": 0.775,
    "ViT": 0.508,
    "ShuffleNetV2": 0.081,  # tiny model, launch-bound
}

TESLA_T4 = AcceleratorSpec(
    name="Tesla T4",
    effective_tflops=9.66,
    idle_watts=10.0,
    active_watts=65.0,
    mem_gb=16.0,
    train_efficiency=0.85,
    naive_train_efficiency=0.28,
    clf_train_efficiency=0.0035,
    batch_overhead_s=0.004,
    model_efficiency=_MODEL_EFFICIENCY,
)

TESLA_V100 = AcceleratorSpec(
    name="Tesla V100",
    effective_tflops=28.98,  # ~3x T4 sustained (Fig. 13 P3 calibration)
    idle_watts=35.0,
    active_watts=300.0,
    mem_gb=16.0,
    train_efficiency=0.84,
    naive_train_efficiency=0.26,
    clf_train_efficiency=0.0065,
    batch_overhead_s=0.003,
    model_efficiency=_MODEL_EFFICIENCY,
)

#: NeuronCoreV1 relative efficiency differs from the T4's: the systolic
#: matmul engine handles ResNeXt's grouped convolutions comparatively well
#: (calibrated so 11-16 Inf1 stores match SRV-C inference and 8-13 match
#: SRV-C fine-tuning, Fig. 20)
_NEURON_MODEL_EFFICIENCY = {
    "ResNet50": 1.000,
    "InceptionV3": 1.559,
    "ResNeXt101": 1.700,
    "ViT": 0.508,
    "ShuffleNetV2": 0.081,
}

NEURONCORE_V1 = AcceleratorSpec(
    name="NeuronCoreV1",
    effective_tflops=1.90,  # ~0.2x T4 on ResNet50
    idle_watts=4.0,
    active_watts=22.0,
    mem_gb=8.0,
    # FE is an inference workload and runs through the compiled Neuron
    # graph at full efficiency
    train_efficiency=1.0,
    naive_train_efficiency=0.28,
    clf_train_efficiency=0.0035,
    batch_overhead_s=0.006,
    model_efficiency=_NEURON_MODEL_EFFICIENCY,
)


# ---------------------------------------------------------------------------
# CPUs, disks, network
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CpuSpec:
    """Per-core service rates and a linear power model."""

    name: str
    cores: int
    #: raw 2.7 MB JPEG decode+resize+normalise, images/s per core
    preprocess_ips_per_core: float
    #: deflate decompression, MB/s of *compressed* input per core
    decompress_mbps_per_core: float
    base_watts: float
    per_core_watts: float

    def preprocess_ips(self, cores: int) -> float:
        return self._clamp(cores) * self.preprocess_ips_per_core

    def decompress_ips(self, cores: int, compressed_bytes: int) -> float:
        mbps = self._clamp(cores) * self.decompress_mbps_per_core
        return mbps * 1e6 / compressed_bytes

    def _clamp(self, cores: int) -> int:
        if cores < 0:
            raise ValueError("core count must be non-negative")
        return min(cores, self.cores)


HOST_CPU = CpuSpec(
    name="host-32vcpu-2.7GHz",
    cores=32,
    preprocess_ips_per_core=15.4,
    decompress_mbps_per_core=330.0,
    base_watts=100.0,
    per_core_watts=6.0,
)

STORAGE_CPU = CpuSpec(
    name="storage-16vcpu-2.5GHz",
    cores=16,
    preprocess_ips_per_core=15.4,
    # storage-server cores are shared with the storage daemons, sustaining
    # ~78% of the host rate; two cores decompress ~2500 images/s — above
    # the T4's batch-128 inference rate for every model (so the
    # accelerator bounds the NPE pipeline, §6.2) but below InceptionV3's
    # large-batch rate (the Fig. 19 decompression wall)
    decompress_mbps_per_core=258.0,
    base_watts=25.0,
    per_core_watts=6.0,
)

INF1_CPU = CpuSpec(
    name="inf1-8vcpu",
    cores=8,
    preprocess_ips_per_core=15.4,
    decompress_mbps_per_core=258.0,
    base_watts=15.0,
    per_core_watts=6.0,
)


@dataclass(frozen=True)
class DiskSpec:
    """An st1-style throughput-optimised HDD RAID volume."""

    name: str
    read_mbps: float
    write_mbps: float
    active_watts: float

    def read_ips(self, object_bytes: int) -> float:
        return self.read_mbps * 1e6 / object_bytes


ST1_RAID = DiskSpec(name="st1-16xHDD-RAID5", read_mbps=560.0,
                    write_mbps=420.0, active_watts=30.0)


@dataclass(frozen=True)
class NetworkSpec:
    """A full-duplex link; ``gbps`` is the paper's provisioned bandwidth."""

    gbps: float
    #: protocol efficiency (TCP/framing overhead)
    efficiency: float = 0.94

    def __post_init__(self):
        if not 0 < self.gbps < math.inf:
            raise ValueError(
                f"gbps must be positive and finite, got {self.gbps}")

    @property
    def bytes_per_s(self) -> float:
        return self.gbps * 1e9 / 8.0 * self.efficiency

    def transfer_ips(self, object_bytes: int) -> float:
        if object_bytes <= 0:
            return float("inf")
        return self.bytes_per_s / object_bytes

    def transfer_time(self, total_bytes: float) -> float:
        return total_bytes / self.bytes_per_s


TEN_GBE = NetworkSpec(gbps=10.0)
#: intra-server GPU interconnect used for the Typical system's 2-GPU
#: weight synchronisation (Fig. 6a)
PCIE = NetworkSpec(gbps=96.0, efficiency=1.0)
NVLINK = NetworkSpec(gbps=400.0, efficiency=1.0)


# ---------------------------------------------------------------------------
# Servers (EC2 instance types of §6.1)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServerSpec:
    name: str
    accelerator: Optional[AcceleratorSpec]
    accelerator_count: int
    cpu: CpuSpec
    disk: Optional[DiskSpec]
    other_watts: float
    price_per_hour: float

    @property
    def has_accelerator(self) -> bool:
        return self.accelerator is not None and self.accelerator_count > 0


P3_8XLARGE = ServerSpec(
    name="p3.8xlarge",
    accelerator=TESLA_V100,
    accelerator_count=2,  # paper enables two of the four V100s
    cpu=HOST_CPU,
    disk=None,
    other_watts=250.0,
    price_per_hour=12.24,
)

P3_2XLARGE = ServerSpec(
    name="p3.2xlarge",
    accelerator=TESLA_V100,
    accelerator_count=1,
    cpu=HOST_CPU,
    disk=None,
    other_watts=120.0,
    price_per_hour=3.06,
)

G4DN_4XLARGE = ServerSpec(
    name="g4dn.4xlarge",
    accelerator=TESLA_T4,
    accelerator_count=1,
    cpu=STORAGE_CPU,
    disk=ST1_RAID,
    other_watts=130.0,
    price_per_hour=1.204,
)

G4DN_4XLARGE_NOGPU = ServerSpec(
    name="g4dn.4xlarge (GPU disabled)",
    accelerator=None,
    accelerator_count=0,
    cpu=STORAGE_CPU,
    disk=ST1_RAID,
    other_watts=130.0,
    price_per_hour=1.204,
)

INF1_2XLARGE = ServerSpec(
    name="inf1.2xlarge",
    accelerator=NEURONCORE_V1,
    accelerator_count=1,
    cpu=INF1_CPU,
    disk=ST1_RAID,
    other_watts=20.0,
    price_per_hour=0.362,
)

SERVERS: Dict[str, ServerSpec] = {
    spec.name: spec
    for spec in (P3_8XLARGE, P3_2XLARGE, G4DN_4XLARGE, G4DN_4XLARGE_NOGPU,
                 INF1_2XLARGE)
}
