"""Typed DES resources: disks, network links, CPU pools, accelerators.

These wrap :class:`repro.sim.engine.Resource` with service-time semantics
derived from the hardware catalog, and account busy time for utilisation
and energy integration.
"""

from __future__ import annotations

from typing import Generator, Optional

from .engine import Resource, Simulation
from .specs import AcceleratorSpec, CpuSpec, DiskSpec, NetworkSpec


class TimedResource:
    """A capacity-limited resource whose uses are timed holds."""

    def __init__(self, sim: Simulation, capacity: int, name: str):
        self.sim = sim
        self.name = name
        self._resource = Resource(sim, capacity=capacity, name=name)

    def use(self, duration: float) -> Generator:
        """A process fragment: acquire, hold for ``duration``, release."""
        if duration < 0:
            raise ValueError(f"{self.name}: negative service time {duration}")
        yield self._resource.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self._resource.release()

    def utilization(self, makespan: Optional[float] = None) -> float:
        return self._resource.utilization(makespan or self.sim.now)


class DiskResource(TimedResource):
    """A storage volume; reads are serialised at the volume's bandwidth."""

    def __init__(self, sim: Simulation, spec: DiskSpec, name: str = "disk"):
        super().__init__(sim, capacity=1, name=name)
        self.spec = spec

    def read(self, num_bytes: int) -> Generator:
        yield from self.use(num_bytes / (self.spec.read_mbps * 1e6))

    def write(self, num_bytes: int) -> Generator:
        yield from self.use(num_bytes / (self.spec.write_mbps * 1e6))


class LinkResource(TimedResource):
    """A network link; transfers serialise at the provisioned bandwidth."""

    def __init__(self, sim: Simulation, spec: NetworkSpec, name: str = "link"):
        super().__init__(sim, capacity=1, name=name)
        self.spec = spec
        self.bytes_sent = 0

    def transfer(self, num_bytes: int) -> Generator:
        self.bytes_sent += num_bytes
        yield from self.use(num_bytes / self.spec.bytes_per_s)


class CpuPool(TimedResource):
    """A pool of worker cores performing preprocessing / decompression."""

    def __init__(self, sim: Simulation, spec: CpuSpec, cores: int,
                 name: str = "cpu"):
        super().__init__(sim, capacity=max(1, min(cores, spec.cores)), name=name)
        self.spec = spec

    def preprocess(self, images: int = 1) -> Generator:
        yield from self.use(images / self.spec.preprocess_ips_per_core)

    def decompress(self, compressed_bytes: int) -> Generator:
        yield from self.use(
            compressed_bytes / (self.spec.decompress_mbps_per_core * 1e6)
        )


class AcceleratorResource(TimedResource):
    """A GPU / inference accelerator executing batched kernels."""

    def __init__(self, sim: Simulation, spec: AcceleratorSpec,
                 name: str = "accelerator"):
        super().__init__(sim, capacity=1, name=name)
        self.spec = spec

    def infer_batch(self, graph, batch_size: int) -> Generator:
        ips = self.spec.inference_ips(graph, batch_size)
        yield from self.use(batch_size / ips)

    def extract_batch(self, graph, split: int, batch_size: int) -> Generator:
        ips = self.spec.fe_ips(graph, split, batch_size)
        yield from self.use(batch_size / ips)
