"""Component power model (GPU / CPU / other) and energy-efficiency metrics.

Mirrors the paper's measurement methodology (§6.2): GPU power via gpustat,
CPU and 'others' via powerstat/ipmitool on matched local machines.  We model
each server's draw as

* accelerator: ``idle + util * (active - idle)`` per device,
* CPU: ``base + active_cores * per_core``,
* other (PSU, SoC, I/O, disks): a constant per server class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .specs import ServerSpec


@dataclass(frozen=True)
class PowerDraw:
    """Average draw of one server, split the way Fig. 14 plots it."""

    gpu_watts: float
    cpu_watts: float
    other_watts: float

    @property
    def total_watts(self) -> float:
        return self.gpu_watts + self.cpu_watts + self.other_watts

    def __add__(self, other: "PowerDraw") -> "PowerDraw":
        return PowerDraw(
            self.gpu_watts + other.gpu_watts,
            self.cpu_watts + other.cpu_watts,
            self.other_watts + other.other_watts,
        )

    def scaled(self, factor: float) -> "PowerDraw":
        return PowerDraw(self.gpu_watts * factor, self.cpu_watts * factor,
                         self.other_watts * factor)


ZERO_POWER = PowerDraw(0.0, 0.0, 0.0)


def server_power(spec: ServerSpec, gpu_util: float = 0.0,
                 active_cores: int = 0, disk_active: bool = False) -> PowerDraw:
    """Average power of one server at the given operating point."""
    if not 0.0 <= gpu_util <= 1.0:
        raise ValueError(f"gpu_util must be in [0, 1], got {gpu_util}")
    if active_cores < 0:
        raise ValueError("active_cores must be non-negative")
    gpu = 0.0
    if spec.has_accelerator:
        acc = spec.accelerator
        gpu = spec.accelerator_count * (
            acc.idle_watts + gpu_util * (acc.active_watts - acc.idle_watts)
        )
    cores = min(active_cores, spec.cpu.cores)
    cpu = spec.cpu.base_watts + cores * spec.cpu.per_core_watts
    other = spec.other_watts
    if disk_active and spec.disk is not None:
        other += spec.disk.active_watts
    return PowerDraw(gpu, cpu, other)


def total_power(draws: Iterable[PowerDraw]) -> PowerDraw:
    total = ZERO_POWER
    for draw in draws:
        total = total + draw
    return total


def ips_per_watt(throughput_ips: float, draw: PowerDraw) -> float:
    """Power efficiency (Fig. 14 / Fig. 18 metric)."""
    if draw.total_watts <= 0:
        raise ValueError("power must be positive")
    return throughput_ips / draw.total_watts
