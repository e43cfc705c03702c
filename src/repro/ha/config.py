"""HAConfig — tunables for the control-plane robustness layer."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class HAConfig:
    """Failure-detection and failover policy knobs.

    All timings are **logical ticks** of the faults clock (one tick per
    observed fabric transfer, plus one per controller poll), so suspicion thresholds replay deterministically
    with the workload — the same property the fault schedule itself has.
    """

    #: ticks between controller heartbeat probes (poll granularity)
    heartbeat_interval_ticks: int = 1
    #: hard deadline: a member silent this many ticks is suspected
    suspect_after_ticks: int = 3
    #: phi-accrual threshold: elapsed / mean-inter-arrival ratio at which
    #: a member is suspected even before the hard deadline
    phi_threshold: float = 8.0
    #: heartbeat inter-arrival window the phi estimate is computed over
    window: int = 32
    #: on store suspicion, re-place its journalled photos automatically
    auto_evict: bool = True
    #: on a suspected store's heartbeat resuming, run recover/reconcile
    auto_rejoin: bool = True
    #: keep a warm standby Tuner and promote it on primary suspicion
    standby: bool = True
    #: accounted bytes per heartbeat probe (when accounting is on)
    heartbeat_bytes: int = 32
    #: send heartbeats through the byte-accounted fabric (each probe
    #: then advances the logical clock like any other message)
    account_heartbeats: bool = False

    def validated(self) -> "HAConfig":
        if self.heartbeat_interval_ticks < 1:
            raise ValueError("heartbeat_interval_ticks must be >= 1")
        if self.suspect_after_ticks < 1:
            raise ValueError("suspect_after_ticks must be >= 1")
        if self.phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.heartbeat_bytes < 0:
            raise ValueError("heartbeat_bytes must be >= 0")
        return self

    @classmethod
    def field_names(cls):
        return {f.name for f in fields(cls)}

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "HAConfig":
        unknown = sorted(set(data) - cls.field_names())
        if unknown:
            raise ValueError(f"unknown HAConfig fields {unknown}")
        return cls(**data)
