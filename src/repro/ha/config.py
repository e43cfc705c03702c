"""HAConfig — tunables for the control-plane robustness layer."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import Config


@dataclass(frozen=True)
class HAConfig(Config):
    """Failure-detection and failover policy knobs.

    All timings are **logical ticks**: one per controller poll, plus one
    per non-local fabric transfer while a fault injector is attached (its
    kernel is then the controller's clock).  So suspicion thresholds
    replay deterministically with the workload, as the schedule does.
    """

    #: hard deadline: a member silent this many ticks is suspected
    suspect_after_ticks: int = 3
    #: phi-accrual threshold: elapsed / mean-inter-arrival ratio at which
    #: a member is suspected even before the hard deadline
    phi_threshold: float = 8.0
    #: on store suspicion, re-place its journalled photos automatically
    auto_evict: bool = True
    #: on a suspected store's heartbeat resuming, run recover/reconcile
    auto_rejoin: bool = True
    #: keep a warm standby Tuner and promote it on primary suspicion
    standby: bool = True

    def validated(self) -> "HAConfig":
        if self.suspect_after_ticks < 1:
            raise ValueError("suspect_after_ticks must be >= 1")
        if self.phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")
        return self
