"""HAConfig — tunables for the control-plane robustness layer."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import Config


@dataclass(frozen=True)
class HAConfig(Config):
    """Failure-detection and failover policy.

    The deadline is in **logical ticks**: one per controller poll, plus
    one per non-local fabric transfer while a fault injector is attached
    (its kernel is then the controller's clock).  So suspicion replays
    deterministically with the workload, as the schedule does.  Entry
    points run the defaults, except that ``repro report fleet-roster``
    runs without a standby; tests shrink the deadline, and switch the
    reactions off to watch detection alone.
    """

    #: deadline: a member silent this many ticks is suspected
    suspect_after_ticks: int = 3
    #: on store suspicion, re-place its journalled photos automatically
    auto_evict: bool = True
    #: on a suspected store's heartbeat resuming, run recover/reconcile
    auto_rejoin: bool = True
    #: keep a warm standby Tuner and promote it on primary suspicion
    standby: bool = True

    def validated(self) -> "HAConfig":
        if self.suspect_after_ticks < 1:
            raise ValueError("suspect_after_ticks must be >= 1")
        return self
