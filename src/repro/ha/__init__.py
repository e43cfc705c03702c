"""Control-plane robustness: membership, Tuner failover, chaos harness.

This package turns the fault-injection substrate (`repro.faults`) into
an *automated* control plane:

* :class:`FailureDetector` — deadline heartbeat suspicion on the
  deterministic logical clock;
* :class:`TunerFailoverManager` — warm-standby Tuner kept current with
  tuner-scoped NDCP frames, epoch-fenced promotion on suspicion;
* :class:`HAController` — one poll loop wiring the detector to store
  eviction/rejoin, Tuner failover, and serving-replica drains;
* :class:`NemesisHarness` — seeded random fault schedules with
  cross-component invariant checks after every step.

Entry point: ``cluster.enable_ha(HAConfig(...), injector=...)``.
"""

from .config import HAConfig
from .controller import PRIMARY_MEMBER, HAController
from .detector import ALIVE, SUSPECT, UNKNOWN, FailureDetector
from .failover import CHECKPOINT_KIND, TunerFailoverManager
from .metrics import HAMetrics
from .nemesis import InvariantViolation, NemesisHarness, NemesisReport

__all__ = [
    "ALIVE",
    "CHECKPOINT_KIND",
    "FailureDetector",
    "HAConfig",
    "HAController",
    "HAMetrics",
    "InvariantViolation",
    "NemesisHarness",
    "NemesisReport",
    "PRIMARY_MEMBER",
    "SUSPECT",
    "TunerFailoverManager",
    "UNKNOWN",
]
