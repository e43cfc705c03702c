"""``repro.faults`` — deterministic fault injection and retry policy.

The fleet half of the NDPipe story (§4, Fig. 7) only matters if it
survives the fleet misbehaving.  This package provides the *injection*
side — a seedable :class:`FaultInjector` replaying scheduled crashes,
message drops, latency, accelerator slowdowns, silent storage corruption
(bit rot, torn writes), and Tuner crashes through hooks in the fabric and
the PipeStores — while the *tolerance* side
(retry-with-backoff dispatch, degraded-mode FT-DMP, orphan re-ingest,
scrub-and-repair, checkpoint/resume) lives in :mod:`repro.core` and
:mod:`repro.durability`.  The chaos suites under ``tests/faults/`` and
``tests/durability/`` drive both.
"""

from .errors import (
    FaultConfigError,
    FaultError,
    MessageDroppedError,
    StaleEpochError,
    TransientFaultError,
    TunerCrashError,
)
from .events import (
    AddLatency,
    BitRot,
    DropMessages,
    FaultEvent,
    SlowAccelerator,
    StoreCrash,
    StoreRecover,
    TornWrite,
    TunerCrash,
    TunerRecover,
)
from .retry import RetryPolicy, call_with_retry
from .injector import FaultInjector

__all__ = [
    "FaultError", "FaultConfigError", "TransientFaultError",
    "MessageDroppedError", "TunerCrashError", "StaleEpochError",
    "FaultEvent", "StoreCrash", "StoreRecover", "DropMessages",
    "AddLatency", "SlowAccelerator",
    "BitRot", "TornWrite", "TunerCrash", "TunerRecover",
    "RetryPolicy", "call_with_retry",
    "FaultInjector",
]
