"""Exception taxonomy for injected faults.

Kept dependency-free so both ``repro.core`` (which raises them from the
fabric) and ``repro.faults`` (which injects them) can import this module
without creating a package cycle.
"""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class for everything the fault subsystem raises."""


class FaultConfigError(FaultError):
    """A fault schedule references something that does not exist."""


class TransientFaultError(FaultError):
    """A fault the caller is expected to survive by retrying.

    Retry helpers (:mod:`repro.faults.retry`) treat subclasses of this as
    retryable by default; anything else propagates immediately.
    """


class MessageDroppedError(TransientFaultError):
    """An injected network fault swallowed one fabric transfer."""


class TunerCrashError(FaultError):
    """The Tuner process died mid-lifecycle (fault injection).

    Deliberately *not* transient: no retry policy can bring a dead
    process back.  The operator restores the cluster from its latest
    checkpoint and resumes from the last completed run — or, with the
    HA layer enabled (:mod:`repro.ha`), the failure detector promotes
    the warm standby automatically.
    """


class StaleEpochError(FaultError):
    """A fenced component rejected an update stamped with an old epoch.

    Raised by a :class:`~repro.core.pipestore.PipeStore` when a model
    update (Check-N-Run delta or replica sync) arrives carrying an epoch
    older than the highest epoch the store has already accepted.  This
    is the split-brain guard: a deposed primary Tuner that comes back
    from the dead cannot corrupt replicas the new primary owns.

    Deliberately *not* transient: retrying a fenced update can never
    succeed — the sender must observe the new epoch (i.e. stand down).
    """
