"""The fault vocabulary: scheduled events the injector can fire.

Events are pinned to a *logical tick*: the injector's clock advances once
per non-local transfer on an attached fabric and once per poll of an HA
controller sharing it, so a schedule is deterministic regardless of
wall-clock timing — the same schedule against the same workload always
crashes the same store between the same two messages.  No event spends
wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FaultEvent:
    """Base event: fires when the injector clock reaches ``at``."""

    at: int

    def describe(self) -> str:
        return f"t={self.at} {type(self).__name__}"


@dataclass(frozen=True)
class StoreCrash(FaultEvent):
    """Take one PipeStore down (its storage survives for a later repair)."""

    store_id: str

    def describe(self) -> str:
        return f"t={self.at} crash {self.store_id}"


@dataclass(frozen=True)
class StoreRecover(FaultEvent):
    """Bring a crashed PipeStore back into service."""

    store_id: str

    def describe(self) -> str:
        return f"t={self.at} recover {self.store_id}"


@dataclass(frozen=True)
class DropMessages(FaultEvent):
    """Swallow the next ``count`` fabric transfers (optionally one kind)."""

    count: int = 1
    kind: Optional[str] = None  # None matches any traffic kind

    def describe(self) -> str:
        what = self.kind or "any"
        return f"t={self.at} drop {self.count}x {what}"


@dataclass(frozen=True)
class AddLatency(FaultEvent):
    """Charge extra wire seconds to the next ``count`` matching transfers.

    ``dst`` narrows the budget to transfers landing on one node — the
    way to model a single store whose network link has gone slow (the
    load-aware placement tests pin a latency budget to one PipeStore and
    assert fresh ingest routes around it).
    """

    seconds: float = 0.0
    count: int = 1
    kind: Optional[str] = None
    dst: Optional[str] = None  # None matches any destination node

    def describe(self) -> str:
        what = self.kind or "any"
        where = f" -> {self.dst}" if self.dst else ""
        return f"t={self.at} +{self.seconds:g}s on {self.count}x {what}{where}"


@dataclass(frozen=True)
class SlowAccelerator(FaultEvent):
    """Degrade one store's accelerator by ``factor`` (1.0 = healthy)."""

    store_id: str = ""
    factor: float = 1.0

    def describe(self) -> str:
        return f"t={self.at} slow {self.store_id} x{self.factor:g}"


@dataclass(frozen=True)
class BitRot(FaultEvent):
    """Silently flip bits in stored objects on one PipeStore.

    Models media decay on the st1 arrays: the bytes change under the
    store's feet while its write-time CRC32 stays stale, so the damage is
    invisible until a verified read or a ``scrub()`` pass.  Victim
    objects are chosen deterministically by ``seed`` among keys matching
    ``prefix`` (or pinned with an explicit ``key``).
    """

    store_id: str = ""
    key: Optional[str] = None  # explicit victim; else a seeded pick
    num_objects: int = 1
    flips_per_object: int = 8
    prefix: str = ""  # restrict seeded picks to one namespace
    seed: int = 0

    def describe(self) -> str:
        what = self.key or f"{self.num_objects}x {self.prefix or 'any'}"
        return f"t={self.at} bit-rot {self.store_id}:{what}"


@dataclass(frozen=True)
class TornWrite(FaultEvent):
    """Truncate one stored object mid-blob (a partial write that stuck).

    The object keeps its key but only ``keep_fraction`` of its bytes;
    the stale CRC32 makes the tear detectable exactly like bit rot.
    """

    store_id: str = ""
    key: Optional[str] = None
    keep_fraction: float = 0.5
    prefix: str = ""
    seed: int = 0

    def describe(self) -> str:
        what = self.key or (self.prefix or "any")
        return (f"t={self.at} torn-write {self.store_id}:{what} "
                f"keep={self.keep_fraction:g}")


@dataclass(frozen=True)
class TunerCrash(FaultEvent):
    """Kill a Tuner process.

    With the legacy ``tuner_id=None`` form every subsequent observed
    operation raises :class:`~repro.faults.errors.TunerCrashError`
    until the injector is detached — recovery means restoring from a
    checkpoint.  With an explicit ``tuner_id`` the crash is *targeted*:
    only fabric traffic to or from that node raises, the registered
    tuner object is failed (its heartbeats stop), and the rest of the
    cluster keeps running — which is what lets the HA layer fail over
    to a warm standby while the primary is down.
    """

    tuner_id: Optional[str] = None

    def describe(self) -> str:
        who = self.tuner_id or "tuner (global)"
        return f"t={self.at} tuner crash {who}"


@dataclass(frozen=True)
class TunerRecover(FaultEvent):
    """Bring a crashed Tuner process back (the split-brain scenario).

    A revived Tuner still holds the epoch it crashed with; if the HA
    layer promoted a standby in the meantime, every update the zombie
    distributes is rejected by epoch fencing.  ``tuner_id=None``
    clears the legacy global crash flag.
    """

    tuner_id: Optional[str] = None

    def describe(self) -> str:
        who = self.tuner_id or "tuner (global)"
        return f"t={self.at} tuner recover {who}"
