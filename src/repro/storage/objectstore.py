"""An in-memory object store standing in for a photo storage volume.

Each PipeStore owns one :class:`ObjectStore` backed by a capacity-limited
:class:`Volume`.  Keys are namespaced (``raw/<id>``, ``preproc/<id>``) the
way the paper stores raw photos next to their compressed preprocessed
binaries (§5.4); ``feat/<id>`` makes the same trade one stage later.

Every blob carries a CRC32 computed at write time and verified on every
workload read, so silent media corruption (bit rot, torn writes) surfaces
as :class:`CorruptObjectError` instead of propagating garbage into
near-data jobs.  Maintenance traffic — snapshots, scrubs, replication
repair — reads through :meth:`ObjectStore.peek`, which neither counts
toward workload IO accounting nor insists on a valid checksum.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


class StorageFullError(RuntimeError):
    """Raised when a put would exceed the volume's capacity."""


class MissingObjectError(KeyError):
    """Raised when a key is absent from the store."""


class CorruptObjectError(RuntimeError):
    """A stored blob no longer matches its write-time CRC32."""

    def __init__(self, store: str, key: str):
        super().__init__(f"{store}: object {key!r} failed its CRC32 check")
        self.store = store
        self.key = key


@dataclass
class Volume:
    """A capacity-accounted storage volume (the st1 RAID array)."""

    capacity_bytes: int
    used_bytes: int = 0

    def reserve(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("cannot reserve negative bytes")
        if self.used_bytes + num_bytes > self.capacity_bytes:
            raise StorageFullError(
                f"volume full: {self.used_bytes + num_bytes} "
                f"> {self.capacity_bytes}"
            )
        self.used_bytes += num_bytes

    def release(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("cannot release negative bytes")
        if num_bytes > self.used_bytes:
            raise ValueError("releasing more bytes than used")
        self.used_bytes -= num_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def fill_fraction(self) -> float:
        if self.capacity_bytes == 0:
            return 1.0
        return self.used_bytes / self.capacity_bytes


class ObjectStore:
    """Flat key -> bytes store with namespace helpers and IO accounting."""

    def __init__(self, volume: Optional[Volume] = None, name: str = "store"):
        self.name = name
        self.volume = volume or Volume(capacity_bytes=1 << 40)
        self._objects: Dict[str, bytes] = {}
        self._crcs: Dict[str, int] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # -- CRUD -------------------------------------------------------------
    def put(self, key: str, blob: bytes) -> None:
        if not key:
            raise ValueError("empty key")
        self._rebook(self._objects.get(key), blob)
        self._objects[key] = blob
        self._crcs[key] = zlib.crc32(blob)
        self.bytes_written += len(blob)

    def get(self, key: str) -> bytes:
        """Workload read: counts toward IO accounting, verifies the CRC."""
        blob = self._lookup(key)
        if zlib.crc32(blob) != self._crcs[key]:
            raise CorruptObjectError(self.name, key)
        self.bytes_read += len(blob)
        return blob

    def peek(self, key: str, verify: bool = False) -> bytes:
        """Maintenance read (snapshot / scrub / replication repair).

        Does not count toward ``bytes_read`` — taking a snapshot must not
        mutate workload IO stats.  With ``verify`` the CRC is still
        enforced, which is what repair uses to pick a healthy donor.
        """
        blob = self._lookup(key)
        if verify and zlib.crc32(blob) != self._crcs[key]:
            raise CorruptObjectError(self.name, key)
        return blob

    def verify(self, key: str) -> bool:
        """Does the stored blob still match its write-time CRC32?"""
        return zlib.crc32(self._lookup(key)) == self._crcs[key]

    def stored_crc(self, key: str) -> int:
        """The CRC32 recorded when the object was last written."""
        self._lookup(key)
        return self._crcs[key]

    def delete(self, key: str) -> None:
        try:
            blob = self._objects.pop(key)
        except KeyError:
            raise MissingObjectError(key) from None
        self._crcs.pop(key, None)
        self.volume.release(len(blob))

    def exists(self, key: str) -> bool:
        return key in self._objects

    def size_of(self, key: str) -> int:
        return len(self._lookup(key))

    def __len__(self) -> int:
        return len(self._objects)

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._objects if k.startswith(prefix))

    def iter_items(self, prefix: str = "") -> Iterator:
        """Maintenance iteration: unaccounted, unverified reads."""
        for key in self.keys(prefix):
            yield key, self.peek(key)

    # -- fault-injection / restore seams ----------------------------------
    def corrupt_object(self, key: str, blob: bytes) -> None:
        """Replace stored bytes *without* refreshing the CRC.

        This is the fault-injection seam for ``bit_rot`` / ``torn_write``
        events: volume accounting tracks the new length (the media still
        holds that many bytes) but the write-time checksum is left stale,
        exactly like silent corruption under a filesystem.
        """
        self._rebook(self._lookup(key), blob)
        self._objects[key] = blob

    def restore_object(self, key: str, blob: bytes, crc: int) -> None:
        """Snapshot-restore seam: reinstate an object with its recorded
        CRC, so corruption that predates a snapshot is still detectable
        by a scrub after the restore.  Not a workload write: only the
        volume reservation is taken, nothing is hashed or counted."""
        if not key:
            raise ValueError("empty key")
        self._rebook(self._objects.get(key), blob)
        self._objects[key] = blob
        self._crcs[key] = crc

    # -- namespaces -------------------------------------------------------
    @staticmethod
    def raw_key(photo_id: str) -> str:
        return f"raw/{photo_id}"

    @staticmethod
    def preproc_key(photo_id: str) -> str:
        return f"preproc/{photo_id}"

    @staticmethod
    def feature_key(photo_id: str) -> str:
        """The split-point feature derived from ``preproc/<id>`` — local
        and recomputable: never replicated, repaired by deletion."""
        return f"feat/{photo_id}"

    def photo_ids(self) -> List[str]:
        prefix = "raw/"
        return [k[len(prefix):] for k in self.keys(prefix)]

    # -- accounting ---------------------------------------------------------
    def bytes_by_prefix(self, prefix: str) -> int:
        return sum(len(self._objects[k]) for k in self.keys(prefix))

    def preprocessed_overhead(self) -> float:
        """Fraction of stored bytes taken by preprocessed binaries (§5.4)."""
        raw = self.bytes_by_prefix("raw/")
        pre = self.bytes_by_prefix("preproc/")
        total = raw + pre
        if total == 0:
            return 0.0
        return pre / total

    # -- internals ----------------------------------------------------------
    def _rebook(self, old: Optional[bytes], blob: bytes) -> None:
        """Move a key's volume reservation from ``old`` (if any) to ``blob``."""
        delta = len(blob) - (len(old) if old is not None else 0)
        if delta > 0:
            self.volume.reserve(delta)
        elif delta < 0:
            self.volume.release(-delta)

    def _lookup(self, key: str) -> bytes:
        try:
            return self._objects[key]
        except KeyError:
            raise MissingObjectError(key) from None
