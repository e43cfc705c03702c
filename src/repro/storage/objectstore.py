"""An in-memory object store standing in for a photo storage volume.

Each PipeStore owns one :class:`ObjectStore` backed by a capacity-limited
:class:`Volume`.  Keys are namespaced (``raw/<id>``, ``preproc/<id>``) the
way the paper stores raw photos next to their compressed preprocessed
binaries (§5.4); ``feat/<id>`` makes the same trade one stage later.

Every blob carries a CRC32 computed at write time and verified on every
workload read, so silent media corruption (bit rot, torn writes) surfaces
as :class:`CorruptObjectError` instead of propagating garbage into
near-data jobs.  Maintenance traffic — snapshots, scrubs, replication
repair — reads through :meth:`ObjectStore.peek` (or
:meth:`ObjectStore.peek_payload`), which neither counts toward workload
IO accounting nor insists on a valid checksum.

An object is held as a *payload* plus a *nominal length*: the content is
the payload followed by zeros up to that length.  The stand-in JPEG is a
~0.8 KB payload accounted at the nominal photo size, and its padding is
only a number here.  Sizes, volume use, IO counters and CRC32s are all
over the nominal content; only a :meth:`~ObjectStore.get` or
:meth:`~ObjectStore.peek` of a padded object materialises the zeros.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .imageformat import CodecError, derive_preprocessed

#: a view of the one all-zero buffer behind every zero tail: grown
#: (never shrunk) to the longest run asked for
_zeros = memoryview(bytes(1 << 16))


def zero_run(length: int) -> memoryview:
    """A read-only view of ``length`` zero bytes (shared, not allocated)."""
    global _zeros
    if length > len(_zeros):
        _zeros = memoryview(bytes(max(length, 2 * len(_zeros))))
    return _zeros[:length]


def payload_length(blob: bytes) -> int:
    """``len(blob.rstrip(b"\\0"))`` at memcmp speed: bisect for where the
    all-zero tail starts.  ``rstrip`` walks the run bytewise — 12 us for a
    padded 8 KB raw blob against 3 us here, 4 ms against 0.4 ms at the
    paper's 2.7 MB."""
    hi = len(blob)
    if not hi or blob[-1]:
        return hi
    zeros = zero_run(hi)
    lo = 0
    while lo < hi:  # blob[hi:] is all zeros; the tail starts at or after lo
        mid = (lo + hi) // 2
        if blob.startswith(zeros[:hi - mid], mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


#: zero runs shorter than this are walked: folding one through the tables
#: below costs about what zlib takes for a run this long, and short runs
#: vary (a restored row's own zero tail), where a table per length would
#: be built for one CRC
_FOLD_MIN = 1024


@lru_cache(maxsize=8)
def _zero_tail(length: int) -> Tuple[List[int], List[int], List[int],
                                     List[int], int]:
    """Four 256-entry tables and a constant that fold a CRC32 through
    ``length`` zero bytes: ``zlib.crc32(zero_run(length), crc)`` is
    ``t0[crc & 255] ^ t1[crc >> 8 & 255] ^ t2[crc >> 16 & 255] ^
    t3[crc >> 24] ^ const``, zero input being linear in the CRC register
    (32 walks of the run, then XORs)."""
    zeros = zero_run(length)
    const = zlib.crc32(zeros)
    tables = []
    for shift in (0, 8, 16, 24):
        table = [0] * 256
        for bit in range(8):
            step = 1 << bit
            image = zlib.crc32(zeros, step << shift) ^ const
            for low in range(step):
                table[step + low] = table[low] ^ image
        tables.append(table)
    return (*tables, const)


def content_crc(payload: bytes, nominal: int) -> int:
    """CRC32 of ``payload`` followed by zeros up to ``nominal`` bytes; a
    long zero tail is folded in (:func:`_zero_tail`), not walked."""
    crc = zlib.crc32(payload)
    tail = nominal - len(payload)
    if tail >= _FOLD_MIN:
        t0, t1, t2, t3, const = _zero_tail(tail)
        crc = (t0[crc & 255] ^ t1[crc >> 8 & 255] ^ t2[crc >> 16 & 255]
               ^ t3[crc >> 24] ^ const)
    elif tail > 0:
        crc = zlib.crc32(zero_run(tail), crc)
    return crc


def _content(payload: bytes, nominal: int) -> bytes:
    """The payload zero-extended to ``nominal`` (itself when unpadded)."""
    if nominal == len(payload):
        return payload
    return b"".join((payload, zero_run(nominal - len(payload))))


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


class ObjectStore:
    """Flat key -> bytes store with namespace helpers and IO accounting.

    Each key maps to ``(payload, nominal length)``; the content it stands
    for is the payload zero-extended to the nominal length (see module
    docs).  Every size and CRC is over that content."""

    def __init__(self, volume: Optional[Volume] = None, name: str = "store"):
        self.name = name
        self.volume = volume or Volume(capacity_bytes=1 << 40)
        self._objects: Dict[str, Tuple[bytes, int]] = {}
        self._crcs: Dict[str, int] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # -- CRUD -------------------------------------------------------------
    def put(self, key: str, blob: bytes, nominal: int = 0) -> None:
        """Write ``blob`` zero-extended to ``nominal`` bytes (if longer)."""
        if not key:
            raise ValueError("empty key")
        nominal = max(nominal, len(blob))
        self._rebook(key, nominal)
        self._objects[key] = (blob, nominal)
        self._crcs[key] = content_crc(blob, nominal)
        self.bytes_written += nominal

    def get(self, key: str) -> bytes:
        """Workload read: counts toward IO accounting, verifies the CRC."""
        payload, nominal = self._lookup(key)
        if content_crc(payload, nominal) != self._crcs[key]:
            raise CorruptObjectError(self.name, key)
        self.bytes_read += nominal
        return _content(payload, nominal)

    def peek(self, key: str, verify: bool = False) -> bytes:
        """Maintenance read (snapshot / scrub / replication repair).

        Does not count toward ``bytes_read`` — taking a snapshot must not
        mutate workload IO stats.  With ``verify`` the CRC is still
        enforced, which is what repair uses to pick a healthy donor.
        The full content: a padded object's zeros are materialised.
        """
        return _content(*self.peek_payload(key, verify))

    def peek_payload(self, key: str, verify: bool = False
                     ) -> Tuple[bytes, int]:
        """Maintenance read of ``(payload, nominal length)`` as held: the
        zero tail stays a number (snapshots, repair and migration)."""
        held = self._lookup(key)
        if verify and content_crc(*held) != self._crcs[key]:
            raise CorruptObjectError(self.name, key)
        return held

    def verify(self, key: str) -> bool:
        """Does the stored blob still match its write-time CRC32?"""
        return content_crc(*self._lookup(key)) == self._crcs[key]

    def stored_crc(self, key: str) -> int:
        """The CRC32 recorded when the object was last written."""
        self._lookup(key)
        return self._crcs[key]

    def delete(self, key: str) -> None:
        try:
            _payload, nominal = self._objects.pop(key)
        except KeyError:
            raise MissingObjectError(key) from None
        self._crcs.pop(key, None)
        self.volume.release(nominal)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def size_of(self, key: str) -> int:
        return self._lookup(key)[1]

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
        events: ``blob`` is the full new content (a flip may land in the
        zero tail, a torn write shortens it), volume accounting tracks
        its length (the media still holds that many bytes) but the
        write-time checksum is left stale, exactly like silent
        corruption under a filesystem.
        """
        self._lookup(key)
        self._rebook(key, len(blob))
        self._objects[key] = (blob[:payload_length(blob)], len(blob))

    def restore_object(self, key: str, blob: bytes, crc: int,
                       nominal: int = 0) -> None:
        """Snapshot-restore seam: reinstate an object (``blob``
        zero-extended to ``nominal``) with its recorded CRC, so
        corruption that predates a snapshot is still detectable by a
        scrub after the restore.  Not a workload write: only the volume
        reservation is taken, nothing is hashed or counted."""
        if not key:
            raise ValueError("empty key")
        nominal = max(nominal, len(blob))
        self._rebook(key, nominal)
        self._objects[key] = (blob, nominal)
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

    def derived_preproc(self, photo_id: str, memo: Optional[Dict[
            Tuple[bytes, int], Optional[bytes]]] = None) -> Optional[bytes]:
        """The ``preproc/`` blob that ``raw/<photo_id>`` derives
        (:func:`~repro.storage.imageformat.derive_preprocessed`), or
        ``None`` when that blob is absent or is not a photo.  A
        maintenance read of the held payload: its zero tail stays a
        length, extended only as far as the photo header reaches.

        ``memo`` maps a held ``(payload, nominal length)`` to what it
        derives: a pass over several stores hands each the same dict,
        so replicas holding one payload derive it once."""
        held = self._objects.get(self.raw_key(photo_id))
        if held is None:
            return None
        if memo is not None and held in memo:
            return memo[held]
        try:
            blob = derive_preprocessed(*held)
        except CodecError:
            blob = None
        if memo is not None:
            memo[held] = blob
        return blob

    # -- accounting ---------------------------------------------------------
    def bytes_by_prefix(self, prefix: str) -> int:
        return sum(self._objects[k][1] for k in self.keys(prefix))

    # -- internals ----------------------------------------------------------
    def _rebook(self, key: str, nominal: int) -> None:
        """Move ``key``'s volume reservation (if any) to ``nominal`` bytes."""
        old = self._objects.get(key)
        delta = nominal - (old[1] if old is not None else 0)
        if delta > 0:
            self.volume.reserve(delta)
        elif delta < 0:
            self.volume.release(-delta)

    def _lookup(self, key: str) -> Tuple[bytes, int]:
        try:
            return self._objects[key]
        except KeyError:
            raise MissingObjectError(key) from None
