"""Snapshot / restore for the storage substrate.

Production photo stores survive restarts; this module gives the in-memory
substrate the same property with explicit, versioned serialisation:

* :func:`dump_object_store` / :func:`load_object_store` — every object
  plus the volume's capacity accounting and per-object CRC32s,
  deflate-framed;
* :func:`dump_photo_database` / :func:`load_photo_database` — all current
  label records and their full version history.

Formats are self-describing (magic + version) and every frame ends in a
CRC32 trailer over everything before it, so a truncated, bit-flipped, or
otherwise damaged snapshot fails with :class:`SnapshotError` instead of
loading silently-wrong state.  Version 2 introduced the trailer and
per-object CRCs; version 1 snapshots (which carried no integrity data at
all) are rejected loudly rather than trusted.

Snapshots read through :meth:`ObjectStore.peek`, so taking one never
perturbs workload IO accounting (``bytes_read``).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Sequence, Tuple

from .compression import deflate, inflate
from .objectstore import ObjectStore, Volume
from .photodb import LabelRecord, PhotoDatabase

_STORE_MAGIC = b"NDPS"
_DB_MAGIC = b"NDPD"
#: v2: CRC32 frame trailers + per-object CRCs in store snapshots.  v1
#: frames carried no integrity data and are refused (see module docs).
_VERSION = 2


class SnapshotError(ValueError):
    """Raised on malformed or incompatible snapshot blobs."""


def seal(parts: Sequence[bytes]) -> bytes:
    """Join a frame's parts once, appending the CRC32 over all of them
    (folded part by part: the join is the frame's only full-size copy)."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack(">I", crc)])


def _unseal(blob: bytes, what: str) -> memoryview:
    """Verify the CRC32 trailer; return a view of the frame before it."""
    if len(blob) < 4:
        raise SnapshotError(f"{what} snapshot too short for a CRC trailer")
    frame = memoryview(blob)[:-4]
    (expected,) = struct.unpack_from(">I", blob, len(frame))
    if zlib.crc32(frame) != expected:
        raise SnapshotError(
            f"{what} snapshot failed its CRC32 trailer check — the blob "
            "is corrupt, truncated, or a pre-v2 snapshot"
        )
    return frame


def _check_version(version: int, what: str) -> None:
    if version == 1:
        raise SnapshotError(
            f"{what} snapshot is version 1, which predates integrity "
            "trailers and cannot be trusted; re-create it with this release"
        )
    if version != _VERSION:
        raise SnapshotError(f"unsupported {what} snapshot version {version}")


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------
def dump_object_store(store: ObjectStore) -> bytes:
    """Serialise a store (keys, blobs, CRCs, volume accounting) to one blob."""
    keys = store.keys()
    parts = []
    for key in keys:
        key_bytes = key.encode()
        blob = store.peek(key)
        parts += (struct.pack(">H", len(key_bytes)), key_bytes,
                  struct.pack(">II", store.stored_crc(key), len(blob)), blob)
    header = struct.pack(
        ">4sBQI", _STORE_MAGIC, _VERSION, store.volume.capacity_bytes,
        len(keys),
    )
    # the one deflate these bytes get: a checkpoint stores this verbatim.
    # Level 1: what squeezes is the raw blobs' zero padding, as well as at
    # level 6; deflated payloads do not at any level, and float feature
    # rows give level 6 five points (44 % vs 49 %) for 4.5x the time
    return seal([header, deflate(b"".join(parts), level=1)])


def load_object_store(blob: bytes, name: str = "restored") -> ObjectStore:
    """Reconstruct an :class:`ObjectStore` from a snapshot blob."""
    header_size = struct.calcsize(">4sBQI")
    if len(blob) < header_size + 4:
        raise SnapshotError("snapshot too short")
    if blob[:4] != _STORE_MAGIC:
        raise SnapshotError("not an object-store snapshot")
    frame = _unseal(blob, "object-store")
    _magic, version, capacity, count = struct.unpack_from(">4sBQI", frame)
    _check_version(version, "object-store")
    try:
        body = memoryview(inflate(frame[header_size:]))
    except ValueError as exc:
        raise SnapshotError(f"corrupt object-store snapshot: {exc}") from exc
    store = ObjectStore(Volume(capacity_bytes=capacity), name=name)
    offset = 0
    try:
        for _ in range(count):
            (key_len,) = struct.unpack_from(">H", body, offset)
            offset += 2
            key = str(body[offset:offset + key_len], "utf-8")
            offset += key_len
            crc, blob_len = struct.unpack_from(">II", body, offset)
            offset += 8
            if offset + blob_len > len(body):
                raise SnapshotError("object-store snapshot body truncated")
            store.restore_object(
                key, bytes(body[offset:offset + blob_len]), crc)
            offset += blob_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"corrupt object-store snapshot: {exc}") from exc
    if offset != len(body):
        raise SnapshotError("trailing bytes in object-store snapshot")
    return store


# ---------------------------------------------------------------------------
# Photo database
# ---------------------------------------------------------------------------
def _record_to_dict(record: LabelRecord) -> dict:
    return {
        "photo_id": record.photo_id,
        "label": record.label,
        "model_version": record.model_version,
        "location": record.location,
        "confidence": record.confidence,
    }


def dump_photo_database(db: PhotoDatabase) -> bytes:
    """Serialise the label database, including per-photo history."""
    payload = {
        "version": _VERSION,
        "history": {
            photo_id: [_record_to_dict(r) for r in db.history(photo_id)]
            for photo_id in sorted(db.snapshot_labels())
        },
    }
    return seal([_DB_MAGIC, deflate(json.dumps(payload).encode())])


def load_photo_database(blob: bytes) -> PhotoDatabase:
    """Reconstruct a :class:`PhotoDatabase`, replaying version history."""
    if blob[:len(_DB_MAGIC)] != _DB_MAGIC:
        raise SnapshotError("not a photo-database snapshot")
    frame = _unseal(blob, "photo-database")
    try:
        payload = json.loads(inflate(frame[len(_DB_MAGIC):]))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"corrupt database snapshot: {exc}") from exc
    _check_version(payload.get("version"), "photo-database")
    db = PhotoDatabase()
    for records in payload["history"].values():
        for rec in records:
            db.upsert(LabelRecord(
                photo_id=rec["photo_id"], label=rec["label"],
                model_version=rec["model_version"],
                location=rec["location"], confidence=rec["confidence"],
            ))
    return db


def snapshot_sizes(store: ObjectStore, db: PhotoDatabase) -> Tuple[int, int]:
    """(store snapshot bytes, db snapshot bytes) — capacity planning."""
    return len(dump_object_store(store)), len(dump_photo_database(db))
