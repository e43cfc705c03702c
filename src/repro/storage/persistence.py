"""Snapshot / restore for the storage substrate.

Production photo stores survive restarts; this module gives the in-memory
substrate the same property with explicit, versioned serialisation:

* :func:`dump_object_store` / :func:`load_object_store` — every object
  plus the volume's capacity accounting and per-object CRC32s; an
  object's trailing zero run travels as a length, already-deflated
  objects verbatim, only the ``feat/`` rows through a deflate, and a
  ``preproc/`` blob its ``raw/`` blob derives as its key and CRC alone;
* :func:`dump_photo_database` / :func:`load_photo_database` — all current
  label records and their full version history.

Formats are self-describing (magic + version) and every frame ends in a
CRC32 trailer over everything before it, so a truncated, bit-flipped, or
otherwise damaged snapshot fails with :class:`SnapshotError` instead of
loading silently-wrong state.  Version 2 introduced the trailer and
per-object CRCs; version 3 stopped deflating the store snapshot's whole
body; version 4 stopped holding derived ``preproc/`` blobs (the database
payload is unchanged since version 2 and only carries the number).
Older versions are refused by name: version 1 carried no integrity data
at all, and this release keeps no reader for versions 2 and 3.

Snapshots read through :meth:`ObjectStore.peek_payload`, so taking one
never perturbs workload IO accounting (``bytes_read``) nor materialises
a padded object's zeros.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Optional, Sequence

from .compression import FEATURE_ROWS, deflate, inflate
from .objectstore import (ObjectStore, StorageFullError, Volume,
                          payload_length)
from .photodb import LabelRecord, PhotoDatabase

_STORE_MAGIC = b"NDPS"
_DB_MAGIC = b"NDPD"
#: v4: store snapshots keep zero runs as lengths, deflate only what
#: squeezes and hold a derived ``preproc/`` blob as its key and CRC.  v3
#: (derived blobs held), v2 (whole-body deflate) and v1 (no integrity
#: data) are refused (see module docs).
_VERSION = 4
#: what each refused version laid out differently
_RETIRED = {2: "whole-body deflate", 3: "derived preproc/ blobs held"}


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
    if version in _RETIRED:
        raise SnapshotError(
            f"{what} snapshot is version {version} ({_RETIRED[version]}), "
            "which this release no longer reads; re-create it with this "
            "release"
        )
    if version != _VERSION:
        raise SnapshotError(f"unsupported {what} snapshot version {version}")


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------
#: magic, version, volume capacity, object count, verbatim-segment
#: length, derived-record count
_STORE_HEAD = struct.Struct(">4sBQIQI")
#: key length, stored CRC32, nominal length, payload length
_RECORD_HEAD = struct.Struct(">HIII")
#: key length, stored CRC32 (a derived record: no payload)
_DERIVED_HEAD = struct.Struct(">HI")
#: the one namespace whose objects squeeze (see :func:`dump_object_store`)
_SQUEEZED = ObjectStore.feature_key("")
#: the namespace whose blobs derive from the ``raw/`` blob of their id
_DERIVED = ObjectStore.preproc_key("")


def dump_object_store(store: ObjectStore, memo: Optional[dict] = None,
                      ) -> bytes:
    """Serialise a store (keys, blobs, CRCs, volume accounting) to one blob:
    ``head | verbatim records | derived records | deflate(squeezed
    records) | CRC32``.

    A record is ``key length, stored CRC, nominal length, payload length |
    key | payload`` and stands for ``payload + bytes(nominal - payload)``:
    the trailing zero run (a nominal-size raw blob's padding, a ReLU row's
    tail) is kept as a length, never as bytes.  A derived record is ``key
    length, stored CRC | key``: a CRC-clean ``preproc/`` blob that is
    exactly the one its ``raw/`` blob derives, re-derived on load.
    Snapshots of several stores taken together share one ``memo``
    (:meth:`~repro.storage.objectstore.ObjectStore.derived_preproc`).
    """
    verbatim, derived, squeezed = [], [], []
    for key in store.keys():
        key_bytes = key.encode()
        # held payloads, read in place; a payload's own trailing zeros
        # (a ReLU row's tail) still fold into the run
        blob, nominal = store.peek_payload(key)
        if (key.startswith(_DERIVED)
                and _derives(store, key, blob, nominal, memo)):
            derived += (_DERIVED_HEAD.pack(len(key_bytes),
                                           store.stored_crc(key)), key_bytes)
            continue
        payload_len = payload_length(blob)
        records = squeezed if key.startswith(_SQUEEZED) else verbatim
        records += (
            _RECORD_HEAD.pack(len(key_bytes), store.stored_crc(key),
                              nominal, payload_len),
            key_bytes, blob[:payload_len])
    body = b"".join(verbatim)
    head = _STORE_HEAD.pack(_STORE_MAGIC, _VERSION,
                            store.volume.capacity_bytes, len(store), len(body),
                            len(derived) // 2)
    # deflate only what squeezes; a checkpoint stores the result verbatim.
    # Level-1 ratios measured per namespace on a 256-photo store with the
    # zero runs already out: raw/ payloads 0.98 (a zlib stream) and
    # preproc/ frames 1.00 (8-bit codes; a store's raw/ codes repeat them,
    # so they are derived instead), feat/ float rows 0.76 — where Z_RLE
    # keeps 0.78 for under half the time (FEATURE_ROWS)
    return seal([head, body, *derived,
                 deflate(b"".join(squeezed), FEATURE_ROWS)])


def _derives(store: ObjectStore, key: str, blob: bytes, nominal: int,
             memo: Optional[dict]) -> bool:
    """Is the object at ``key`` CRC-clean and exactly the blob its
    ``raw/`` blob derives?  (A rotten blob travels verbatim, so a scrub
    after the restore still finds it.)"""
    return (nominal == len(blob) and store.verify(key)
            and blob == store.derived_preproc(key[len(_DERIVED):], memo))


def _restore_records(store: ObjectStore, records: memoryview,
                     payloads: Dict[bytes, bytes]) -> None:
    """Reinstate the objects of one record segment, read in place; each
    payload is held once per distinct content across ``payloads``."""
    offset = 0
    while offset < len(records):
        key_len, crc, nominal_len, payload_len = _RECORD_HEAD.unpack_from(
            records, offset)
        payload_at = offset + _RECORD_HEAD.size + key_len
        offset = payload_at + payload_len
        if offset > len(records):
            raise SnapshotError("object-store snapshot record truncated")
        key = str(records[payload_at - key_len:payload_at], "utf-8")
        if payload_len > nominal_len:
            raise SnapshotError(
                f"object {key!r}: {payload_len} payload bytes exceed its "
                f"nominal length {nominal_len}")
        if store.exists(key):
            raise SnapshotError(
                f"duplicate key {key!r} in object-store snapshot")
        # copied out of the frame once; the zero run stays a length
        payload = bytes(records[payload_at:offset])
        store.restore_object(key, payloads.setdefault(payload, payload), crc,
                             nominal_len)


def _restore_derived(store: ObjectStore, frame: memoryview, offset: int,
                     count: int, payloads: Dict[bytes, bytes],
                     memo: Optional[dict]) -> int:
    """Reinstate ``count`` derived records read from ``offset``, each
    from its ``raw/`` blob (restored already), checked against its
    recorded CRC; returns the offset after them."""
    for _ in range(count):
        key_len, crc = _DERIVED_HEAD.unpack_from(frame, offset)
        offset += _DERIVED_HEAD.size + key_len
        key = str(frame[offset - key_len:offset], "utf-8")
        if not key.startswith(_DERIVED):
            raise SnapshotError(f"derived record {key!r} is not a "
                                f"{_DERIVED} blob")
        blob = store.derived_preproc(key[len(_DERIVED):], memo)
        if blob is None or zlib.crc32(blob) != crc:
            raise SnapshotError(
                f"derived record {key!r} does not match what its raw/ blob "
                "derives")
        if store.exists(key):
            raise SnapshotError(
                f"duplicate key {key!r} in object-store snapshot")
        store.restore_object(key, payloads.setdefault(blob, blob), crc)
    return offset


def load_object_store(blob: bytes, name: str = "restored",
                      payloads: Optional[Dict[bytes, bytes]] = None,
                      memo: Optional[dict] = None) -> ObjectStore:
    """Reconstruct an :class:`ObjectStore` from a snapshot blob.

    Stores restored with one ``payloads`` dict hold one ``bytes`` object
    per distinct payload between them, as replicas of a live ingest do;
    with one ``memo`` too, each such ``raw/`` payload is derived once
    (:meth:`~repro.storage.objectstore.ObjectStore.derived_preproc`)."""
    if len(blob) < _STORE_HEAD.size + 4:
        raise SnapshotError("snapshot too short")
    if blob[:4] != _STORE_MAGIC:
        raise SnapshotError("not an object-store snapshot")
    frame = _unseal(blob, "object-store")
    _check_version(frame[len(_STORE_MAGIC)], "object-store")
    (_magic, _version, capacity, count, verbatim_len,
     derived_count) = _STORE_HEAD.unpack_from(frame)
    derived_at = _STORE_HEAD.size + verbatim_len
    if derived_at > len(frame):
        raise SnapshotError(
            "object-store snapshot's verbatim segment overruns the frame")
    store = ObjectStore(Volume(capacity_bytes=capacity), name=name)
    try:
        payloads = {} if payloads is None else payloads
        _restore_records(store, frame[_STORE_HEAD.size:derived_at],
                         payloads)
        squeezed_at = _restore_derived(store, frame, derived_at,
                                       derived_count, payloads, memo)
        _restore_records(store, memoryview(inflate(frame[squeezed_at:])),
                         payloads)
    except SnapshotError:
        raise
    except (struct.error, ValueError, StorageFullError) as exc:
        # ValueError: a bad deflate stream, undecodable or empty key
        raise SnapshotError(
            f"corrupt object-store snapshot: {exc}") from exc
    if len(store) != count:
        raise SnapshotError(
            f"object-store snapshot holds {len(store)} objects, its header "
            f"promises {count}")
    return store


def squeezed_segment(blob: bytes) -> bytes:
    """The deflated ``feat/`` segment of a store snapshot, as written
    (what ``repro report codec-fit`` measures
    :data:`~repro.storage.compression.FEATURE_ROWS` on)."""
    frame = _unseal(blob, "object-store")
    *_, verbatim_len, derived_count = _STORE_HEAD.unpack_from(frame)
    offset = _STORE_HEAD.size + verbatim_len
    for _ in range(derived_count):
        offset += _DERIVED_HEAD.size + _DERIVED_HEAD.unpack_from(
            frame, offset)[0]
    return bytes(frame[offset:])


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
