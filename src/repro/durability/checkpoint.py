"""Crash-consistent checkpoint framing for the whole NDPipe lifecycle.

One checkpoint is a single self-describing blob:

``NDCP | 3 | len(4B) | deflate(manifest) | blob table | CRC32 trailer``

where the blob table is ``count(4B)`` then ``len(8B) + bytes`` per blob.

The JSON manifest holds every scalar (tuner version, RNG state, ingest
counters, the FT-DMP run journal) and points into a table of binary
blobs for the heavy payloads — model ``state_dict`` tensors, optimizer
moments, per-store :class:`ObjectStore` snapshots, the photo database.
The CRC32 trailer covers the entire frame, so a truncated-after-inflate
or bit-flipped checkpoint fails with :class:`CheckpointError` instead of
resuming from silently-wrong state (the same promise Check-N-Run makes
for model deltas in flight).

The assembly of a cluster's manifest lives in
:meth:`repro.core.cluster.NDPipeCluster.checkpoint` /
:meth:`~repro.core.cluster.NDPipeCluster.restore`; this module owns the
format so storage and core never disagree about bytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..storage.compression import WEIGHTS, deflate, inflate
from ..storage.persistence import seal

CHECKPOINT_MAGIC = b"NDCP"
#: v2: the frame no longer deflates its body (blobs arrive compressed by
#: their producers) and the blob table is content-deduplicated.  v3: the
#: journal's pixels are one stacked array in byte planes.
_VERSION = 3
#: versions refused by name: what each laid out differently
_RETIRED = {1: "whole-body deflate", 2: "per-entry journal pixel table"}


class CheckpointError(ValueError):
    """Raised on malformed, truncated, or bit-flipped checkpoint blobs."""


# ---------------------------------------------------------------------------
# FT-DMP progress journal
# ---------------------------------------------------------------------------
@dataclass
class FinetuneProgress:
    """The run journal a mid-lifecycle checkpoint carries.

    ``next_run`` is the first run that has *not* completed; ``run_plan``
    pins the per-run, per-store photo assignment so a resumed lifecycle
    replays the identical schedule.  ``report`` carries the cumulative
    :class:`~repro.core.ftdmp.FinetuneReport` fields so far, so the
    resumed report matches an uninterrupted one.
    """

    num_runs: int
    epochs: int
    next_run: int
    run_plan: List[Dict[str, List[str]]]
    report: Dict[str, Any] = field(default_factory=dict)
    relocate_lost: bool = False

    @property
    def finished_gathering(self) -> bool:
        """Every run trained; only the distribution round remains."""
        return self.next_run >= self.num_runs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_runs": self.num_runs, "epochs": self.epochs,
            "next_run": self.next_run, "run_plan": self.run_plan,
            "report": self.report, "relocate_lost": self.relocate_lost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FinetuneProgress":
        return cls(
            num_runs=data["num_runs"], epochs=data["epochs"],
            next_run=data["next_run"], run_plan=data["run_plan"],
            report=data.get("report", {}),
            relocate_lost=data.get("relocate_lost", False),
        )


# ---------------------------------------------------------------------------
# Array packing (state dicts, optimizer moments)
# ---------------------------------------------------------------------------
def pack_arrays(arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialise named arrays bit-exactly (key, dtype, shape, raw bytes)."""
    parts = [struct.pack(">I", len(arrays))]
    for key in sorted(arrays):
        # asarray(order="C"), not ascontiguousarray: the latter silently
        # promotes 0-d arrays to shape (1,), breaking bit-exactness
        arr = np.asarray(arrays[key], order="C")
        key_bytes = key.encode()
        dtype_bytes = arr.dtype.str.encode()
        raw = arr.tobytes()
        parts += (struct.pack(">H", len(key_bytes)), key_bytes,
                  struct.pack(">B", len(dtype_bytes)), dtype_bytes,
                  struct.pack(f">B{arr.ndim + 1}Q", arr.ndim, *arr.shape,
                              len(raw)),
                  raw)
    return b"".join(parts)


def unpack_arrays(blob: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`; every array is a fresh writable copy."""
    view = memoryview(blob)
    try:
        offset = 0
        (count,) = struct.unpack_from(">I", view, offset)
        offset += 4
        arrays: Dict[str, np.ndarray] = {}
        for _ in range(count):
            (key_len,) = struct.unpack_from(">H", view, offset)
            offset += 2
            key = str(view[offset:offset + key_len], "utf-8")
            offset += key_len
            (dtype_len,) = struct.unpack_from(">B", view, offset)
            offset += 1
            dtype = np.dtype(str(view[offset:offset + dtype_len], "utf-8"))
            offset += dtype_len
            (ndim,) = struct.unpack_from(">B", view, offset)
            *shape, raw_len = struct.unpack_from(f">{ndim + 1}Q", view,
                                                 offset + 1)
            offset += 1 + 8 * (ndim + 1)
            if offset + raw_len > len(view):
                raise ValueError("array table truncated")
            # the one payload copy: straight out of the frame's buffer
            arrays[key] = np.frombuffer(
                view[offset:offset + raw_len], dtype=dtype,
            ).reshape(shape).copy()
            offset += raw_len
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"corrupt array table: {exc}") from exc
    if offset != len(view):
        raise CheckpointError("trailing bytes in array table")
    return arrays


# ---------------------------------------------------------------------------
# The outer frame
# ---------------------------------------------------------------------------
class BlobTable:
    """A frame's blob table under construction, deduplicated by content:
    bytes already seen return their existing index, so N stores at the
    Tuner's version share one model blob.  Sealed snapshots arrive
    deflated by their producer and are stored verbatim (:meth:`add`);
    array tables get their one deflate in :meth:`add_arrays`."""

    def __init__(self) -> None:
        self.blobs: List[bytes] = []
        self._index: Dict[bytes, int] = {}

    def add(self, blob: bytes, encode=None) -> int:
        index = self._index.get(blob)
        if index is None:
            index = self._index[blob] = len(self.blobs)
            self.blobs.append(blob if encode is None else encode(blob))
        return index

    def add_arrays(self, arrays: Dict[str, np.ndarray]) -> int:
        # model weights and Adam moments; WEIGHTS says why their tables are
        # not deflated as PIXELS
        return self.add(pack_arrays(arrays),
                        encode=lambda table: deflate(table, WEIGHTS))


class ArrayReader:
    """Inverse of :meth:`BlobTable.add_arrays` over a frame's blobs: a
    shared blob is inflated once, yet every call unpacks its own copy, so
    each owner gets private writable arrays."""

    def __init__(self, blobs: List[memoryview]) -> None:
        self._blobs = blobs
        self._tables: Dict[int, bytes] = {}

    def __call__(self, index: int) -> Dict[str, np.ndarray]:
        table = self._tables.get(index)
        if table is None:
            try:
                table = self._tables[index] = inflate(self._blobs[index])
            except ValueError as exc:
                raise CheckpointError(f"corrupt array blob: {exc}") from exc
        return unpack_arrays(table)


def write_frame(manifest: Dict[str, Any], blobs: List[bytes]) -> bytes:
    """Seal a manifest + blob table into one CRC-trailed checkpoint blob.
    Only the manifest is deflated here; blobs are laid down as given."""
    packed = deflate(
        json.dumps(manifest, separators=(",", ":")).encode())
    parts = [CHECKPOINT_MAGIC, struct.pack(">BI", _VERSION, len(packed)),
             packed, struct.pack(">I", len(blobs))]
    for blob in blobs:
        parts += (struct.pack(">Q", len(blob)), blob)
    return seal(parts)


def read_frame(blob: bytes) -> Tuple[Dict[str, Any], List[memoryview]]:
    """Verify and unpack a checkpoint frame; loud on any damage.

    The trailer check reads every byte; after it only the manifest is
    inflated.  The blobs are read-only views into ``blob``: decode them
    with :class:`ArrayReader` or the snapshot loaders, which copy."""
    head = len(CHECKPOINT_MAGIC) + 1
    if len(blob) < head + 4:
        raise CheckpointError("checkpoint too short")
    frame = memoryview(blob)[:-4]
    if frame[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("not an NDPipe checkpoint (bad magic)")
    if zlib.crc32(frame) != struct.unpack_from(">I", blob, len(frame))[0]:
        raise CheckpointError(
            "checkpoint failed its CRC32 trailer check — refusing to "
            "resume from corrupt state"
        )
    version = frame[len(CHECKPOINT_MAGIC)]
    if version in _RETIRED:
        raise CheckpointError(
            f"checkpoint is version {version} ({_RETIRED[version]}), which "
            "this release no longer reads; re-create it with this release"
        )
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        (manifest_len,) = struct.unpack_from(">I", frame, head)
        offset = head + 4 + manifest_len
        manifest = json.loads(inflate(frame[head + 4:offset]))
        (num_blobs,) = struct.unpack_from(">I", frame, offset)
        offset += 4
        blobs: List[memoryview] = []
        for _ in range(num_blobs):
            (blob_len,) = struct.unpack_from(">Q", frame, offset)
            offset += 8 + blob_len
            blobs.append(frame[offset - blob_len:offset])
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint frame: {exc}") from exc
    if offset != len(frame):
        raise CheckpointError("blob table does not end at the trailer "
                              "(truncated table or trailing bytes)")
    return manifest, blobs


def tuner_section(tuner_state: Dict[str, Any],
                  table: BlobTable) -> Dict[str, Any]:
    """The manifest's ``"tuner"`` section; heavy arrays go into ``table``."""
    opt = tuner_state["optimizer"]
    return {
        "version": tuner_state["version"],
        "split": tuner_state["split"],
        "lr": tuner_state["lr"],
        "rng": tuner_state["rng"],
        "model_blob": table.add_arrays(tuner_state["model"]),
        "last_distributed_blob": (
            None if tuner_state["last_distributed"] is None
            else table.add_arrays(tuner_state["last_distributed"])),
        "optimizer": None if opt is None else {
            "t": opt["t"],
            "m_blob": table.add_arrays(opt["m"]),
            "v_blob": table.add_arrays(opt["v"]),
        },
    }


def tuner_state_from(section: Dict[str, Any],
                     arrays: ArrayReader) -> Dict[str, Any]:
    """Inverse of :func:`tuner_section` (feeds ``import_training_state``)."""
    last_blob = section["last_distributed_blob"]
    opt = section["optimizer"]
    return {
        "version": section["version"],
        "split": section["split"],
        "lr": section["lr"],
        "rng": section["rng"],
        "model": arrays(section["model_blob"]),
        "last_distributed": (
            None if last_blob is None else arrays(last_blob)),
        "optimizer": None if opt is None else {
            "t": opt["t"],
            "m": arrays(opt["m_blob"]),
            "v": arrays(opt["v_blob"]),
        },
    }


# ---------------------------------------------------------------------------
# Tuner-scoped frames (HA standby shipping)
# ---------------------------------------------------------------------------
#: manifest tag distinguishing a tuner-scoped HA frame from a full
#: cluster checkpoint — both share the NDCP framing and CRC trailer
TUNER_FRAME_KIND = "tuner-ha"


def pack_tuner_state(tuner_state: Dict[str, Any], epoch: int,
                     ftdmp: Optional[FinetuneProgress] = None) -> bytes:
    """Seal one Tuner's training state into a shippable NDCP frame.

    Unlike :meth:`~repro.core.cluster.NDPipeCluster.checkpoint` this
    carries *only* the Tuner — model, optimizer moments, RNG, version
    counters, election epoch, and the pending FT-DMP run journal — so a
    warm standby can be kept current at run boundaries without shipping
    (or later restoring) store snapshots the standby must not roll back.
    """
    table = BlobTable()
    manifest: Dict[str, Any] = {
        "kind": TUNER_FRAME_KIND,
        "epoch": int(epoch),
        "tuner": tuner_section(tuner_state, table),
        "ftdmp": None if ftdmp is None else ftdmp.to_dict(),
    }
    return write_frame(manifest, table.blobs)


def unpack_tuner_state(blob: bytes,
                       ) -> Tuple[Dict[str, Any], int,
                                  Optional[FinetuneProgress]]:
    """Inverse of :func:`pack_tuner_state`.

    Returns ``(tuner_state, epoch, pending_progress)`` where
    ``tuner_state`` feeds ``Tuner.import_training_state`` directly.
    """
    manifest, blobs = read_frame(blob)
    try:
        if manifest.get("kind") != TUNER_FRAME_KIND:
            raise CheckpointError(
                f"expected a {TUNER_FRAME_KIND!r} frame, got "
                f"{manifest.get('kind')!r} (a full cluster checkpoint "
                "cannot be shipped to a standby)"
            )
        epoch = int(manifest["epoch"])
        tuner_state = tuner_state_from(manifest["tuner"],
                                       ArrayReader(blobs))
        tuner_state["epoch"] = epoch
        progress = (None if manifest["ftdmp"] is None
                    else FinetuneProgress.from_dict(manifest["ftdmp"]))
    except (KeyError, IndexError, TypeError) as exc:
        raise CheckpointError(
            f"malformed tuner frame manifest: {exc!r}") from exc
    return tuner_state, epoch, progress


def inspect_checkpoint(blob: bytes) -> Dict[str, Any]:
    """A cheap summary: trailer verified, manifest inflated, no blob read."""
    manifest, blobs = read_frame(blob)
    ftdmp = manifest.get("ftdmp")
    return {
        "tuner_version": manifest["tuner"]["version"],
        "num_stores": len(manifest["stores"]),
        "store_ids": [s["store_id"] for s in manifest["stores"]],
        "photos": manifest["cluster"]["ingest_counter"],
        "replication": manifest["cluster"]["replication"],
        "pending_finetune": (None if ftdmp is None else {
            "next_run": ftdmp["next_run"], "num_runs": ftdmp["num_runs"],
        }),
        "blob_bytes": sum(len(b) for b in blobs),
    }


def rng_state_to_json(rng: np.random.Generator) -> Dict[str, Any]:
    """A JSON-safe copy of a Generator's bit-generator state."""
    return _jsonify(rng.bit_generator.state)


def rng_state_from_json(state: Dict[str, Any]) -> Dict[str, Any]:
    return state


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
