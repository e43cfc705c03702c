"""Check-N-Run model-delta distribution (§5, citing Eisenman et al.).

After fine-tuning, only the classifier's weights differ from what every
PipeStore already holds.  Instead of shipping whole models, the Tuner ships
a deflate-compressed delta containing just the changed tensors; each
PipeStore applies it locally.  The paper reports up to a 427.4x traffic
reduction; the encoder below achieves comparable ratios because the delta
holds only the tail layers and compresses well.

The live format is quantised, like Check-N-Run's: every changed
floating-point tensor ships its difference uniformly quantised to
:data:`LIVE_DELTA_BITS` per element, and every other tensor (integer,
bool) ships exact.  The Tuner never ships its training master.  It ships
a *published* state — what every replica holds — and each round encodes
``master - published`` and rebuilds the next published state with the
same :func:`changed_tensors` the stores run.  The quantisation residual
therefore folds into the next round (error feedback) without a second
buffer and stays within half that round's step per element (plus one
rounding to the tensor's dtype), and every replica stays bit-identical
to the Tuner's published state.

Installs and resyncs are not deltas: a :class:`ReplicaSync` carries the
published classifier plus a fingerprint of the frozen front (the first
bytes of its digest), which the store already holds — a replica is
provisioned from the fleet's one front value; only a store whose front
has another digest is sent the whole state.

The exact mode (``quantize_bits=None``) is the ablation and test
reference.  It encodes each changed tensor as an XOR of bit patterns in
the tensor's **native dtype** (``new ^ old`` on the raw bytes), so
``old ^ diff`` reconstructs ``new`` bit-for-bit in any dtype.  An
arithmetic diff cannot make that promise (``fl(fl(new - old) + old) !=
new`` under cancellation), and it also shipped float32 diffs at float64
width, doubling the wire size.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..models.split import FrozenFront


# CNR2: entry headers carry the tensor dtype and exact payloads are
# native-dtype XOR bit diffs (CNR1 shipped float64 arithmetic diffs,
# which were neither bit-exact nor compact for float32 states)
_MAGIC = b"CNR2"

#: bits per element of a live delta's floating-point entries
LIVE_DELTA_BITS = 4

#: bits per element of a feature row on the Store -> Tuner hop
#: (:class:`repro.core.ftdmp.FeatureRows`)
FEATURE_BITS = 8


#: wire bytes of a tail sync's fingerprint: the front digest's first bytes
FINGERPRINT_BYTES = 4


class DeltaError(ValueError):
    """Raised on malformed delta blobs or incompatible states."""


class BaseMismatchError(ValueError):
    """A store refused a tail sync: the front it holds is not the one
    the sync's fingerprint names."""


@dataclass(frozen=True)
class DeltaStats:
    """Traffic accounting for one distribution round."""

    full_model_bytes: int
    delta_bytes: int
    changed_tensors: int
    total_tensors: int

    @property
    def reduction_factor(self) -> float:
        if self.delta_bytes == 0:
            raise DeltaError("empty delta")
        return self.full_model_bytes / self.delta_bytes


def state_dict_bytes(state: Dict[str, np.ndarray]) -> int:
    """Serialized size of a whole model (what naive distribution ships)."""
    return sum(v.nbytes + len(k) + 8 for k, v in state.items())


@dataclass(frozen=True)
class ReplicaSync:
    """One message that brings a replica to a published state.

    A *tail* sync carries the classifier's tensors plus the fingerprint
    of the published front (the first :data:`FINGERPRINT_BYTES` of its
    digest); a store takes it only when its own front has that
    fingerprint.  A *whole* sync (``fingerprint`` None) carries every
    tensor: the fallback for a store whose front differs.
    """

    tensors: Dict[str, np.ndarray]
    split: int
    fingerprint: Optional[bytes] = None
    #: the published front value, handed over in process and never on
    #: the wire: the store holds it by reference once the sync is taken
    front: Optional["FrozenFront"] = None

    @property
    def num_bytes(self) -> int:
        """What the message puts on the fabric."""
        fingerprint = 0 if self.fingerprint is None else FINGERPRINT_BYTES
        return state_dict_bytes(self.tensors) + fingerprint


def replica_syncs(state: Dict[str, np.ndarray], split: int,
                  front: "FrozenFront") -> Tuple[ReplicaSync, ReplicaSync]:
    """The tail sync of a published ``state`` (whose front is ``front``)
    and its whole-state fallback; both share ``state``'s arrays."""
    tail = {key: value for key, value in state.items()
            if key not in front.arrays}
    return (ReplicaSync(tail, split, front.digest[:FINGERPRINT_BYTES], front),
            ReplicaSync(state, split, front=front))


def encode_delta(old: Dict[str, np.ndarray], new: Dict[str, np.ndarray],
                 quantize_bits: Optional[int] = None,
                 level: int = 6) -> bytes:
    """Encode ``new`` relative to ``old`` as a compressed delta blob.

    Only tensors that actually changed are included.  The exact mode
    (default) ships the XOR of the two tensors' bit patterns in the
    native dtype — reconstruction is bit-identical for every dtype.
    With ``quantize_bits`` set (e.g. 8), the arithmetic differences of
    floating-point tensors are uniformly quantised per tensor before
    compression — reconstruction is then approximate, within half a step
    (``range / (2^bits - 1)``) per element.  Other tensors ship exact:
    a rounded integer difference would corrupt them.
    """
    if set(old) != set(new):
        raise DeltaError(
            f"state dicts disagree on keys: {sorted(set(old) ^ set(new))}"
        )
    entries = []
    changed = 0
    for key in sorted(new):
        if old[key].shape != new[key].shape:
            raise DeltaError(f"shape changed for {key}")
        if old[key].dtype != new[key].dtype:
            raise DeltaError(f"dtype changed for {key}")
        if new[key] is old[key] or np.array_equal(old[key], new[key]):
            continue
        changed += 1
        if (quantize_bits is not None
                and np.issubdtype(new[key].dtype, np.floating)):
            # quantisation is approximate anyway; diff in float64 so the
            # grid is computed on exact differences
            diff = (new[key].astype(np.float64)
                    - old[key].astype(np.float64))
            codes, low, step = quantize(diff.reshape(1, -1), quantize_bits)
            payload = codes.tobytes()
            meta = (quantize_bits, float(low[0]), float(step[0]))
        else:
            payload, meta = _xor_payload(old[key], new[key]), (0, 0.0, 0.0)
        header = _entry_header(key, new[key].shape, new[key].dtype, meta,
                               len(payload))
        entries.append(header + payload)
    body = b"".join(entries)
    compressed = zlib.compress(body, level)
    # crc32 over the compressed body: a delta mangled in flight must fail
    # loudly (DeltaError -> the Tuner falls back to a resync) instead
    # of silently corrupting a replica
    checksum = zlib.crc32(compressed) & 0xFFFFFFFF
    return (_MAGIC + struct.pack(">I", changed)
            + struct.pack(">I", checksum) + compressed)


def apply_delta(old: Dict[str, np.ndarray], blob: bytes) -> Dict[str, np.ndarray]:
    """Reconstruct the new state dict from the old one plus a delta blob."""
    new = {k: v.copy() for k, v in old.items()}
    new.update(changed_tensors(old, blob))
    return new


def publish(published: Dict[str, np.ndarray], master: Dict[str, np.ndarray],
            ) -> Tuple[bytes, Dict[str, np.ndarray]]:
    """One live round: the delta from ``published`` towards ``master``,
    quantised at :data:`LIVE_DELTA_BITS`, and the state a replica holding
    ``published`` rebuilds from it.

    The new state is built by :func:`changed_tensors`, as the stores
    build theirs, so it is theirs bit for bit; unchanged tensors are
    shared with ``published``, not copied.
    """
    blob = encode_delta(published, master, quantize_bits=LIVE_DELTA_BITS)
    return blob, {**published, **changed_tensors(published, blob)}


def changed_tensors(old: Dict[str, np.ndarray],
                    blob: bytes) -> Dict[str, np.ndarray]:
    """Only the tensors a delta blob rewrites, rebuilt against ``old``;
    every other tensor of the new state is ``old``'s, unchanged."""
    if not blob.startswith(_MAGIC):
        raise DeltaError("bad delta magic")
    if len(blob) < 12:
        raise DeltaError("truncated delta blob")
    (changed,) = struct.unpack(">I", blob[4:8])
    (checksum,) = struct.unpack(">I", blob[8:12])
    compressed = blob[12:]
    if zlib.crc32(compressed) & 0xFFFFFFFF != checksum:
        raise DeltaError("delta checksum mismatch (corrupt blob)")
    body = zlib.decompress(compressed)
    # payloads are read through a memoryview so each tensor's bytes are
    # consumed in place instead of slice-copied out of the body first
    body_view = memoryview(body)
    new: Dict[str, np.ndarray] = {}
    offset = 0
    for _ in range(changed):
        key, shape, dtype, meta, payload_len, offset = _read_entry_header(
            body, offset)
        payload = body_view[offset:offset + payload_len]
        offset += payload_len
        if key not in old:
            raise DeltaError(f"delta names unknown tensor {key!r}")
        base = new.get(key, old[key])
        if base.shape != tuple(shape):
            raise DeltaError(f"shape mismatch applying delta to {key}")
        if base.dtype != dtype:
            raise DeltaError(
                f"dtype mismatch applying delta to {key}: base is "
                f"{base.dtype}, delta encoded {dtype}"
            )
        bits, low, step = meta
        if bits:
            codes = np.frombuffer(payload, dtype=code_dtype(bits))
            diff = dequantize(codes.reshape(1, -1), np.array([low]),
                              np.array([step])).reshape(shape)
            new[key] = (base.astype(np.float64) + diff).astype(dtype)
        else:
            new[key] = _apply_xor_payload(base, payload, dtype, shape)
    if offset != len(body):
        raise DeltaError("trailing bytes in delta body")
    return new


def delta_stats(old: Dict[str, np.ndarray], new: Dict[str, np.ndarray],
                quantize_bits: Optional[int] = None) -> DeltaStats:
    """Measure what one distribution round would cost on the wire."""
    blob = encode_delta(old, new, quantize_bits=quantize_bits)
    changed = sum(
        1 for key in new if not np.array_equal(old[key], new[key])
    )
    return DeltaStats(
        full_model_bytes=state_dict_bytes(new),
        delta_bytes=len(blob),
        changed_tensors=changed,
        total_tensors=len(new),
    )


# -- wire format helpers ----------------------------------------------------

def _xor_payload(old: np.ndarray, new: np.ndarray) -> bytes:
    """XOR of the two tensors' raw bit patterns (native dtype width)."""
    a = np.frombuffer(np.ascontiguousarray(old).tobytes(), dtype=np.uint8)
    b = np.frombuffer(np.ascontiguousarray(new).tobytes(), dtype=np.uint8)
    return np.bitwise_xor(a, b).tobytes()


def _apply_xor_payload(base: np.ndarray, payload: bytes,
                       dtype: np.dtype, shape) -> np.ndarray:
    raw = np.frombuffer(np.ascontiguousarray(base).tobytes(), dtype=np.uint8)
    if len(payload) != raw.size:
        raise DeltaError(
            f"payload is {len(payload)} B but tensor occupies {raw.size} B"
        )
    patched = np.bitwise_xor(
        raw, np.frombuffer(payload, dtype=np.uint8))
    return np.frombuffer(patched.tobytes(), dtype=dtype).reshape(shape)


def _entry_header(key: str, shape, dtype: np.dtype, meta,
                  payload_len: int) -> bytes:
    key_bytes = key.encode()
    dtype_bytes = np.dtype(dtype).str.encode()
    bits, low, step = meta
    return (
        struct.pack(">H", len(key_bytes)) + key_bytes
        + struct.pack(">B", len(shape))
        + b"".join(struct.pack(">I", dim) for dim in shape)
        + struct.pack(">B", len(dtype_bytes)) + dtype_bytes
        + struct.pack(">Bdd", bits, low, step)
        + struct.pack(">I", payload_len)
    )


def _read_entry_header(body: bytes, offset: int):
    (key_len,) = struct.unpack_from(">H", body, offset)
    offset += 2
    key = body[offset:offset + key_len].decode()
    offset += key_len
    (ndim,) = struct.unpack_from(">B", body, offset)
    offset += 1
    shape = []
    for _ in range(ndim):
        (dim,) = struct.unpack_from(">I", body, offset)
        shape.append(dim)
        offset += 4
    (dtype_len,) = struct.unpack_from(">B", body, offset)
    offset += 1
    try:
        dtype = np.dtype(body[offset:offset + dtype_len].decode())
    except TypeError as exc:
        raise DeltaError(f"unknown dtype in delta entry for {key!r}") from exc
    offset += dtype_len
    bits, low, step = struct.unpack_from(">Bdd", body, offset)
    offset += struct.calcsize(">Bdd")
    (payload_len,) = struct.unpack_from(">I", body, offset)
    offset += 4
    return key, tuple(shape), dtype, (bits, low, step), payload_len, offset


# -- the quantiser -----------------------------------------------------------

def quantize(rows: np.ndarray, bits: int, scale=np.float64,
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniformly quantise each row of a 2-D array to ``bits`` per element.

    Row ``i`` is coded on a grid of its own: ``low[i]`` is its minimum and
    ``step[i]`` its range over ``2**bits - 1`` (1 for a constant row, or
    one whose step would be subnormal in ``scale``), both rounded to the
    ``scale`` dtype, and the codes are taken against the rounded scale,
    so ``dequantize`` is within ``step / 2`` of each element (plus the
    rounding of ``low`` to ``scale``; a row sent as a constant is within
    its own range).  A row's codes depend on that row alone.  A live
    delta tensor is the one-row case.  Returns ``(codes, low, step)``: codes are uint8 up to 8 bits, else
    uint16; ``low`` and ``step`` are ``scale`` vectors.  Non-finite rows
    are refused.
    """
    if not 1 <= bits <= 16:
        raise DeltaError("quantize_bits must be in [1, 16]")
    levels = (1 << bits) - 1
    # + 0.0 folds a -0.0 minimum into the +0.0 that decoding gives back
    low = rows.min(axis=1).astype(np.float64) + 0.0
    high = rows.max(axis=1).astype(np.float64)
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        raise DeltaError("cannot quantise non-finite values")
    span = high - low
    # a row whose step would be subnormal in ``scale`` is sent as a
    # constant (step 1, every code 0): a subnormal step is too coarse to
    # hold the grid, and such a row spans under 255 x the smallest
    # normal value anyway
    flat = span < levels * np.finfo(scale).tiny
    step = np.where(flat, 1.0, span / levels).astype(scale)
    low = low.astype(scale)
    # one float64 scratch array, rewritten in place
    codes = rows - low[:, None].astype(np.float64)
    codes /= step[:, None].astype(np.float64)
    np.rint(codes, out=codes)
    np.clip(codes, 0, levels, out=codes)
    return codes.astype(code_dtype(bits)), low, step


def dequantize(codes: np.ndarray, low: np.ndarray,
               step: np.ndarray) -> np.ndarray:
    """The float64 rows ``codes * step + low`` that :func:`quantize`'s
    output stands for."""
    rows = codes * step[:, None].astype(np.float64)
    rows += low[:, None]
    return rows


def code_dtype(bits: int) -> type:
    """The dtype of :func:`quantize`'s codes at ``bits`` per element."""
    return np.uint8 if bits <= 8 else np.uint16
