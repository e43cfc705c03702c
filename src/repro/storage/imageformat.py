"""Synthetic photo codec.

The paper's workload is 2.7 MB JPEGs plus 0.59 MB preprocessed fp32
binaries.  We cannot ship real photos, so this codec produces byte-accurate
stand-ins: a quantised pixel payload in a stored zlib stream ("the JPEG")
accounted at a configurable nominal size, and raw fp32 tensors ("the
preprocessed binary").  Byte counts are genuine, just scaled to tiny
images.  The system stores and moves the JPEG stand-in but never decodes
it — inference reads the preprocessed binary — so :func:`decode_photo`
exists for tests and tools; the pixel payload is quantised noise, which
no deflate level shrinks (see :data:`~repro.storage.compression.NOISE`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .compression import NOISE

_MAGIC = b"NDPJ"
_HEADER_FMT = ">4sBHHHI"  # magic, channels, height, width, pad_kb, payload_len
_PRE_MAGIC = b"NDPP"
_PRE_HEADER_FMT = ">4sBHH"  # magic, channels, height, width


class CodecError(ValueError):
    """Raised when a blob does not parse as a synthetic photo."""


def encode_photo(pixels: np.ndarray) -> bytes:
    """Encode float pixels in [0, 1] (C, H, W) into a synthetic JPEG.

    The blob is the payload alone; a store accounts it at the nominal
    photo size (the storage/network experiments care about real photo
    byte counts even though the pixel payload is tiny), holding the
    padding as a length (:class:`~repro.storage.objectstore.ObjectStore`).
    Trailing zeros after the payload do not change what it decodes to.
    """
    if pixels.ndim != 3:
        raise CodecError(f"expected (C, H, W) pixels, got shape {pixels.shape}")
    c, h, w = pixels.shape
    quantised = np.clip(pixels, 0.0, 1.0)
    payload = NOISE.compress((quantised * 255).astype(np.uint8).tobytes())
    header = struct.pack(_HEADER_FMT, _MAGIC, c, h, w, 0, len(payload))
    return header + payload


def decode_photo(blob: bytes) -> np.ndarray:
    """Decode a synthetic JPEG back to float pixels in [0, 1]."""
    header_size = struct.calcsize(_HEADER_FMT)
    if len(blob) < header_size:
        raise CodecError("blob too short for a photo header")
    magic, c, h, w, _pad, payload_len = struct.unpack(
        _HEADER_FMT, blob[:header_size]
    )
    if magic != _MAGIC:
        raise CodecError("bad photo magic")
    if len(blob) < header_size + payload_len:
        raise CodecError(
            f"photo payload truncated: header promises {payload_len} bytes, "
            f"{len(blob) - header_size} present")
    try:
        raw = zlib.decompress(
            memoryview(blob)[header_size:header_size + payload_len])
    except zlib.error as exc:
        raise CodecError(f"corrupt photo payload: {exc}") from exc
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    expected = c * h * w
    if pixels.size != expected:
        raise CodecError(f"payload has {pixels.size} pixels, expected {expected}")
    return pixels.reshape(c, h, w)


def preprocess(pixels: np.ndarray, mean: float = 0.5, std: float = 0.25) -> np.ndarray:
    """The DNN input transform: normalise decoded pixels to fp32."""
    return ((pixels - mean) / std).astype(np.float32)


def encode_preprocessed(tensor: np.ndarray) -> bytes:
    """Serialise a preprocessed fp32 tensor (the 0.59 MB binary)."""
    c, h, w = tensor.shape
    header = struct.pack(_PRE_HEADER_FMT, _PRE_MAGIC, c, h, w)
    return header + tensor.astype(np.float32).tobytes()


def _preprocessed_view(blob: bytes) -> np.ndarray:
    """Read-only (C, H, W) fp32 view of a preprocessed binary's payload.

    Reads in place (``frombuffer(offset=...)``); anything that is not
    exactly header + ``4*c*h*w`` payload bytes is a :class:`CodecError`.
    """
    header_size = struct.calcsize(_PRE_HEADER_FMT)
    if len(blob) < header_size:
        raise CodecError("blob too short for a preprocessed-binary header")
    magic, c, h, w = struct.unpack_from(_PRE_HEADER_FMT, blob)
    if magic != _PRE_MAGIC:
        raise CodecError("bad preprocessed-binary magic")
    if len(blob) - header_size != 4 * c * h * w:
        raise CodecError(
            f"preprocessed payload is {len(blob) - header_size} bytes, "
            f"expected {4 * c * h * w} for shape {(c, h, w)}")
    data = np.frombuffer(blob, dtype=np.float32, offset=header_size)
    return data.reshape(c, h, w)


def decode_preprocessed(blob: bytes) -> np.ndarray:
    # the .copy() (for writability) is the only allocation
    return _preprocessed_view(blob).copy()


def decode_preprocessed_into(blob: bytes, out: np.ndarray) -> None:
    """Decode one preprocessed binary directly into a preallocated slot.

    PipeStore fills rows of one ``(N, C, H, W)`` array with this, skipping
    a per-photo ``.copy()`` + ``np.stack``.  Byte-for-byte the values
    :func:`decode_preprocessed` returns land in ``out``.
    """
    data = _preprocessed_view(blob)
    if out.shape != data.shape:
        raise CodecError(
            f"output slot {out.shape} does not match payload {data.shape}")
    out[...] = data


@dataclass(frozen=True)
class PhotoSizes:
    """Nominal byte sizes for the storage accounting experiments."""

    raw_bytes: int = 2_700_000
    preprocessed_bytes: int = 590_000

    @property
    def preprocessed_fraction(self) -> float:
        """Share of total storage taken by preprocessed binaries (§5.4)."""
        return self.preprocessed_bytes / (self.raw_bytes + self.preprocessed_bytes)
