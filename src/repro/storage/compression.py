"""Deflate compression helpers (§5.4: compressed preprocessed binaries).

The paper stores preprocessed image binaries deflate-compressed in
PipeStore to cut the 17.5 % storage overhead and reduce I/O time; this is
real ``zlib`` here, not a model.
"""

from __future__ import annotations

import zlib

import numpy as np

_HEADER = b"NDPZ"


def deflate(data: bytes, level: int = 6) -> bytes:
    """Compress raw bytes with deflate, framed with a magic header."""
    return _HEADER + zlib.compress(data, level)


def inflate(blob: bytes) -> bytes:
    """Decompress a :func:`deflate` frame (any bytes-like object); every
    undecodable input raises ``ValueError``, never a raw ``zlib.error``."""
    if blob[:len(_HEADER)] != _HEADER:
        raise ValueError("not a deflate frame (bad magic)")
    try:
        # slice through a memoryview: no intermediate bytes copy of the
        # compressed payload before zlib reads it
        return zlib.decompress(memoryview(blob)[len(_HEADER):])
    except zlib.error as exc:
        raise ValueError(f"corrupt deflate stream: {exc}") from exc


def compression_ratio(raw: bytes, compressed: bytes) -> float:
    if len(compressed) == 0:
        raise ValueError("compressed payload is empty")
    return len(raw) / len(compressed)


def compress_array(array: np.ndarray, level: int = 6) -> bytes:
    """Deflate a numpy array with enough framing to reconstruct it."""
    header = f"{array.dtype.str}|{','.join(map(str, array.shape))}|".encode()
    return deflate(header + array.tobytes(), level=level)


def decompress_array(blob: bytes) -> np.ndarray:
    raw = inflate(blob)
    dtype_end = raw.index(b"|")
    shape_end = raw.index(b"|", dtype_end + 1)
    dtype = np.dtype(raw[:dtype_end].decode())
    shape_text = raw[dtype_end + 1:shape_end].decode()
    shape = tuple(int(x) for x in shape_text.split(",")) if shape_text else ()
    # frombuffer(offset=...) reads in place; the single .copy() below
    # (needed for a writable result) is the only payload copy
    array = np.frombuffer(raw, dtype=dtype, offset=shape_end + 1)
    return array.reshape(shape).copy()
