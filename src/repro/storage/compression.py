"""Deflate compression helpers (§5.4: compressed preprocessed binaries).

The paper stores preprocessed image binaries deflate-compressed in
PipeStore to cut the 17.5 % storage overhead and reduce I/O time; this is
real ``zlib`` here, not a model.

Every deflate on the landing and checkpoint paths names its payload, and
the :class:`Codec` constants below are the one place that says which zlib
configuration each payload gets.  The rule: a payload leaves LZ77 only
where that costs no bytes.  Measured on a 4-store lifecycle over 256 world
photos with a tiny ResNet50 (bytes per blob, host time per blob):

* :data:`NOISE` — the stand-in JPEG's quantised pixels.  LZ77 finds
  nothing in them and level 6 falls back to a stored block, so the payload
  is stored outright: 779 B from 768 B either way, 60 → 5 µs.
* :data:`PIXELS` — a float pixel tensor (the ``preproc/`` blob).  LZ77's
  short matches cost more than the literals they replace; run-length
  matching (``Z_RLE``) is left with Huffman coding alone: 2 853.0 →
  2 845.4 B, never larger for any photo, 125 → 100 µs.
* :data:`WEIGHTS` — array tables: model and Adam tables, and the
  checkpoint journal's pixel table, keep level 9 (≈ 4 % more time than
  level 6, and every tuner-HA frame at or under its v1 size).  ``Z_RLE``
  grows the tuner-HA seed frame 126 861 → 133 206 B and the journal table
  by 0.7 % (1.0 % on ``fleet_write``'s 1 430 uploads): each entry's key,
  dtype and shape framing repeats, and only LZ77 finds it.
* :data:`TEXT` — JSON (photo database, checkpoint manifest) keeps level
  6; ``Z_RLE`` is 4.6× larger on the database, 3.5× on the manifest.
* :data:`FEATURE_ROWS` — a store snapshot's ``feat/`` records keep level
  1 (see :func:`~repro.storage.persistence.dump_object_store`); ``Z_RLE``
  is 2.1 % larger.

Check-N-Run deltas frame their own deflate (:mod:`repro.core.checknrun`).
Every codec writes a plain zlib stream, so :func:`inflate` reads them all,
and every blob written before a payload changed codec.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

_HEADER = b"NDPZ"


class Codec(NamedTuple):
    """One zlib configuration: a compression level and a strategy."""

    level: int
    strategy: int = zlib.Z_DEFAULT_STRATEGY

    def compress(self, data: bytes) -> bytes:
        """A complete zlib stream of ``data`` (``zlib.decompress`` reads it)."""
        packer = zlib.compressobj(self.level, zlib.DEFLATED, zlib.MAX_WBITS,
                                  zlib.DEF_MEM_LEVEL, self.strategy)
        return packer.compress(data) + packer.flush()


NOISE = Codec(0)
# with Z_RLE the level only picks the same run matcher: any level >= 1
# writes the same bytes
PIXELS = Codec(6, zlib.Z_RLE)
WEIGHTS = Codec(9)
TEXT = Codec(6)
FEATURE_ROWS = Codec(1)


def deflate(data: bytes, codec: Codec = TEXT) -> bytes:
    """Compress raw bytes with ``codec``, framed with a magic header."""
    return _HEADER + codec.compress(data)


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


def compress_array(array: np.ndarray) -> bytes:
    """Deflate a numpy array (as a pixel tensor) with enough framing to
    reconstruct it: ``dtype|shape|`` then the raw bytes."""
    header = f"{array.dtype.str}|{','.join(map(str, array.shape))}|".encode()
    return deflate(header + array.tobytes(), PIXELS)


def decompress_array(blob: bytes) -> np.ndarray:
    raw = inflate(blob)
    # a dtype string opens with its byte-order mark, which is itself "|"
    # for byte-sized and byte-order-free kinds ("|u1", "|b1", "|S4"): the
    # separator is the first "|" after it
    dtype_end = raw.index(b"|", 1)
    shape_end = raw.index(b"|", dtype_end + 1)
    dtype = np.dtype(raw[:dtype_end].decode())
    shape_text = raw[dtype_end + 1:shape_end].decode()
    shape = tuple(int(x) for x in shape_text.split(",")) if shape_text else ()
    # frombuffer(offset=...) reads in place; the single .copy() below
    # (needed for a writable result) is the only payload copy
    array = np.frombuffer(raw, dtype=dtype, offset=shape_end + 1)
    return array.reshape(shape).copy()
