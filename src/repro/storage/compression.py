"""Deflate compression helpers (§5.4: compressed preprocessed binaries).

The paper stores preprocessed image binaries deflate-compressed in
PipeStore to cut the 17.5 % storage overhead and reduce I/O time; this is
real ``zlib`` here, not a model.

Every deflate on the landing and checkpoint paths names its payload, and
the :class:`Codec` constants below are the one place that says which zlib
configuration each payload gets.  The rule is the measured trade: a
payload pays for a zlib pass only where the bytes it keeps are worth the
time it spends, and a pass that keeps a fraction of a percent is not run.
``repro report codec-fit`` regenerates the numbers below (bytes per blob,
host time per blob, on its 256-photo sample with a tiny ResNet50):

* :data:`NOISE` — 8-bit codes: the stand-in JPEG's payload and
  :func:`compress_array`'s arrays (the checkpoint journal holds the same
  codes ``raw/`` does).  LZ77 finds nothing in them and level 6 falls back
  to a stored block, so the payload is stored outright: 779 B from 768 B
  either way, 60 → 5 µs.  A Huffman-only pass over the stacked journal
  keeps 0.5 % of its bytes for 7× the time of storing it.
* :data:`CODES` — a ``preproc/`` blob: the photo's 8-bit codes behind
  the preprocessed binary's header and a CRC32, 785 B at 3×16×16, which
  :func:`inflate` expands into the fp32 binary through
  :data:`~repro.storage.imageformat.CODE_TABLE` (level 6 over the
  derived fp32 binary: 1 631 B, DESIGN §12).
* :data:`WEIGHTS` — model and Adam tables keep level 9 (≈ 4 % more time
  than level 6, and every tuner-HA frame at or under its v1 size).  Their
  per-tensor key, dtype and shape framing repeats, and only LZ77 finds
  it.
* :data:`TEXT` — JSON (photo database, checkpoint manifest) keeps level
  6; ``Z_RLE`` is 4.6× larger on the database, 3.5× on the manifest.
* :data:`FEATURE_ROWS` — a store snapshot's ``feat/`` records (see
  :func:`~repro.storage.persistence.dump_object_store`) are ``Z_RLE``:
  ratio 0.78 against level 1's 0.76, 91 % of level 1's saving in 47 % of
  its time.  Every level writes the same ``Z_RLE`` stream.

Check-N-Run deltas frame their own deflate (:mod:`repro.core.checknrun`).
:func:`inflate` is the one decoder: it reads every frame kind, and so
every blob written before a payload changed codec (a Huffman-only
journal, a level-1 ``feat/`` segment).  It refuses, by name, the ``NDPB``
byte-plane frame an earlier array codec wrote for float arrays: nothing
persisted holds one (checkpoint v4's journal is uint8, which that codec
wrote as ``NDPZ``, and v3 is refused).
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

_HEADER = b"NDPZ"
#: the retired byte-plane frame, refused by name
_PLANES = b"NDPB"
_CRC = struct.Struct(">I")
#: ``NDPC | CRC32 | NDPP header | codes``: the CRC covers the rest
_CODES = b"NDPC"


class Codec(NamedTuple):
    """One payload codec: a zlib level and strategy — or, with ``codes``,
    no zlib: the payload is 8-bit codes behind a preprocessed binary's
    header, framed as they are and inflated into that binary."""

    level: int
    strategy: int = zlib.Z_DEFAULT_STRATEGY
    codes: bool = False

    def compress(self, data: bytes) -> bytes:
        """A complete zlib stream of ``data`` (``zlib.decompress`` reads it):
        one ``zlib.compress`` call unless the strategy needs a
        ``compressobj`` (same bytes either way)."""
        if self.strategy == zlib.Z_DEFAULT_STRATEGY:
            return zlib.compress(data, self.level)
        packer = zlib.compressobj(self.level, zlib.DEFLATED, zlib.MAX_WBITS,
                                  zlib.DEF_MEM_LEVEL, self.strategy)
        return packer.compress(data) + packer.flush()


NOISE = Codec(0)
CODES = Codec(0, codes=True)
WEIGHTS = Codec(9)
TEXT = Codec(6)
FEATURE_ROWS = Codec(1, zlib.Z_RLE)


def deflate(data: bytes, codec: Codec = TEXT) -> bytes:
    """Compress raw bytes with ``codec`` into a self-describing frame.

    A :data:`CODES` frame holds ``data`` as it is; :func:`inflate` gives
    back the fp32 its codes stand for."""
    if codec.codes:
        return b"".join((_CODES, _CRC.pack(zlib.crc32(data)), data))
    return _HEADER + codec.compress(data)


def inflate(blob: bytes) -> bytes:
    """The bytes :func:`deflate` was given, from any frame kind (any
    bytes-like object) — for a :data:`CODES` frame, the preprocessed fp32
    binary its codes stand for; every undecodable input raises
    ``ValueError``, never a raw ``zlib.error``."""
    # slice through a memoryview: no intermediate bytes copy of the
    # compressed payload before zlib reads it
    view = memoryview(blob)
    if view[:len(_HEADER)] == _HEADER:
        return _stream(view[len(_HEADER):])
    if view[:len(_CODES)] == _CODES:
        return _expand(view)
    if view[:len(_PLANES)] == _PLANES:
        raise ValueError("an NDPB byte-plane frame: that codec is retired "
                         "and this build does not read it")
    raise ValueError("not a deflate frame (bad magic)")


def _expand(view: memoryview) -> bytes:
    """The fp32 binary of a :data:`CODES` frame, its CRC checked first."""
    # imageformat imports this module (NOISE): its table is read here
    from .imageformat import expand_codes

    return expand_codes(codes_payload(view))


def codes_payload(blob) -> memoryview:
    """The bytes a :data:`CODES` frame holds — what :func:`deflate` was
    given, read in place — its CRC checked first; ``ValueError`` for a
    corrupt frame or another kind."""
    view = memoryview(blob)
    if view[:len(_CODES)] != _CODES:
        raise ValueError("not a codes frame (bad magic)")
    start = len(_CODES) + _CRC.size
    if len(view) < start:
        raise ValueError("corrupt codes frame: head truncated")
    if zlib.crc32(view[start:]) != _CRC.unpack_from(view, len(_CODES))[0]:
        raise ValueError("corrupt codes frame: CRC mismatch")
    return view[start:]


def _stream(data: memoryview) -> bytes:
    """Inflate one zlib stream that must fill ``data`` exactly."""
    unpacker = zlib.decompressobj()
    try:
        out = unpacker.decompress(data)
    except zlib.error as exc:
        raise ValueError(f"corrupt deflate stream: {exc}") from exc
    if not unpacker.eof:
        raise ValueError("corrupt deflate stream: truncated (no end of "
                         "stream)")
    if unpacker.unused_data:
        raise ValueError(f"corrupt deflate stream: "
                         f"{len(unpacker.unused_data)} bytes after its end")
    return out


def compress_array(array: np.ndarray) -> bytes:
    """Frame a numpy array (such as the journal's stacked 8-bit codes) with
    enough to reconstruct it: ``dtype|shape|`` then the raw bytes, one
    :data:`NOISE` (stored) stream."""
    header = f"{array.dtype.str}|{','.join(map(str, array.shape))}|".encode()
    return deflate(header + array.tobytes(), NOISE)


def decompress_array(blob: bytes) -> np.ndarray:
    """Inverse of :func:`compress_array`; an unreadable blob raises
    ``ValueError``."""
    raw = inflate(blob)
    # a dtype string opens with its byte-order mark, which is itself "|"
    # for byte-sized and byte-order-free kinds ("|u1", "|b1", "|S4"): the
    # separator is the first "|" after it
    dtype_end = raw.index(b"|", 1)
    shape_end = raw.index(b"|", dtype_end + 1)
    try:
        dtype = np.dtype(raw[:dtype_end].decode())
    except TypeError as exc:
        raise ValueError(f"unreadable array dtype: {exc}") from exc
    shape_text = raw[dtype_end + 1:shape_end].decode()
    shape = tuple(int(x) for x in shape_text.split(",")) if shape_text else ()
    # frombuffer(offset=...) reads in place; the single .copy() below
    # (needed for a writable result) is the only payload copy
    array = np.frombuffer(raw, dtype=dtype, offset=shape_end + 1)
    return array.reshape(shape).copy()
