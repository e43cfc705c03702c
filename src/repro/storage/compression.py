"""Deflate compression helpers (§5.4: compressed preprocessed binaries).

The paper stores preprocessed image binaries deflate-compressed in
PipeStore to cut the 17.5 % storage overhead and reduce I/O time; this is
real ``zlib`` here, not a model.

Every deflate on the landing and checkpoint paths names its payload, and
the :class:`Codec` constants below are the one place that says which zlib
configuration each payload gets.  The rule: a payload leaves LZ77 only
where that costs no bytes.  Measured on a 4-store lifecycle over 256 world
photos with a tiny ResNet50 (bytes per blob, host time per blob):

* :data:`NOISE` — the stand-in JPEG's 8-bit codes.  LZ77 finds nothing
  in them and level 6 falls back to a stored block, so the payload is
  stored outright: 779 B from 768 B either way, 60 → 5 µs.
* :data:`CODES` — a ``preproc/`` blob: the photo's 8-bit codes behind
  the preprocessed binary's header and a CRC32, 785 B at 3×16×16, which
  :func:`inflate` expands into the fp32 binary through
  :data:`~repro.storage.imageformat.CODE_TABLE` (the byte planes of the
  float upload it replaced: 2 577 B; level 6 over the derived fp32:
  1 631 B at twice the planes' time, DESIGN §12).
* :data:`PIXELS` — a numeric array (:func:`compress_array`): split into
  byte planes as wide as one element (the byte-shuffle filter of HDF5
  and Blosc), only the top plane Huffman-coded; an array of bytes, such
  as the checkpoint journal's stacked codes, is one Huffman-only stream.
* :data:`WEIGHTS` — model and Adam tables keep level 9 (≈ 4 % more time
  than level 6, and every tuner-HA frame at or under its v1 size).  Their
  per-tensor key, dtype and shape framing repeats, only LZ77 finds it,
  and it leaves the planes misaligned.
* :data:`TEXT` — JSON (photo database, checkpoint manifest) keeps level
  6; ``Z_RLE`` is 4.6× larger on the database, 3.5× on the manifest.
* :data:`FEATURE_ROWS` — a store snapshot's ``feat/`` records keep level
  1 (see :func:`~repro.storage.persistence.dump_object_store`); ``Z_RLE``
  is 2.1 % larger.

Check-N-Run deltas frame their own deflate (:mod:`repro.core.checknrun`).
:func:`inflate` is the one decoder: it reads every frame kind, and so
every blob written before a payload changed codec.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple, Optional

import numpy as np

_HEADER = b"NDPZ"
#: ``NDPB | width, payload length | CRC32 | lead | planes 0 … width-2 |
#: zlib(top plane)``: the CRC covers every byte after the magic but its
#: own, so a damaged byte anywhere in the frame is refused — the verbatim
#: planes have no other check, and inflate ignores a stream's padding bits
_PLANES = b"NDPB"
_FIELDS = struct.Struct(">BQ")
_CRC = struct.Struct(">I")
_PLANES_START = len(_PLANES) + _FIELDS.size + _CRC.size
#: ``NDPC | CRC32 | NDPP header | codes``: the CRC covers the rest
_CODES = b"NDPC"


class Codec(NamedTuple):
    """One payload codec: a zlib level and strategy and the byte-plane
    width (1: no planes, the whole payload goes through zlib) — or, with
    ``codes``, no zlib: the payload is 8-bit codes behind a preprocessed
    binary's header, framed as they are and inflated into that binary."""

    level: int
    strategy: int = zlib.Z_DEFAULT_STRATEGY
    width: int = 1
    codes: bool = False

    def compress(self, data: bytes) -> bytes:
        """A complete zlib stream of ``data`` (``zlib.decompress`` reads it)."""
        packer = zlib.compressobj(self.level, zlib.DEFLATED, zlib.MAX_WBITS,
                                  zlib.DEF_MEM_LEVEL, self.strategy)
        return packer.compress(data) + packer.flush()


NOISE = Codec(0)
CODES = Codec(0, codes=True)
PIXELS = Codec(6, zlib.Z_HUFFMAN_ONLY, width=4)
WEIGHTS = Codec(9)
TEXT = Codec(6)
FEATURE_ROWS = Codec(1)


def deflate(data: bytes, codec: Codec = TEXT) -> bytes:
    """Compress raw bytes with ``codec`` into a self-describing frame.

    A plane codec (``width`` > 1) keeps the first ``len(data) % width``
    bytes as a verbatim lead, so a header followed by whole little-endian
    elements leaves every plane aligned; the last plane (sign and
    exponent) is the only one coded.  A :data:`CODES` frame holds
    ``data`` as it is; :func:`inflate` gives back the fp32 its codes
    stand for."""
    if codec.codes:
        return b"".join((_CODES, _CRC.pack(zlib.crc32(data)), data))
    if codec.width == 1:
        return _HEADER + codec.compress(data)
    width = codec.width
    count, lead = divmod(len(data), width)
    elements = np.frombuffer(data, np.uint8, count * width,
                             lead).reshape(count, width)
    fields = _FIELDS.pack(width, len(data))
    body = (bytes(data[:lead]) + elements[:, :-1].T.tobytes()
            + codec.compress(elements[:, -1].tobytes()))
    crc = zlib.crc32(body, zlib.crc32(fields))
    return b"".join((_PLANES, fields, _CRC.pack(crc), body))


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
    if view[:len(_PLANES)] != _PLANES:
        raise ValueError("not a deflate frame (bad magic)")
    if len(view) < _PLANES_START:
        raise ValueError("corrupt deflate stream: plane frame head truncated")
    width, size = _FIELDS.unpack_from(view, len(_PLANES))
    (crc,) = _CRC.unpack_from(view, len(_PLANES) + _FIELDS.size)
    if width < 2:
        raise ValueError(f"corrupt deflate stream: plane width {width}")
    count, lead = divmod(size, width)
    start = _PLANES_START
    top = start + lead + (width - 1) * count
    if top > len(view):
        raise ValueError("corrupt deflate stream: plane frame truncated "
                         f"({len(view)} bytes, {top} before the top plane)")
    fields = view[len(_PLANES):len(_PLANES) + _FIELDS.size]
    if zlib.crc32(view[start:], zlib.crc32(fields)) != crc:
        raise ValueError("corrupt deflate stream: plane frame CRC mismatch")
    elements = np.empty((count, width), np.uint8)
    elements[:, :-1] = np.frombuffer(
        view, np.uint8, (width - 1) * count, start + lead,
    ).reshape(width - 1, count).T
    elements[:, -1] = np.frombuffer(_stream(view[top:], count), np.uint8)
    return bytes(view[start:start + lead]) + elements.tobytes()


def _expand(view: memoryview) -> bytes:
    """The fp32 binary of a :data:`CODES` frame, its CRC checked first."""
    # imageformat imports this module (NOISE): its table is read here
    from .imageformat import expand_codes

    start = len(_CODES) + _CRC.size
    if len(view) < start:
        raise ValueError("corrupt codes frame: head truncated")
    if zlib.crc32(view[start:]) != _CRC.unpack_from(view, len(_CODES))[0]:
        raise ValueError("corrupt codes frame: CRC mismatch")
    return expand_codes(view[start:])


def _stream(data: memoryview, size: Optional[int] = None) -> bytes:
    """Inflate one zlib stream that must fill ``data`` exactly (and, when
    ``size`` is given, yield exactly ``size`` bytes)."""
    unpacker = zlib.decompressobj()
    try:
        # a bound one past the expected size: an over-long stream stops
        # there instead of inflating whatever it holds
        out = unpacker.decompress(data, 0 if size is None else size + 1)
    except zlib.error as exc:
        raise ValueError(f"corrupt deflate stream: {exc}") from exc
    if size is not None and len(out) != size:
        raise ValueError("corrupt deflate stream: does not inflate to the "
                         f"{size} bytes its frame declares")
    if not unpacker.eof:
        raise ValueError("corrupt deflate stream: truncated (no end of "
                         "stream)")
    if unpacker.unused_data:
        raise ValueError(f"corrupt deflate stream: "
                         f"{len(unpacker.unused_data)} bytes after its end")
    return out


def compression_ratio(raw: bytes, compressed: bytes) -> float:
    if len(compressed) == 0:
        raise ValueError("compressed payload is empty")
    return len(raw) / len(compressed)


def compress_array(array: np.ndarray) -> bytes:
    """Deflate a numpy array (as a pixel tensor) with enough framing to
    reconstruct it: ``dtype|shape|`` then the raw bytes, split into byte
    planes as wide as one element when the elements are numbers."""
    header = f"{array.dtype.str}|{','.join(map(str, array.shape))}|".encode()
    numeric = array.dtype.kind in "iufc"
    return deflate(header + array.tobytes(),
                   PIXELS._replace(width=array.itemsize if numeric else 1))


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
