"""Synthetic photo codec, and the front door every upload passes.

The paper's workload is 2.7 MB JPEGs plus 0.59 MB preprocessed fp32
binaries.  We cannot ship real photos, so this codec produces byte-accurate
stand-ins: an 8-bit pixel payload in a stored zlib stream ("the JPEG")
accounted at a configurable nominal size, and fp32 tensors ("the
preprocessed binary").  Byte counts are genuine, just scaled to tiny
images.

:func:`quantise` is the front door: it rounds an upload's float pixels to
8-bit codes once, and everything downstream derives from those codes —
the JPEG stand-in's payload, the model input (:func:`model_input`, read
from :data:`CODE_TABLE`), the upload journal's entry, and the
``preproc/`` blob, which holds the codes (:func:`encode_codes`) and
inflates to the fp32 binary (:data:`~repro.storage.compression.CODES`).
The system stores and moves the JPEG stand-in but never decodes it for
inference — inference reads the preprocessed binary; the scrub reads its
codes to check each ``preproc/`` blob against them.  The pixel payload is
quantised noise, which no deflate level shrinks (see
:data:`~repro.storage.compression.NOISE`).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .compression import CODES, NOISE, codes_payload, deflate

_MAGIC = b"NDPJ"
_HEADER_FMT = ">4sBHHHI"  # magic, channels, height, width, pad_kb, payload_len
_HEADER = struct.Struct(_HEADER_FMT)
_PRE_MAGIC = b"NDPP"
_PRE_HEADER_FMT = ">4sBHH"  # magic, channels, height, width
_PRE_HEADER = struct.Struct(_PRE_HEADER_FMT)
_PRE_HEADER_SIZE = _PRE_HEADER.size


class CodecError(ValueError):
    """Raised when a blob does not parse as a synthetic photo."""


def quantise(pixels: np.ndarray) -> np.ndarray:
    """The front door: float pixels in [0, 1] — one photo (C, H, W) or a
    batch (N, C, H, W) — as the 8-bit codes everything downstream derives
    from, each rounded once to the nearest code (``rint`` after
    ``clip``)."""
    scaled = np.clip(pixels, 0.0, 1.0) * 255.0
    return np.rint(scaled, out=scaled).astype(np.uint8)


def preprocess(pixels: np.ndarray, mean: float = 0.5, std: float = 0.25) -> np.ndarray:
    """The DNN input transform: normalise decoded pixels to fp32."""
    return ((pixels - mean) / std).astype(np.float32)


#: the model input each 8-bit code stands for, ``preprocess(code / 255)``:
#: every model input and every inflated ``preproc/`` blob is read from it
CODE_TABLE = preprocess(np.arange(256) / 255.0)
CODE_TABLE.flags.writeable = False


def model_input(codes: np.ndarray) -> np.ndarray:
    """The fp32 model input of 8-bit codes (any shape): bit for bit
    ``preprocess(codes / 255)``, the transform being elementwise."""
    return CODE_TABLE.take(codes)


def encode_photo(codes: np.ndarray) -> bytes:
    """Encode one photo's 8-bit codes (C, H, W) into a synthetic JPEG.

    The blob is the payload alone; a store accounts it at the nominal
    photo size (the storage/network experiments care about real photo
    byte counts even though the pixel payload is tiny), holding the
    padding as a length (:class:`~repro.storage.objectstore.ObjectStore`).
    Trailing zeros after the payload do not change what it decodes to.
    """
    c, h, w = _code_shape(codes)
    payload = NOISE.compress(codes.tobytes())
    return _HEADER.pack(_MAGIC, c, h, w, 0, len(payload)) + payload


def _read_photo(blob: bytes, nominal: int = 0):
    """``((c, h, w), code bytes)`` of a synthetic JPEG: ``blob``
    zero-extended to ``nominal`` bytes, of which only the zeros the
    header's declared extent reaches are materialised."""
    header_size = _HEADER.size
    nominal = max(nominal, len(blob))
    if nominal < header_size:
        raise CodecError("blob too short for a photo header")
    if len(blob) < header_size:
        blob = blob.ljust(header_size, b"\0")
    magic, c, h, w, _pad, payload_len = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CodecError("bad photo magic")
    end = header_size + payload_len
    if nominal < end:
        raise CodecError(
            f"photo payload truncated: header promises {payload_len} bytes, "
            f"{nominal - header_size} present")
    if len(blob) < end:
        # a held payload whose own trailing zeros folded into the run
        blob = blob.ljust(end, b"\0")
    try:
        raw = zlib.decompress(memoryview(blob)[header_size:end])
    except zlib.error as exc:
        raise CodecError(f"corrupt photo payload: {exc}") from exc
    if len(raw) != c * h * w:
        raise CodecError(f"payload has {len(raw)} pixels, expected {c * h * w}")
    return (c, h, w), raw


def derive_preprocessed(blob: bytes, nominal: int = 0) -> bytes:
    """The ``preproc/`` blob a synthetic JPEG derives: its codes behind
    the preprocessed binary's header, a :data:`~repro.storage.
    compression.CODES` frame — ``deflate(encode_codes(codes), CODES)``
    for the codes it holds, read straight from the blob's bytes.  A
    store's held payload passes its ``nominal`` length: its zero tail
    stays a length."""
    (c, h, w), raw = _read_photo(blob, nominal)
    return deflate(_PRE_HEADER.pack(_PRE_MAGIC, c, h, w) + raw, CODES)


def decode_photo(blob: bytes) -> np.ndarray:
    """Decode a synthetic JPEG back to float pixels in [0, 1]."""
    shape, raw = _read_photo(blob)
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape) / 255.0


def encode_preprocessed(tensor: np.ndarray) -> bytes:
    """Serialise a preprocessed fp32 tensor (the 0.59 MB binary)."""
    c, h, w = tensor.shape
    return (_PRE_HEADER.pack(_PRE_MAGIC, c, h, w)
            + tensor.astype(np.float32).tobytes())


def encode_codes(codes: np.ndarray) -> bytes:
    """One photo's 8-bit codes (C, H, W) behind the preprocessed binary's
    header: what a ``preproc/`` blob holds, a quarter of the fp32
    binary's payload (:func:`expand_codes` restores that binary)."""
    c, h, w = _code_shape(codes)
    return _PRE_HEADER.pack(_PRE_MAGIC, c, h, w) + codes.tobytes()


def expand_codes(binary: bytes) -> bytes:
    """The preprocessed fp32 binary that :func:`encode_codes`' output
    stands for: the same header, each code looked up in
    :data:`CODE_TABLE`."""
    return b"".join((binary[:_PRE_HEADER_SIZE],
                     CODE_TABLE.take(_codes_view(binary))))


def stored_codes(blob: bytes) -> np.ndarray:
    """The 8-bit codes (C, H, W) a ``preproc/`` blob holds, what
    :func:`encode_codes` was given: a read-only view, the frame's CRC
    checked (:func:`~repro.storage.compression.codes_payload`)."""
    return _codes_view(codes_payload(blob))


def _codes_view(binary) -> np.ndarray:
    shape = _preprocessed_shape(binary, 1)
    return np.frombuffer(binary, np.uint8,
                         offset=_PRE_HEADER_SIZE).reshape(shape)


def _code_shape(codes: np.ndarray):
    if codes.ndim != 3 or codes.dtype != np.uint8:
        raise CodecError(f"expected (C, H, W) 8-bit codes, got "
                         f"{codes.dtype} of shape {codes.shape}")
    return codes.shape


def _preprocessed_shape(blob: bytes, itemsize: int):
    """``(c, h, w)`` of a preprocessed binary whose payload holds
    ``itemsize`` bytes per element; anything that is not exactly header
    + ``itemsize*c*h*w`` payload bytes is a :class:`CodecError`."""
    if len(blob) < _PRE_HEADER_SIZE:
        raise CodecError("blob too short for a preprocessed-binary header")
    magic, c, h, w = _PRE_HEADER.unpack_from(blob)
    if magic != _PRE_MAGIC:
        raise CodecError("bad preprocessed-binary magic")
    if len(blob) - _PRE_HEADER_SIZE != itemsize * c * h * w:
        raise CodecError(
            f"preprocessed payload is {len(blob) - _PRE_HEADER_SIZE} bytes, "
            f"expected {itemsize * c * h * w} for shape {(c, h, w)}")
    return c, h, w


def _preprocessed_view(blob: bytes) -> np.ndarray:
    """Read-only (C, H, W) fp32 view of a preprocessed binary's payload,
    read in place (``frombuffer(offset=...)``)."""
    shape = _preprocessed_shape(blob, 4)
    data = np.frombuffer(blob, dtype=np.float32, offset=_PRE_HEADER_SIZE)
    return data.reshape(shape)


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
