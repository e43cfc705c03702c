"""The byte-plane frame of :data:`~repro.storage.compression.PIXELS`.

``NDPB | width, length | CRC32 | lead | planes 0 … width-2 | zlib(top
plane)``: a float payload split into its little-endian byte planes, only
the top plane (sign and exponent) Huffman-coded.  :func:`plane_frame`
spells the frame out with byte slicing and ``zlib`` alone, so a codec
that codes a mantissa plane, drops the lead or reorders the planes fails
by layout even where its own decoder would round-trip.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.durability.checkpoint import CheckpointError
from repro.models.registry import tiny_model
from repro.storage.compression import (
    PIXELS,
    compress_array,
    decompress_array,
    deflate,
    inflate,
)

HEAD = 4 + 9 + 4  # magic, width + length, CRC32


def huffman_only(data: bytes) -> bytes:
    packer = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS,
                              zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)
    return packer.compress(data) + packer.flush()


def plane_frame(raw: bytes, width: int) -> bytes:
    """The frame :func:`deflate` must write for ``raw`` at ``width``."""
    lead = len(raw) % width
    planes = [raw[lead + plane::width] for plane in range(width)]
    fields = struct.pack(">BQ", width, len(raw))
    body = raw[:lead] + b"".join(planes[:-1]) + huffman_only(planes[-1])
    return b"NDPB" + fields + struct.pack(">I", zlib.crc32(fields + body)) + body


def reseal(frame: bytes) -> bytes:
    """A plane frame with its CRC recomputed over whatever it now holds."""
    frame = bytearray(frame)
    struct.pack_into(">I", frame, 13, zlib.crc32(frame[4:13] + frame[HEAD:]))
    return bytes(frame)


def codec(width: int):
    return PIXELS._replace(width=width)


@st.composite
def payloads(draw):
    width = draw(st.sampled_from([2, 4, 8]))
    raw = draw(st.binary(min_size=0, max_size=3 * width + 1))
    return raw, width


class TestRoundTrip:
    @given(payloads())
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_at_any_width(self, case):
        raw, width = case
        frame = deflate(raw, codec(width))
        assert frame == plane_frame(raw, width)
        assert inflate(frame) == raw
        assert inflate(memoryview(b"__" + frame)[2:]) == raw

    def test_every_length_up_to_three_elements_and_one(self):
        rng = np.random.default_rng(0)
        for width in (2, 4, 8):
            for size in range(3 * width + 2):
                raw = rng.bytes(size)
                assert inflate(deflate(raw, codec(width))) == raw

    def test_a_preprocessed_binary_codes_its_exponent_plane(self):
        """9-byte ``NDPP`` header + float32 payload: a 1-byte lead, and
        the coded plane is the one holding sign and exponent."""
        from repro.storage.imageformat import encode_preprocessed

        tensor = np.random.default_rng(1).random((3, 4, 4)).astype(np.float32)
        raw = encode_preprocessed(tensor)
        frame = deflate(raw, PIXELS)
        assert len(raw) % 4 == 1 and frame[HEAD] == raw[0]
        assert frame == plane_frame(raw, 4)
        elements = np.frombuffer(raw, np.uint8, offset=1).reshape(-1, 4)
        exponents = (tensor.view(np.uint32).ravel() >> 24).astype(np.uint8)
        # the header's last 8 bytes fill the first two elements
        np.testing.assert_array_equal(elements[2:, -1], exponents)
        # the mantissa planes sit verbatim after the lead
        assert frame[HEAD + 1:HEAD + 1 + 3 * len(elements)] == (
            elements[:, :3].T.tobytes())


class TestDamage:
    """Every damaged frame raises ``ValueError`` — never ``zlib.error``,
    ``IndexError`` or ``struct.error``, which no loader catches."""

    @given(payloads(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_truncation(self, case, data):
        raw, width = case
        frame = deflate(raw, codec(width))
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(ValueError):
            inflate(frame[:cut])

    def test_every_truncation_of_one_frame(self):
        frame = deflate(bytes(range(37)) * 3, codec(4))
        for cut in range(len(frame)):
            with pytest.raises(ValueError):
                inflate(frame[:cut])

    @given(payloads(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_single_byte_flip(self, case, data):
        """Head, lead, verbatim planes and the top-plane stream alike."""
        raw, width = case
        frame = bytearray(deflate(raw, codec(width)))
        where = data.draw(st.integers(0, len(frame) - 1))
        frame[where] ^= data.draw(st.integers(1, 255))
        with pytest.raises(ValueError):
            inflate(bytes(frame))

    def test_every_flip_of_one_frame(self):
        """Padding bits after a zlib stream's last block are read by no
        one: only the frame's CRC sees a flip there."""
        frame = deflate(bytes(range(37)) * 3, codec(4))
        for where in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(frame)
                damaged[where] ^= mask
                with pytest.raises(ValueError):
                    inflate(bytes(damaged))

    @given(payloads(), st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_every_lying_length_even_with_a_matching_crc(self, case, lie):
        """The CRC is recomputed over the lie, so the structure itself —
        plane offsets and the top plane's inflated size — must refuse."""
        raw, width = case
        if lie == len(raw):
            lie += 1
        frame = bytearray(deflate(raw, codec(width)))
        struct.pack_into(">Q", frame, 5, lie)
        with pytest.raises(ValueError):
            inflate(reseal(frame))

    @pytest.mark.parametrize("width", [0, 1])
    def test_a_width_below_two_is_refused(self, width):
        frame = bytearray(deflate(b"abcdefgh", codec(4)))
        frame[4] = width
        with pytest.raises(ValueError, match="plane width"):
            inflate(bytes(frame))

    @pytest.mark.parametrize("codec_,seal", [
        (None, bytes), (PIXELS, reseal),
    ], ids=["NDPZ", "NDPB"])
    def test_bytes_after_the_stream_are_refused(self, codec_, seal):
        """``zlib.decompress`` stops at the end of a stream and drops what
        follows: a frame with appended garbage used to inflate.  (A plane
        frame's CRC would refuse it first; resealed, the stream must.)"""
        raw = b"preprocessed binary " * 9
        frame = deflate(raw) if codec_ is None else deflate(raw, codec_)
        assert inflate(frame) == raw
        with pytest.raises(ValueError, match="after its end"):
            inflate(seal(frame + b"xyz"))

    def test_an_unparseable_dtype_is_a_value_error(self):
        blob = deflate(b"<q7|3|" + bytes(24), PIXELS)
        with pytest.raises(ValueError, match="dtype"):
            decompress_array(blob)


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


@pytest.fixture(scope="module")
def clusters():
    def build():
        return NDPipeCluster(factory, ClusterConfig(
            num_stores=2, nominal_raw_bytes=2048))
    return build(), build()


chunk = st.tuples(st.sampled_from([np.float32, np.float64]),
                  st.sampled_from([(3, 4, 4), (3, 2, 2)]),
                  st.integers(1, 3))


class TestStackedJournal:
    @given(st.lists(chunk, min_size=1, max_size=3), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_round_trips_bit_exactly_or_is_refused_by_name(
            self, clusters, chunks, seed):
        source, target = clusters
        rng = np.random.default_rng(seed)
        journal = {}
        for dtype, shape, count in chunks:
            for _ in range(count):
                pixels = rng.random(shape).astype(dtype)
                journal[f"p{len(journal)}"] = (pixels, len(journal) % 3 or None)
        source.control.journal = dict(journal)
        kinds = {(p.dtype, p.shape) for p, _label in journal.values()}
        if len(kinds) > 1:
            with pytest.raises(CheckpointError, match="mix dtypes or shapes"):
                source.checkpoint()
            return
        target.restore(source.checkpoint())
        restored = target.control.journal
        assert list(restored) == list(journal)
        for pid, (pixels, label) in journal.items():
            got, got_label = restored[pid]
            assert got.dtype == pixels.dtype and got.shape == pixels.shape
            assert got.tobytes() == pixels.tobytes()
            assert got_label == label

    def test_an_empty_journal_round_trips(self, clusters):
        source, target = clusters
        source.control.journal = {}
        target.restore(source.checkpoint())
        assert target.control.journal == {}

    @pytest.mark.parametrize("dtype,width", [(np.float32, 4),
                                             (np.float64, 8)])
    def test_the_plane_width_is_the_element_size(self, dtype, width):
        stack = np.random.default_rng(2).random((5, 3, 2, 2)).astype(dtype)
        blob = compress_array(stack)
        assert blob[4] == width
        header = f"{stack.dtype.str}|5,3,2,2|".encode()
        assert blob == plane_frame(header + stack.tobytes(), width)
