"""The array frame :func:`~repro.storage.compression.compress_array`
writes, every codec's one-call ``compress``, and the retired byte-plane
frame :func:`~repro.storage.compression.inflate` refuses.

:func:`~repro.storage.compression.compress_array` writes ``NDPZ`` then
one stored (:data:`~repro.storage.compression.NOISE`) zlib stream of
``dtype|shape|`` and the array's bytes, whatever its element size; the
Huffman-only stream it wrote before still inflates.  The ``NDPB``
byte-plane frame an earlier array codec wrote for arrays wider than a
byte is refused by name: no persisted blob holds one (the checkpoint
journal is uint8, which that codec framed as ``NDPZ`` too).
:func:`stored` and :func:`huffman_only` spell the streams out with
``zlib`` alone, so a payload routed through another codec fails by
layout even where its own decoder would round-trip.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.durability.checkpoint import CheckpointError
from repro.models.registry import tiny_model
from repro.storage import compression
from repro.storage.compression import (
    FEATURE_ROWS,
    NOISE,
    TEXT,
    Codec,
    compress_array,
    decompress_array,
    deflate,
    inflate,
)


def spelled_out(data: bytes, level: int, strategy: int) -> bytes:
    packer = zlib.compressobj(level, zlib.DEFLATED, zlib.MAX_WBITS,
                              zlib.DEF_MEM_LEVEL, strategy)
    return packer.compress(data) + packer.flush()


def huffman_only(data: bytes) -> bytes:
    """What the journal's array codec wrote before it stored its codes."""
    return spelled_out(data, 6, zlib.Z_HUFFMAN_ONLY)


def stored(data: bytes) -> bytes:
    return spelled_out(data, 0, zlib.Z_DEFAULT_STRATEGY)


#: the journal's array codec before it stored its codes
HUFFMAN_ONLY = Codec(6, zlib.Z_HUFFMAN_ONLY)


payloads = st.binary(min_size=0, max_size=25)


class TestDamage:
    """Every damaged frame raises ``ValueError`` — never ``zlib.error``,
    ``IndexError`` or ``struct.error``, which no loader catches."""

    @given(payloads, st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_truncation(self, raw, data):
        frame = deflate(raw, NOISE)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(ValueError):
            inflate(frame[:cut])

    def test_every_truncation_of_one_frame(self):
        frame = deflate(bytes(range(37)) * 3, NOISE)
        for cut in range(len(frame)):
            with pytest.raises(ValueError):
                inflate(frame[:cut])

    @pytest.mark.parametrize(
        "codec", [TEXT, HUFFMAN_ONLY, NOISE, FEATURE_ROWS],
        ids=["NDPZ", "NDPZ-huffman-only", "NDPZ-stored", "NDPZ-rle"])
    def test_bytes_after_the_stream_are_refused(self, codec):
        """``zlib.decompress`` stops at the end of a stream and drops what
        follows: a frame with appended garbage used to inflate."""
        raw = b"preprocessed binary " * 9
        frame = deflate(raw, codec)
        assert inflate(frame) == raw
        with pytest.raises(ValueError, match="after its end"):
            inflate(frame + b"xyz")

    def test_an_ndpb_frame_is_refused_by_name(self):
        """What the byte-plane codec wrote for four float32s: its head
        (width, length, CRC32), then the planes."""
        frame = b"NDPB" + bytes([4]) + (16).to_bytes(8, "big") + bytes(20)
        with pytest.raises(ValueError, match="NDPB byte-plane frame"):
            inflate(frame)

    def test_an_unparseable_dtype_is_a_value_error(self):
        blob = deflate(b"<q7|3|" + bytes(24), NOISE)
        with pytest.raises(ValueError, match="dtype"):
            decompress_array(blob)


@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
def test_an_array_is_one_stored_stream(dtype):
    stack = (np.random.default_rng(2).random((5, 3, 2, 2)) * 255).astype(dtype)
    blob = compress_array(stack)
    header = f"{stack.dtype.str}|5,3,2,2|".encode()
    assert blob == b"NDPZ" + stored(header + stack.tobytes())
    assert decompress_array(blob).tobytes() == stack.tobytes()
    # an array written Huffman-only before still reads
    assert decompress_array(
        b"NDPZ" + huffman_only(header + stack.tobytes())).tobytes() == (
            stack.tobytes())


CODECS = {name: codec for name, codec in vars(compression).items()
          if isinstance(codec, Codec)}


@pytest.mark.parametrize("name", sorted(CODECS))
def test_compress_is_the_compressobj_spelling(name):
    """One ``zlib.compress`` call where the strategy allows it, the same
    bytes as a ``compressobj`` at that level and strategy."""
    codec = CODECS[name]
    rng = np.random.default_rng(3)
    for data in (b"", bytes(1000), rng.integers(0, 256, 5000, np.uint8)
                 .tobytes(), b"key|<f4|3,4|" * 400,
                 np.maximum(rng.standard_normal(3000), 0)
                 .astype(np.float32).tobytes()):
        assert codec.compress(data) == spelled_out(data, codec.level,
                                                   codec.strategy)


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
