"""The Store -> Tuner feature channel: 8-bit rows, one float32 scale each.

``FeatureRows`` is the one wire form of feature rows and
``checknrun.quantize`` the one quantiser behind it and behind live
deltas.  These properties pin the codec (size, idempotence, the error
bound, exact constant rows, row independence, refusal of non-finite
rows) and that sharing the quantiser left delta bodies as they were.
"""

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.checknrun import (
    FEATURE_BITS,
    DeltaError,
    apply_delta,
    encode_delta,
)
from repro.core.ftdmp import FeatureRows

F32 = np.float32

finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
#: rows whose step would be subnormal in float32: each is sent as its
#: minimum (a constant row), within its own range of the original
SUBNORMAL = np.array([[0.0, 1.4e-45, 2.8e-45], [0.0, 4.9542e-41, 0.0]],
                     F32)
#: the widest range sent as a constant: 255 smallest normal float32s
FLAT = 255 * np.finfo(F32).tiny


def row_batches(max_rows=6, max_width=40, elements=finite32):
    return st.integers(1, max_rows).flatmap(
        lambda n: st.integers(1, max_width).flatmap(
            lambda d: hnp.arrays(F32, (n, d), elements=elements)))


def send(rows):
    return FeatureRows.encode(rows).to_bytes()


class TestWireForm:
    @settings(max_examples=60, deadline=None)
    @given(row_batches())
    def test_the_encoding_is_wire_size_long(self, rows):
        message = FeatureRows.encode(rows)
        assert len(message.to_bytes()) == message.wire_size() == (
            len(rows) * (rows.shape[1] * FEATURE_BITS // 8 + 8))

    def test_row_shape_is_kept_and_not_sent(self):
        rows = np.random.default_rng(0).random((3, 4, 2, 2)).astype(F32)
        message = FeatureRows.encode(rows)
        assert message.wire_size() == 3 * (16 + 8)
        assert message.decode().shape == rows.shape


class TestCodec:
    @settings(max_examples=80, deadline=None)
    @given(row_batches())
    @example(SUBNORMAL)
    def test_re_encoding_decoded_rows_gives_the_same_bytes(self, rows):
        message = FeatureRows.encode(rows)
        assert send(message.decode()) == message.to_bytes()

    @settings(max_examples=80, deadline=None)
    @given(row_batches())
    @example(SUBNORMAL)
    def test_error_is_within_half_a_step(self, rows):
        message = FeatureRows.encode(rows)
        decoded = message.decode()
        assert decoded.dtype == F32
        wide = rows.astype(np.float64)
        error = np.abs(wide - decoded)
        # half a step, plus the one rounding of the decoded element to
        # float32 (half its spacing, widened to cover the binade edge)
        bound = (message.step[:, None].astype(np.float64) / 2
                 + np.abs(wide) * 2.0 ** -23 + FLAT)
        assert (error <= bound).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 30), finite32)
    def test_constant_rows_decode_exactly(self, n, width, value):
        rows = np.full((n, width), value, F32)
        np.testing.assert_array_equal(FeatureRows.encode(rows).decode(),
                                      rows)

    def test_all_zero_rows_decode_exactly(self):
        rows = np.zeros((4, 256), F32)
        decoded = FeatureRows.encode(rows).decode()
        np.testing.assert_array_equal(decoded, rows)
        assert not np.signbit(decoded).any()

    @settings(max_examples=60, deadline=None)
    @given(row_batches(), row_batches())
    def test_rows_are_coded_alone(self, a, b):
        b = np.resize(b, (len(b), a.shape[1]))
        joined = np.concatenate([a, b])
        assert send(joined) == send(a) + send(b)
        np.testing.assert_array_equal(
            np.concatenate([FeatureRows.encode(a).decode(),
                            FeatureRows.encode(b).decode()]),
            FeatureRows.encode(joined).decode())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_refused(self, bad):
        rows = np.ones((3, 8), F32)
        rows[1, 5] = bad
        with pytest.raises(DeltaError, match="non-finite"):
            FeatureRows.encode(rows)

    def test_codes_are_one_byte_and_scales_float32(self):
        rows = np.random.default_rng(1).random((5, 256)).astype(F32)
        message = FeatureRows.encode(rows)
        assert message.codes.dtype == np.uint8
        assert message.low.dtype == message.step.dtype == F32
        assert message.codes.max() == 255 and message.codes.min() == 0
        assert message.wire_size() == 5 * 264


def state_pair():
    rng = np.random.default_rng(43)
    old = {"fc.weight": rng.normal(size=(8, 32)),
           "fc.bias": rng.normal(size=(8,)),
           "front.w": rng.normal(size=(4, 3)).astype(F32),
           "bn.count": np.arange(5, dtype=np.int64),
           "still": rng.normal(size=(6,))}
    new = {"fc.weight": old["fc.weight"]
           - 3e-3 * np.sign(rng.normal(size=(8, 32))),
           "fc.bias": old["fc.bias"] + rng.normal(size=(8,)) * 1e-2,
           "front.w": (old["front.w"] * 1.5).astype(F32),
           "bn.count": old["bn.count"] + np.array([1, 500, 991, 0, 7]),
           "still": old["still"]}
    return old, new


class TestDeltasDidNotMove:
    """Pinned before the quantiser went per row: the SHA-256 (first 32
    hex digits) of each blob's header and inflated body — the body, not
    the deflate stream, so the pin does not depend on the zlib build."""

    @pytest.mark.parametrize("bits, digest", [
        (None, "967e9b921eeb008d300279b8cec2dfc7"),
        (4, "5d2644ecfd8290adff5d4069eff0fc5c"),
        (8, "61b090db096ffc6e9173ba32e4c1caf6"),
        (16, "60314a0fe3311c5cb9b27b0323aacef9"),
    ])
    def test_encode_delta_bodies_are_the_parent_bytes(self, bits, digest):
        old, new = state_pair()
        blob = encode_delta(old, new, quantize_bits=bits)
        body = blob[:8] + zlib.decompress(blob[12:])
        assert hashlib.sha256(body).hexdigest()[:32] == digest
        rebuilt = apply_delta(old, blob)
        assert rebuilt["bn.count"].tolist() == [1, 501, 993, 3, 11]
