"""Every hot path against its reference oracle.

``src/repro`` ships one implementation of each hot path.  The batched
conv, unfold, preprocess and codec forms change *how fast* numbers are
produced, never *which* numbers: these property tests sweep seeded
shape/dtype/stride/padding/group grids and demand exact float equality
— ``assert_array_equal``, not ``allclose`` — between the shipped code
and the oracles in :mod:`tests.nn.reference_ops` (called directly on
identical operands), for forward values and for every gradient.  The
compiled frozen eval graph is the one path that changes arithmetic on
purpose; it is held to the stated tolerance against float64 oracles
(``TestEvalForwardMatchesTensorPath``).
"""

import numpy as np
import pytest

from repro.models.registry import TINY_FACTORIES, tiny_model
from repro.nn import functional as F
from repro.nn.functional import conv2d, conv_output_size, im2col
from repro.nn.layers import BatchNorm2d, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.storage.compression import compress_array, decompress_array, deflate, inflate
from repro.storage.imageformat import (
    decode_photo,
    decode_preprocessed,
    decode_preprocessed_into,
    encode_photo,
    encode_preprocessed,
    preprocess,
    quantise,
)
from tests.nn.reference_ops import (
    assert_frozen_graph_close,
    batchnorm_eval,
    conv2d_grouped,
    sequential_unfolded,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False


def _conv_operands(seed, dtype, groups, with_grad=True):
    rng = np.random.default_rng(seed)
    n, c_per, f_per, hw, k = 3, 2, 3, 7, 3
    x = rng.standard_normal((n, c_per * groups, hw, hw)).astype(dtype)
    w = rng.standard_normal(
        (f_per * groups, c_per, k, k)).astype(dtype) * 0.3
    return x, w


def _oracle_conv2d(x, weight, stride=1, padding=0, groups=1):
    """The per-group oracle, dispatched like ``conv2d``: a depthwise
    shape has one (offset-loop) body and no GEMM to mirror, so it runs
    the shipped code on both sides."""
    c, (f, c_per_group) = x.shape[1], weight.shape[:2]
    if groups == c and f == c and c_per_group == 1:
        return conv2d(x, weight, stride, padding, groups)
    return conv2d_grouped(x, weight, stride, padding, groups)


def _run_conv(conv, x, w, stride, padding, groups, upstream):
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    out = conv(xt, wt, stride=stride, padding=padding, groups=groups)
    out.backward(upstream(out.shape))
    return out.data, xt.grad, wt.grad


class TestConvBitIdentical:
    """The batched-matmul conv == the per-group oracle conv, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_forward_and_gradients(self, dtype, groups, stride, padding):
        x, w = _conv_operands(11, dtype, groups)
        g_rng = np.random.default_rng(12)
        cache = {}

        def upstream(shape):
            # the same upstream gradient must reach both implementations
            if shape not in cache:
                cache[shape] = g_rng.standard_normal(shape).astype(x.dtype)
            return cache[shape]

        out_s, dx_s, dw_s = _run_conv(_oracle_conv2d, x, w, stride, padding,
                                      groups, upstream=upstream)
        out_v, dx_v, dw_v = _run_conv(conv2d, x, w, stride, padding,
                                      groups, upstream=upstream)
        np.testing.assert_array_equal(out_s, out_v)
        np.testing.assert_array_equal(dx_s, dx_v)
        np.testing.assert_array_equal(dw_s, dw_v)
        assert out_v.dtype == dtype and dx_v.dtype == dtype

    def test_seeded_shape_sweep(self):
        """Random small shapes, both dtypes, forward exactness."""
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(1, 4))
            groups = int(rng.choice([1, 2]))
            c_per = int(rng.integers(1, 4))
            f_per = int(rng.integers(1, 4))
            hw = int(rng.integers(4, 9))
            k = int(rng.choice([1, 3]))
            dtype = [np.float64, np.float32][trial % 2]
            x = rng.standard_normal(
                (n, c_per * groups, hw, hw)).astype(dtype)
            w = rng.standard_normal(
                (f_per * groups, c_per, k, k)).astype(dtype)
            ref = _oracle_conv2d(Tensor(x), Tensor(w), padding=1,
                                 groups=groups).data
            vec = conv2d(Tensor(x), Tensor(w), padding=1,
                         groups=groups).data
            np.testing.assert_array_equal(ref, vec)


class TestBatchNormEvalFastPath:
    def test_eval_forward_matches_tensor_path(self):
        """A BatchNorm that follows no conv: ``x * scale + shift`` with the
        float64 pair — the Tensor path's value to rounding, its dtype."""
        rng = np.random.default_rng(5)
        bn = BatchNorm2d(6).eval()
        _randomize_batchnorm(bn, seed=5)
        x = rng.standard_normal((4, 6, 5, 5))
        ref = bn(Tensor(x)).data  # gradients on: the Tensor path
        with no_grad():
            lean = bn(Tensor(x)).data
            oracle = batchnorm_eval(bn, Tensor(x)).data
        np.testing.assert_array_equal(ref, oracle)
        assert lean.dtype == ref.dtype
        np.testing.assert_allclose(lean, ref, rtol=1e-14, atol=1e-14)

    def test_fast_path_keeps_parameter_gradients(self):
        """The raw-numpy path must not engage while gradients are on —
        gamma/beta still train even when the input itself is frozen."""
        rng = np.random.default_rng(6)
        bn = BatchNorm2d(3)
        bn.eval()
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))  # requires_grad=False
        out = bn(x)
        out.sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


def _randomize_batchnorm(model, seed):
    """Non-trivial running stats and affine terms, so eval BN does work.
    Goes through ``load_state_dict`` — the sanctioned way to replace a
    module's arrays."""
    rng = np.random.default_rng(seed)
    state = model.state_dict()
    for key, value in state.items():
        c = value.shape
        if key.endswith("running_mean"):
            state[key] = rng.standard_normal(c) * 0.3
        elif key.endswith("running_var"):
            state[key] = rng.uniform(0.3, 2.0, c)
        elif key.endswith("gamma"):
            state[key] = rng.standard_normal(c)
        elif key.endswith("beta"):
            state[key] = rng.standard_normal(c) * 0.2
    model.load_state_dict(state)


class TestEvalForwardMatchesTensorPath:
    """The compiled ``no_grad`` forward (BatchNorm folded into the conv
    before it, float32 through the GEMM, scratch-reusing ReLU / residual
    add) against its float64, unfolded oracles.  The contract is stated,
    not bit-exact: per model ``|delta| <= 2e-6 * max|reference|`` and the
    same top-1 label on every row."""

    @pytest.mark.parametrize("batch", [1, 2, 64])
    @pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
    def test_zoo_model_within_tolerance_of_tensor_path(self, name, batch):
        model = tiny_model(name).eval()
        _randomize_batchnorm(model, seed=7)
        x = np.random.default_rng(batch).standard_normal(
            (batch,) + model.input_shape).astype(np.float32)
        oracle = model(Tensor(x)).data  # gradients on: float64, unfolded
        with no_grad():
            compiled = model(Tensor(x)).data
        assert compiled.dtype == oracle.dtype  # the classifier is float64
        assert_frozen_graph_close(oracle, compiled)

    @pytest.mark.parametrize("batch", [1, 2, 64])
    @pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
    def test_zoo_model_matches_monkeypatched_oracles(self, name, batch,
                                                     monkeypatch):
        """The shipped ``no_grad`` forward against the same model run with
        the unfolded Sequential, the Tensor-path BatchNorm and the
        per-group conv patched in."""
        model = tiny_model(name).eval()
        _randomize_batchnorm(model, seed=7)
        x = np.random.default_rng(batch).standard_normal(
            (batch,) + model.input_shape).astype(np.float32)
        with no_grad():
            shipped = model(Tensor(x)).data
        monkeypatch.setattr(F, "_conv2d_matmul", conv2d_grouped)
        monkeypatch.setattr(Sequential, "forward", sequential_unfolded)
        monkeypatch.setattr(BatchNorm2d, "forward", batchnorm_eval)
        with no_grad():
            oracle = model(Tensor(x)).data
        assert shipped.dtype == oracle.dtype
        assert_frozen_graph_close(oracle, shipped)

    def test_vit_has_no_batchnorm_and_stays_bit_identical(self):
        model = tiny_model("ViT").eval()
        x = np.random.default_rng(3).standard_normal(
            (4,) + model.input_shape).astype(np.float32)
        oracle = model(Tensor(x)).data
        with no_grad():
            np.testing.assert_array_equal(oracle, model(Tensor(x)).data)

    def test_activations_stay_float32_up_to_the_global_pool(self):
        model = tiny_model("ResNet50").eval()
        x = np.random.default_rng(4).standard_normal(
            (2,) + model.input_shape).astype(np.float32)
        with no_grad():
            # Conv1..Conv4; Conv5 ends in the global average pool, whose
            # float64 ``1 / count`` hands the classifier float64 features
            for split in range(1, model.num_stages - 1):
                assert model.forward_until(Tensor(x), split).dtype == np.float32
            assert model(Tensor(x)).dtype == np.float64

    @pytest.mark.parametrize("shape", [(1, 6, 5, 5), (8, 6, 5, 5),
                                       (16, 6, 2, 2)])
    @pytest.mark.parametrize("x_dtype,param_dtype", [
        (np.float64, np.float64), (np.float32, np.float64),
        (np.float32, np.float32), (np.float64, np.float32)])
    def test_batchnorm_dtype_mixes(self, shape, x_dtype, param_dtype):
        """A BatchNorm behind no conv computes ``x * scale + shift`` with a
        float64 pair: float64 out whatever comes in, in place only where
        that cannot change the result."""
        rng = np.random.default_rng(5)
        bn = BatchNorm2d(6).eval()
        _randomize_batchnorm(bn, seed=6)
        bn.load_state_dict({key: value.astype(param_dtype)
                            for key, value in bn.state_dict().items()})
        x = rng.standard_normal(shape).astype(x_dtype)
        oracle = batchnorm_eval(bn, Tensor(x.astype(np.float64))).data
        with no_grad():
            lean = bn(Tensor(x)).data
            # a scratch input (what a conv hands BatchNorm) may be overwritten
            scratch = bn(Tensor(x.copy(), _scratch=True)).data
        for got in (lean, scratch):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, oracle, rtol=1e-6, atol=1e-6)
        np.testing.assert_array_equal(lean, scratch)


def _reference_unfold(x, k, stride, padding):
    """The historic im2col: ``np.pad`` plus one slice copy per kernel offset."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, padding)
    ow = conv_output_size(w, k, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i:i + stride * oh:stride,
                                 j:j + stride * ow:stride]
    return cols.reshape(n, c * k * k, oh * ow)


class TestPreprocessBatching:
    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(7)
        batch = rng.uniform(0, 1, (5, 16, 16, 3)).astype(np.float32)
        whole = preprocess(batch)
        singles = np.stack([preprocess(img) for img in batch])
        np.testing.assert_array_equal(whole, singles)
        assert whole.dtype == np.float32


class TestCodecZeroCopy:
    def _photo(self, seed=8):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, (16, 16, 3)).astype(np.float32)

    def test_decode_photo_identical(self):
        codes = quantise(self._photo())
        quantised = codes / 255.0
        # padding past the payload is not read
        blob = encode_photo(codes)
        for padded in (blob, blob.ljust(4096, b"\0")):
            np.testing.assert_array_equal(decode_photo(padded), quantised)

    def test_decode_preprocessed_identical_and_writable(self):
        tensor = preprocess(self._photo()).transpose(2, 0, 1)
        blob = encode_preprocessed(tensor)
        fast = decode_preprocessed(blob)
        np.testing.assert_array_equal(tensor, fast)
        fast[0, 0, 0] = 42.0  # zero-copy decode still hands back owned memory

    def test_decode_into_matches_decode(self):
        tensor = preprocess(self._photo()).transpose(2, 0, 1)
        blob = encode_preprocessed(tensor)
        out = np.empty_like(tensor)
        decode_preprocessed_into(inflate(deflate(blob)), out)
        np.testing.assert_array_equal(out, decode_preprocessed(blob))

    def test_inflate_and_array_roundtrip_identical(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((5, 7)).astype(np.float32)
        blob = compress_array(arr)
        payload = deflate(b"some raw bytes" * 20)
        fast_arr = decompress_array(blob)
        np.testing.assert_array_equal(arr, fast_arr)
        assert fast_arr.dtype == arr.dtype
        assert inflate(payload) == b"some raw bytes" * 20
        fast_arr[0, 0] = 1.0  # decompressed array is writable


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        f=st.integers(1, 4),
        hw=st.integers(3, 8),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
        seed=st.integers(0, 2**16),
        use_f32=st.booleans(),
    )
    def test_conv_forward_property(n, c, f, hw, stride, padding, seed,
                                   use_f32):
        """Hypothesis: any small conv agrees exactly with the oracle."""
        dtype = np.float32 if use_f32 else np.float64
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, hw, hw)).astype(dtype)
        w = rng.standard_normal((f, c, 3, 3)).astype(dtype)
        ref = _oracle_conv2d(Tensor(x), Tensor(w), stride=stride,
                             padding=padding).data
        vec = conv2d(Tensor(x), Tensor(w), stride=stride,
                     padding=padding).data
        np.testing.assert_array_equal(ref, vec)


    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        c_per_group=st.integers(1, 3),
        groups=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        use_f32=st.booleans(),
    )
    def test_unfold_matches_reference_bytes(n, c_per_group, groups, h, w, k,
                                            stride, padding, seed, use_f32):
        """Hypothesis: the copy-free / strided unfold lands the reference's
        bytes — for the whole input and for each group's channel slice (a
        non-contiguous view, which is what the per-group conv unfolds)."""
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        dtype = np.float32 if use_f32 else np.float64
        x = np.random.default_rng(seed).standard_normal(
            (n, c_per_group * groups, h, w)).astype(dtype)
        keep = x.copy()
        views = [x] + [x[:, g * c_per_group:(g + 1) * c_per_group]
                       for g in range(groups)]
        for view in views:
            cols, oh, ow = im2col(view, k, k, stride, padding)
            ref = _reference_unfold(np.ascontiguousarray(view), k, stride,
                                    padding)
            assert cols.dtype == ref.dtype and cols.shape == ref.shape
            assert (oh, ow) == (conv_output_size(h, k, stride, padding),
                                conv_output_size(w, k, stride, padding))
            assert cols.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(x, keep)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        c_per_group=st.integers(1, 3),
        f_per_group=st.integers(1, 3),
        groups=st.integers(1, 3),
        hw=st.integers(3, 8),
        k=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        use_f32=st.booleans(),
    )
    def test_grouped_conv_forward_property(n, c_per_group, f_per_group, groups,
                                           hw, k, stride, padding, seed,
                                           use_f32):
        """Hypothesis: every kernel size / group count agrees exactly across
        the per-group oracle conv and the batched one, under ``no_grad``."""
        if hw + 2 * padding < k:
            return
        dtype = np.float32 if use_f32 else np.float64
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c_per_group * groups, hw, hw)).astype(dtype)
        w = rng.standard_normal(
            (f_per_group * groups, c_per_group, k, k)).astype(dtype)
        with no_grad():
            ref = _oracle_conv2d(Tensor(x), Tensor(w), stride=stride,
                                 padding=padding, groups=groups).data
            vec = conv2d(Tensor(x), Tensor(w), stride=stride,
                         padding=padding, groups=groups).data
        np.testing.assert_array_equal(ref, vec)
