"""Property-based gradient verification: autograd vs finite differences."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat, gelu, log_softmax


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check(op, x: np.ndarray, atol: float = 1e-5) -> None:
    tensor = Tensor(x.copy(), requires_grad=True)
    out = op(tensor)
    out.sum().backward()
    expected = numeric_grad(lambda arr: op(Tensor(arr)).data.sum(), x.copy())
    assert np.allclose(tensor.grad, expected, atol=atol), (
        f"max err {np.abs(tensor.grad - expected).max():.2e}"
    )


arrays = st.integers(min_value=1, max_value=4)


@settings(max_examples=12, deadline=None)
@given(n=arrays, m=arrays, seed=st.integers(0, 2**31 - 1))
def test_elementwise_ops_gradcheck(n, m, seed):
    x = np.random.default_rng(seed).normal(size=(n, m)) * 0.8 + 0.1
    check(lambda t: t.tanh() * t, x)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_exp_log_softmax_gradcheck(seed):
    x = np.random.default_rng(seed).normal(size=(3, 5))
    check(lambda t: log_softmax(t, axis=-1), x)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_gelu_gradcheck(seed):
    x = np.random.default_rng(seed).normal(size=(2, 6))
    check(gelu, x, atol=1e-4)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_matmul_gradcheck(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(2, 4))
    check(lambda t: t @ Tensor(w), x)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_reductions_gradcheck(seed):
    x = np.random.default_rng(seed).normal(size=(3, 4)) + 2.0
    check(lambda t: t.mean(axis=0) * t.sum(axis=0), x)
    check(lambda t: t.var(axis=1), x)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), stride=st.sampled_from([1, 2]),
       padding=st.sampled_from([0, 1]))
def test_conv2d_gradcheck(seed, stride, padding):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))

    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    F.conv2d(xt, wt, stride=stride, padding=padding).sum().backward()

    expected_x = numeric_grad(
        lambda arr: F.conv2d(Tensor(arr), Tensor(w), stride, padding).data.sum(),
        x.copy(),
    )
    expected_w = numeric_grad(
        lambda arr: F.conv2d(Tensor(x), Tensor(arr), stride, padding).data.sum(),
        w.copy(),
    )
    assert np.allclose(xt.grad, expected_x, atol=1e-5)
    assert np.allclose(wt.grad, expected_w, atol=1e-5)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_grouped_conv2d_gradcheck(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 4, 4, 4))
    w = rng.normal(size=(4, 2, 3, 3))  # groups=2
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    F.conv2d(xt, wt, padding=1, groups=2).sum().backward()
    expected_x = numeric_grad(
        lambda arr: F.conv2d(Tensor(arr), Tensor(w), 1, 1, 2).data.sum(),
        x.copy(),
    )
    assert np.allclose(xt.grad, expected_x, atol=1e-5)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_depthwise_conv2d_gradcheck(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(3, 1, 3, 3))  # groups == channels
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    F.conv2d(xt, wt, stride=2, padding=1, groups=3).sum().backward()
    expected_x = numeric_grad(
        lambda arr: F.conv2d(Tensor(arr), Tensor(w), 2, 1, 3).data.sum(),
        x.copy(),
    )
    expected_w = numeric_grad(
        lambda arr: F.conv2d(Tensor(x), Tensor(arr), 2, 1, 3).data.sum(),
        w.copy(),
    )
    assert np.allclose(xt.grad, expected_x, atol=1e-5)
    assert np.allclose(wt.grad, expected_w, atol=1e-5)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), kernel=st.sampled_from([2, 3]))
def test_pool_gradcheck(seed, kernel):
    x = np.random.default_rng(seed).normal(size=(1, 2, 6, 6))
    check(lambda t: F.avg_pool2d(t, kernel), x)
    # max pool has kinks; nudge away from ties for finite differences
    x = x + np.arange(x.size).reshape(x.shape) * 1e-3
    check(lambda t: F.max_pool2d(t, kernel), x)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_concat_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3))
    check(lambda t: concat([t * 2, t + 1], axis=1), a)


def test_numeric_grad_sanity():
    # d/dx x^2 = 2x
    x = np.array([3.0])
    grad = numeric_grad(lambda a: float((a ** 2).sum()), x)
    assert np.allclose(grad, 6.0, atol=1e-4)
