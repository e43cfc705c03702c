"""Reference implementations the shipped hot paths are tested against.

These are test oracles, called directly: ``src/repro`` ships exactly one
implementation of each hot path.  For a path whose arithmetic is
unchanged "equivalent" means "bit-identical to the oracle on the same
operands" (``conv2d_grouped``, the former in-tree per-group convolution,
moved here verbatim).  The compiled frozen eval graph changes arithmetic
on purpose (BatchNorm folded into the preceding conv, float32 through the
GEMM); its oracles stay float64 and unfolded — ``batchnorm_eval``,
``sequential_unfolded`` and the grad-enabled Tensor path — and the
contract is :func:`assert_frozen_graph_close`.
"""

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.tensor import Tensor


def conv2d_grouped(x: Tensor, weight: Tensor, stride: int, padding: int,
                   groups: int) -> Tensor:
    """Per-group loop, one im2col and GEMM per group.

    Performs the exact arithmetic of ``F._conv2d_matmul`` group by group
    (same contraction element order), so the shipped conv must be
    bit-identical to it (``tests/nn/test_functional_equivalence.py``).
    Signature-compatible, so it can be monkeypatched over it.
    """
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    f_per_group = f // groups
    k = c_per_group * kh * kw
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    p = oh * ow

    cols_list = []
    outs = np.empty((n, f, p), dtype=x.data.dtype)
    w2 = weight.data.reshape(groups, f_per_group, k)
    for g in range(groups):
        xg = x.data[:, g * c_per_group:(g + 1) * c_per_group]
        cols, _, _ = im2col(xg, kh, kw, stride, padding)
        cols_list.append(cols)
        outs[:, g * f_per_group:(g + 1) * f_per_group] = np.matmul(w2[g], cols)
    out_data = outs.reshape(n, f, oh, ow)

    def backward(grad):
        grad = grad.reshape(n, f, p)
        if weight.requires_grad:
            dw = np.empty_like(weight.data).reshape(groups, f_per_group, k)
            for g in range(groups):
                gg = grad[:, g * f_per_group:(g + 1) * f_per_group]
                gf = gg.transpose(1, 0, 2).reshape(f_per_group, n * p)
                ck = cols_list[g].transpose(1, 0, 2).reshape(k, n * p)
                dw[g] = np.matmul(gf, ck.T)
            weight._accumulate(dw.reshape(weight.shape))
        if x.requires_grad:
            dx = np.empty_like(x.data)
            xg_shape = (n, c_per_group, h, w)
            for g in range(groups):
                gg = grad[:, g * f_per_group:(g + 1) * f_per_group]
                dcols = np.matmul(w2[g].T, gg)
                dx[:, g * c_per_group:(g + 1) * c_per_group] = col2im(
                    dcols, xg_shape, kh, kw, stride, padding
                )
            x._accumulate(dx)

    return x._make(out_data, (x, weight), backward)


#: Frozen-graph deviation bound, relative to the largest reference
#: magnitude: float32 carries 6e-8 per rounding, the zoo's ~50 layers
#: measured 1.6e-7 ... 4.6e-7 at batch 256 with randomised statistics.
FROZEN_GRAPH_RTOL = 2e-6


def assert_frozen_graph_close(reference: np.ndarray, got: np.ndarray) -> None:
    """``|got - reference| <= FROZEN_GRAPH_RTOL * max|reference|`` and, for
    (N, classes) logits, the same top-1 label on every row."""
    assert got.shape == reference.shape
    bound = FROZEN_GRAPH_RTOL * np.abs(reference).max()
    worst = np.abs(got - reference).max()
    assert worst <= bound, f"deviation {worst:.3e} over bound {bound:.3e}"
    if reference.ndim == 2:
        np.testing.assert_array_equal(got.argmax(axis=1),
                                      reference.argmax(axis=1))


def sequential_unfolded(seq, x: Tensor) -> Tensor:
    """``Sequential.forward`` as a plain loop: every layer runs on its own,
    no conv absorbs the BatchNorm behind it.  Monkeypatchable over
    ``Sequential.forward``."""
    for layer in seq:
        x = layer(x)
    return x


def batchnorm_eval(bn, x: Tensor) -> Tensor:
    """Eval-mode BatchNorm2d through Tensor ops, one node per op — the
    expression ``BatchNorm2d.forward`` builds when gradients are on.
    Monkeypatchable over ``BatchNorm2d.forward`` (eval-mode models only)."""
    mean = Tensor(bn._buffers["running_mean"].reshape(1, -1, 1, 1))
    var = Tensor(bn._buffers["running_var"].reshape(1, -1, 1, 1))
    normed = (x - mean) * (var + bn.eps) ** -0.5
    return normed * bn.gamma.reshape(1, -1, 1, 1) + bn.beta.reshape(1, -1, 1, 1)
