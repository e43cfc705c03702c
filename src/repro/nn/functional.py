"""Convolution / pooling primitives with hand-written backward passes.

These are registered as autograd nodes on :class:`repro.nn.tensor.Tensor`.
``im2col``/``col2im`` use a small loop over kernel offsets (kernels are
3x3-7x7) and vectorise over batch and spatial dimensions, which is the
standard trade-off for a numpy implementation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _pad_hw(x: np.ndarray, pad: int, fill: float = 0.0) -> np.ndarray:
    """``x`` with ``pad`` cells of ``fill`` around its last two axes.

    One buffer fill and one block copy: ``np.pad`` computes the same
    array through ~0.3 ms of per-call Python, which at batch 1 is more
    than the convolution it feeds.
    """
    if not pad:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    if fill:
        out.fill(fill)
    out[:, :, pad:-pad, pad:-pad] = x
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, C*kh*kw, OH*OW) patch columns.

    The columns may be a read-only-by-contract view of ``x``: a 1x1
    unpadded kernel unfolds to ``x`` itself (stride 1) or one strided
    gather of it, so nothing is copied just to be handed to the GEMM.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if kh == kw == 1 and not padding:
        return x[:, :, ::stride, ::stride].reshape(n, c, oh * ow), oh, ow
    x = _pad_hw(x, padding)
    sn, sc, sh, sw = x.strides
    patches = as_strided(x, (n, c, kh, kw, oh, ow),
                         (sn, sc, sh, sw, sh * stride, sw * stride),
                         writeable=False)
    # reshaping the overlapping view is the one gather into fresh memory
    return patches.reshape(n, c * kh * kw, oh * ow), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch columns back to (N, C, H, W), accumulating overlaps."""
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_stop = i + stride * oh
        for j in range(kw):
            j_stop = j + stride * ow
            padded[:, :, i:i_stop:stride, j:j_stop:stride] += cols[:, :, i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2D convolution.  ``weight`` has shape (F, C/groups, KH, KW)."""
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    if c != c_per_group * groups:
        raise ValueError(
            f"channel mismatch: input has {c} channels, weight expects "
            f"{c_per_group * groups} ({groups} groups x {c_per_group})"
        )
    if f % groups:
        raise ValueError(f"output channels {f} not divisible by groups {groups}")

    if groups == c and f == c and c_per_group == 1:
        return _depthwise_conv2d(x, weight, stride, padding)
    return _conv2d_matmul(x, weight, stride, padding, groups)


def _conv2d_matmul(x: Tensor, weight: Tensor, stride: int, padding: int,
                   groups: int) -> Tensor:
    """One im2col, one batched GEMM per contraction.

    Each per-(sample, group) GEMM sees the same operands in the same
    element order as a per-group loop would, so outputs and gradients
    are bit-identical to the per-group oracle in
    ``tests/nn/reference_ops.py`` — the win is one unfold and one BLAS
    dispatch instead of ``groups`` of each.
    """
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    f_per_group = f // groups
    k = c_per_group * kh * kw

    # im2col keeps channels outermost, so group g's columns are the
    # contiguous slice [g*k:(g+1)*k] — one unfold serves every group.
    # The GEMM runs in numpy's result type of columns and weights (single
    # precision only when both are, as in the frozen eval graph); a
    # promoted result is cast back to the input dtype exactly like the
    # oracle's assignment into its input-dtype output buffer.
    cols, oh, ow = im2col(x.data, kh, kw, stride, padding)
    p = oh * ow
    if groups == 1:
        w2 = weight.data.reshape(f, k)
        out = np.matmul(w2, cols)
    else:
        cols_g = cols.reshape(n, groups, k, p)
        w2 = weight.data.reshape(groups, f_per_group, k)
        out = np.matmul(w2, cols_g)
    out_data = out.astype(x.data.dtype, copy=False).reshape(n, f, oh, ow)

    def backward(grad):
        grad = grad.reshape(n, f, p)
        if groups == 1:
            if weight.requires_grad:
                gf = grad.transpose(1, 0, 2).reshape(f, n * p)
                ck = cols.transpose(1, 0, 2).reshape(k, n * p)
                weight._accumulate(np.matmul(gf, ck.T).reshape(weight.shape))
            if x.requires_grad:
                dcols = np.matmul(w2.T, grad)
                dx = col2im(dcols, x.shape, kh, kw, stride, padding)
                x._accumulate(dx.astype(x.data.dtype, copy=False))
        else:
            gg = grad.reshape(n, groups, f_per_group, p)
            if weight.requires_grad:
                gf = gg.transpose(1, 2, 0, 3).reshape(groups, f_per_group, n * p)
                ck = cols_g.transpose(1, 2, 0, 3).reshape(groups, k, n * p)
                dw = np.matmul(gf, ck.swapaxes(1, 2))
                weight._accumulate(dw.reshape(weight.shape))
            if x.requires_grad:
                dcols = np.matmul(w2.swapaxes(1, 2), gg)
                dx = col2im(dcols.reshape(n, c * kh * kw, p),
                            x.shape, kh, kw, stride, padding)
                x._accumulate(dx.astype(x.data.dtype, copy=False))

    return x._make(out_data, (x, weight), backward, scratch=True)


def _depthwise_conv2d(x: Tensor, weight: Tensor, stride: int,
                      padding: int) -> Tensor:
    """Fast path for depthwise convolution (groups == channels).

    Loops over the kh x kw kernel offsets (<= 9 iterations) instead of over
    channels, which matters for ShuffleNet-style nets with many channels.
    """
    n, c, h, w = x.shape
    _f, _one, kh, kw = weight.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    xp = _pad_hw(x.data, padding)
    out_data = np.zeros((n, c, oh, ow), dtype=x.data.dtype)
    for i in range(kh):
        i_stop = i + stride * oh
        for j in range(kw):
            j_stop = j + stride * ow
            out_data += (xp[:, :, i:i_stop:stride, j:j_stop:stride]
                         * weight.data[None, :, 0, i, j, None, None])

    def backward(grad):
        if weight.requires_grad:
            dw = np.zeros_like(weight.data)
            for i in range(kh):
                i_stop = i + stride * oh
                for j in range(kw):
                    j_stop = j + stride * ow
                    patch = xp[:, :, i:i_stop:stride, j:j_stop:stride]
                    dw[:, 0, i, j] = (patch * grad).sum(axis=(0, 2, 3))
            weight._accumulate(dw)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for i in range(kh):
                i_stop = i + stride * oh
                for j in range(kw):
                    j_stop = j + stride * ow
                    dxp[:, :, i:i_stop:stride, j:j_stop:stride] += (
                        grad * weight.data[None, :, 0, i, j, None, None]
                    )
            if padding:
                dxp = dxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(dxp)

    return x._make(out_data, (x, weight), backward, scratch=True)


def max_pool2d(x: Tensor, kernel: int, stride: int = None, padding: int = 0) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    data = _pad_hw(x.data, padding, fill=-np.inf)
    cols, oh, ow = _pool_cols(data, kernel, stride)
    # cols: (n, c, k*k, oh*ow)
    argmax = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    out_data = out_data.reshape(n, c, oh, ow)

    def backward(grad):
        if not x.requires_grad:
            return
        grad = grad.reshape(n, c, 1, oh * ow)
        dcols = np.zeros_like(cols)
        np.put_along_axis(dcols, argmax[:, :, None, :], grad, axis=2)
        dx = _pool_uncols(dcols, data.shape, kernel, stride, oh, ow)
        if padding:
            dx = dx[:, :, padding:-padding, padding:-padding]
        x._accumulate(dx)

    return x._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int = None, padding: int = 0) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    data = _pad_hw(x.data, padding)
    cols, oh, ow = _pool_cols(data, kernel, stride)
    out_data = cols.mean(axis=2).reshape(n, c, oh, ow)

    def backward(grad):
        if not x.requires_grad:
            return
        grad = grad.reshape(n, c, 1, oh * ow) / (kernel * kernel)
        dcols = np.broadcast_to(grad, cols.shape).copy()
        dx = _pool_uncols(dcols, data.shape, kernel, stride, oh, ow)
        if padding:
            dx = dx[:, :, padding:-padding, padding:-padding]
        x._accumulate(dx)

    return x._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def _pool_cols(data: np.ndarray, kernel: int, stride: int) -> Tuple[np.ndarray, int, int]:
    n, c, h, w = data.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=data.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = data[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c, kernel * kernel, oh * ow), oh, ow


def _pool_uncols(
    dcols: np.ndarray,
    data_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    n, c, h, w = data_shape
    dcols = dcols.reshape(n, c, kernel, kernel, oh, ow)
    dx = np.zeros(data_shape, dtype=dcols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    return dx


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep
    return x * Tensor(mask)
