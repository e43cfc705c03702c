"""Standard layers used by the model zoo.

All layers accept an explicit ``rng`` so that model construction is fully
deterministic — the drift experiments depend on reproducible initial models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, gelu, grad_enabled, reuse


#: BatchNorm eval spreads its per-channel vectors only while one spread
#: vector stays cache-resident (512 KiB of float64); past that the second
#: stream costs more than the longer inner loop saves.
_SPREAD_MAX_ELEMS = 1 << 16


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(0)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_normal((in_features, out_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = False, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _default_rng(rng)
        if in_channels % groups:
            raise ValueError(f"in_channels {in_channels} not divisible by groups {groups}")
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = init.conv_fan_in(in_channels // groups, kernel_size)
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in, rng,
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(x, self.weight, self.stride, self.padding, self.groups)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out


class BatchNorm2d(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self._buffers["running_mean"] = np.zeros(num_features)
        self._buffers["running_var"] = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self._buffers["running_mean"] = (
                (1 - m) * self._buffers["running_mean"] + m * mean.data.reshape(-1)
            )
            self._buffers["running_var"] = (
                (1 - m) * self._buffers["running_var"] + m * var.data.reshape(-1)
            )
        else:
            if not grad_enabled():
                return self._eval_fast(x)
            mean = Tensor(self._buffers["running_mean"].reshape(1, -1, 1, 1))
            var = Tensor(self._buffers["running_var"].reshape(1, -1, 1, 1))
        inv = (var + self.eps) ** -0.5
        normed = (x - mean) * inv
        return normed * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(1, -1, 1, 1)

    def _eval_fast(self, x: Tensor) -> Tensor:
        """Raw-numpy eval normalisation, used only under ``no_grad``.

        Performs the exact operation sequence of the Tensor path —
        ``(var + eps) ** -0.5`` then ``((x - mean) * inv) * gamma + beta``
        with the same float64 broadcasts — so outputs are bit-identical;
        it skips boxing each intermediate in a Tensor and runs the four
        passes over one buffer instead of allocating one per pass.
        """
        n, c, h, w = x.shape
        rm, rv, gamma, beta = (v.reshape(1, c, 1, 1) for v in (
            self._buffers["running_mean"], self._buffers["running_var"],
            self.gamma.data, self.beta.data))
        inv = (rv + self.eps) ** -0.5
        if n >= 8 and c * h * w <= _SPREAD_MAX_ELEMS:
            # spread each per-channel vector over (1, C, H, W) once, so a
            # pass runs one C*H*W-long inner loop per image instead of C
            # loops of H*W (4 or 16 in the late stages) elements
            rm, inv, gamma, beta = (np.repeat(v, h * w).reshape(1, c, h, w)
                                    for v in (rm, inv, gamma, beta))
        out = reuse(np.subtract, x.data, rm) if x._scratch else x.data - rm
        out = reuse(np.multiply, out, inv)
        out = reuse(np.multiply, out, gamma)
        return Tensor(reuse(np.add, out, beta), _scratch=True)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sequential(*self._layers[index])
        return self._layers[index]

    def append(self, layer: Module) -> "Sequential":
        setattr(self, f"layer{len(self._layers)}", layer)
        self._layers.append(layer)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
