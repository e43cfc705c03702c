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
        if not (self.training or grad_enabled()):
            scale, shift = (v.reshape(1, -1, 1, 1) for v in self._scale_shift())
            out = reuse(np.multiply, x.data, scale) if x._scratch else x.data * scale
            return Tensor(reuse(np.add, out, shift), _scratch=True)
        # statistics move in training mode and a graph means parameters may
        # be about to (an immutable module's never do): either way what was
        # derived from them is stale
        if not self._immutable:
            self._derived = None
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self._set_buffer("running_mean", (
                (1 - m) * self._buffers["running_mean"] + m * mean.data.reshape(-1)
            ))
            self._set_buffer("running_var", (
                (1 - m) * self._buffers["running_var"] + m * var.data.reshape(-1)
            ))
        else:
            mean = Tensor(self._buffers["running_mean"].reshape(1, -1, 1, 1))
            var = Tensor(self._buffers["running_var"].reshape(1, -1, 1, 1))
        inv = (var + self.eps) ** -0.5
        normed = (x - mean) * inv
        return normed * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(1, -1, 1, 1)

    def _scale_shift(self):
        """Eval-mode normalisation as ``x * scale + shift``: float64 vectors."""
        scale = self.gamma.data / np.sqrt(self._buffers["running_var"] + self.eps,
                                          dtype=np.float64)
        return scale, self.beta.data - self._buffers["running_mean"] * scale

    def after(self, conv: Conv2d, x: Tensor) -> Tensor:
        """``self(conv(x))`` in eval mode under ``no_grad``: one float32 conv.

        The frozen graph's one rounding happens here: ``W * scale`` and the
        shift (the conv's bias folded in) are computed in float64 from the
        float64 master state and rounded once; from then on activations
        stay in that dtype until a float64 operand (the global pool's
        ``1 / count``, the classifier's weights) promotes them.  The folded pair is shared by both layers' ``_derived`` slot,
        so dropping either (see :class:`Module`) invalidates it.
        """
        fold = self._derived
        if fold is None or fold is not conv._derived:
            scale, shift = self._scale_shift()
            if conv.bias is not None:
                shift = shift + conv.bias.data * scale
            weight, shift = (v.astype(np.float32) for v in (
                conv.weight.data * scale.reshape(-1, 1, 1, 1),
                shift.reshape(1, -1, 1, 1)))
            fold = conv._derived = self._derived = (Tensor(weight), shift)
        weight, shift = fold
        if x.dtype != weight.dtype:
            x = Tensor(x.data.astype(weight.dtype))
        out = F.conv2d(x, weight, conv.stride, conv.padding, conv.groups)
        out.data += shift  # into the conv's own (scratch) output
        return out


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
        # the frozen eval graph: under ``no_grad`` a conv and the eval-mode
        # BatchNorm behind it are one op
        layers = self._layers
        fold = not grad_enabled()
        absorbed = False
        for layer, following in zip(layers, layers[1:] + [None]):
            if absorbed:
                absorbed = False
            elif (fold and type(layer) is Conv2d
                    and type(following) is BatchNorm2d and not following.training):
                x = following.after(layer, x)
                absorbed = True
            else:
                x = layer(x)
        return x


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
