"""Architecture building blocks shared by the tiny model zoo."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Identity,
    ReLU,
    Sequential,
)
from ..nn.module import Module
from ..nn.tensor import Tensor, concat


def conv_bn_relu(in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 padding: Optional[int] = None, groups: int = 1,
                 rng: Optional[np.random.Generator] = None) -> Sequential:
    if padding is None:
        padding = kernel // 2
    return Sequential(
        Conv2d(in_ch, out_ch, kernel, stride=stride, padding=padding,
               groups=groups, rng=rng),
        BatchNorm2d(out_ch),
        ReLU(),
    )


class Bottleneck(Module):
    """ResNet/ResNeXt bottleneck: 1x1 -> 3x3 (optionally grouped) -> 1x1."""

    def __init__(self, in_ch: int, mid_ch: int, out_ch: int, stride: int = 1,
                 groups: int = 1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv1 = conv_bn_relu(in_ch, mid_ch, 1, rng=rng)
        self.conv2 = conv_bn_relu(mid_ch, mid_ch, 3, stride=stride,
                                  groups=groups, rng=rng)
        self.conv3 = Sequential(
            Conv2d(mid_ch, out_ch, 1, rng=rng),
            BatchNorm2d(out_ch),
        )
        if stride != 1 or in_ch != out_ch:
            self.shortcut = Sequential(
                Conv2d(in_ch, out_ch, 1, stride=stride, rng=rng),
                BatchNorm2d(out_ch),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv3(self.conv2(self.conv1(x)))
        out += self.shortcut(x)
        return out.relu()


class InceptionModule(Module):
    """A compact Inception module: 1x1, 3x3, 5x5(as double-3x3), pool branches."""

    def __init__(self, in_ch: int, b1: int, b3: int, b5: int, bp: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.branch1 = conv_bn_relu(in_ch, b1, 1, rng=rng)
        self.branch3 = Sequential(
            conv_bn_relu(in_ch, b3, 1, rng=rng),
            conv_bn_relu(b3, b3, 3, rng=rng),
        )
        self.branch5 = Sequential(
            conv_bn_relu(in_ch, b5, 1, rng=rng),
            conv_bn_relu(b5, b5, 3, rng=rng),
            conv_bn_relu(b5, b5, 3, rng=rng),
        )
        self.branch_pool = Sequential(
            AvgPool2d(3, stride=1, padding=1),
            conv_bn_relu(in_ch, bp, 1, rng=rng),
        )
        self.out_channels = b1 + b3 + b5 + bp

    def forward(self, x: Tensor) -> Tensor:
        return concat(
            [self.branch1(x), self.branch3(x), self.branch5(x), self.branch_pool(x)],
            axis=1,
        )


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Interleave channel groups (the ShuffleNet shuffle operator)."""
    n, c, h, w = x.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    x = x.reshape(n, groups, c // groups, h, w)
    x = x.transpose(0, 2, 1, 3, 4)
    return x.reshape(n, c, h, w)


class ShuffleUnit(Module):
    """ShuffleNetV2 basic unit with channel split + shuffle (stride 1)."""

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if channels % 2:
            raise ValueError("ShuffleUnit needs an even channel count")
        half = channels // 2
        self.half = half
        self.branch = Sequential(
            conv_bn_relu(half, half, 1, rng=rng),
            # depthwise 3x3
            Conv2d(half, half, 3, padding=1, groups=half, rng=rng),
            BatchNorm2d(half),
            conv_bn_relu(half, half, 1, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        left = x[:, : self.half]
        right = x[:, self.half:]
        out = concat([left, self.branch(right)], axis=1)
        return channel_shuffle(out, 2)


class ShuffleDownUnit(Module):
    """ShuffleNetV2 spatial-down unit (stride 2, both branches convolved)."""

    def __init__(self, in_ch: int, out_ch: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        half = out_ch // 2
        self.branch_main = Sequential(
            conv_bn_relu(in_ch, half, 1, rng=rng),
            Conv2d(half, half, 3, stride=2, padding=1, groups=half, rng=rng),
            BatchNorm2d(half),
            conv_bn_relu(half, half, 1, rng=rng),
        )
        self.branch_proj = Sequential(
            Conv2d(in_ch, in_ch, 3, stride=2, padding=1, groups=in_ch, rng=rng),
            BatchNorm2d(in_ch),
            conv_bn_relu(in_ch, half, 1, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        out = concat([self.branch_proj(x), self.branch_main(x)], axis=1)
        return channel_shuffle(out, 2)
