"""Weight initialisation (Kaiming), seedable."""

from __future__ import annotations

import numpy as np


def kaiming_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He initialisation for ReLU networks."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def conv_fan_in(in_channels: int, kernel: int) -> int:
    return in_channels * kernel * kernel
