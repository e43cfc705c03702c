"""Exact forward-FLOP counting for runnable models.

APO reasons over per-stage FLOPs.  For the full-scale models those come
from the published architecture tables (:mod:`repro.models.catalog`); for
the tiny runnable models this module measures them directly by tracing a
probe forward pass: every ``conv2d`` and matrix multiplication executed is
counted as ``2 x`` its multiply-accumulates (the standard convention the
catalog uses too).

Usage::

    with FlopCounter() as counter:
        model(Tensor(probe))
    counter.total_flops

or :func:`count_stage_flops` for the per-stage breakdown a
:class:`~repro.models.split.SplitModel` needs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor
from .split import SplitModel


class FlopCounter:
    """Context manager that counts FLOPs of conv2d and matmul calls."""

    _active: List["FlopCounter"] = []
    _installed = False
    _orig_conv2d = None
    _orig_matmul = None

    def __init__(self):
        self.conv_flops = 0.0
        self.matmul_flops = 0.0

    @property
    def total_flops(self) -> float:
        return self.conv_flops + self.matmul_flops

    # -- context management ------------------------------------------------
    def __enter__(self) -> "FlopCounter":
        cls = type(self)
        if not cls._installed:
            cls._install()
        cls._active.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        type(self)._active.remove(self)

    # -- interception ------------------------------------------------------
    @classmethod
    def _install(cls) -> None:
        cls._orig_conv2d = F.conv2d
        cls._orig_matmul = Tensor.__matmul__

        def counting_conv2d(x, weight, stride=1, padding=0, groups=1):
            if cls._active:
                n, c, h, w = x.shape
                f, c_per_group, kh, kw = weight.shape
                oh = F.conv_output_size(h, kh, stride, padding)
                ow = F.conv_output_size(w, kw, stride, padding)
                flops = 2.0 * n * f * oh * ow * c_per_group * kh * kw
                for counter in cls._active:
                    counter.conv_flops += flops
            return cls._orig_conv2d(x, weight, stride, padding, groups)

        def counting_matmul(self, other):
            if cls._active:
                other_t = other if isinstance(other, Tensor) else Tensor(other)
                out_shape = np.broadcast_shapes(
                    self.shape[:-2] if self.ndim >= 2 else (),
                    other_t.shape[:-2] if other_t.ndim >= 2 else (),
                )
                rows = self.shape[-2] if self.ndim >= 2 else 1
                inner = self.shape[-1]
                cols = other_t.shape[-1] if other_t.ndim >= 2 else 1
                batch = int(np.prod(out_shape)) if out_shape else 1
                flops = 2.0 * batch * rows * inner * cols
                for counter in cls._active:
                    counter.matmul_flops += flops
            return cls._orig_matmul(self, other)

        F.conv2d = counting_conv2d
        Tensor.__matmul__ = counting_matmul
        # layers import conv2d via `from . import functional as F`, so the
        # module-attribute patch reaches them; Sequential Linear layers go
        # through Tensor.__matmul__
        cls._installed = True


def count_stage_flops(model: SplitModel, batch: int = 1,
                      ) -> Dict[str, float]:
    """Per-image forward FLOPs of every stage of a runnable model."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    was_training = model.training
    model.eval()
    probe = Tensor(np.zeros((batch,) + model.input_shape))
    flops: Dict[str, float] = {}
    x = probe
    for name, index in zip(model.stage_names, range(model.num_stages)):
        stage = model.stage(index)
        with FlopCounter() as counter:
            x = stage(x)
        flops[name] = counter.total_flops / batch
    model.train(was_training)
    return flops
