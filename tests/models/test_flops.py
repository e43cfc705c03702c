"""Tests for the traced FLOP counter."""

import numpy as np
import pytest

from repro.models.flops import (
    FlopCounter,
    count_stage_flops,
)
from repro.models.registry import tiny_model
from repro.nn.layers import Conv2d, Linear
from repro.nn.tensor import Tensor


def count_forward_flops(fn, *args):
    """Run ``fn(*args)`` under a counter; returns (flops, result)."""
    with FlopCounter() as counter:
        result = fn(*args)
    return counter.total_flops, result


class TestPrimitiveCounts:
    def test_matmul_flops_exact(self):
        a = Tensor(np.zeros((4, 5)))
        b = Tensor(np.zeros((5, 7)))
        flops, _ = count_forward_flops(lambda: a @ b)
        assert flops == 2 * 4 * 5 * 7

    def test_batched_matmul_flops(self):
        a = Tensor(np.zeros((3, 2, 4, 5)))
        b = Tensor(np.zeros((3, 2, 5, 6)))
        flops, _ = count_forward_flops(lambda: a @ b)
        assert flops == 2 * 3 * 2 * 4 * 5 * 6

    def test_conv_flops_exact(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        x = Tensor(np.zeros((2, 3, 10, 10)))
        flops, _ = count_forward_flops(lambda: conv(x))
        assert flops == 2 * 2 * 8 * 10 * 10 * 3 * 3 * 3

    def test_grouped_conv_counts_per_group_channels(self):
        conv = Conv2d(4, 8, 3, padding=1, groups=2,
                      rng=np.random.default_rng(0))
        x = Tensor(np.zeros((1, 4, 6, 6)))
        flops, _ = count_forward_flops(lambda: conv(x))
        assert flops == 2 * 1 * 8 * 6 * 6 * 2 * 3 * 3

    def test_depthwise_conv_counted(self):
        conv = Conv2d(6, 6, 3, padding=1, groups=6,
                      rng=np.random.default_rng(0))
        x = Tensor(np.zeros((1, 6, 8, 8)))
        flops, _ = count_forward_flops(lambda: conv(x))
        assert flops == 2 * 1 * 6 * 8 * 8 * 1 * 3 * 3

    def test_linear_counts_bias_free_matmul(self):
        layer = Linear(10, 3, rng=np.random.default_rng(0))
        x = Tensor(np.zeros((5, 10)))
        flops, _ = count_forward_flops(lambda: layer(x))
        assert flops == 2 * 5 * 10 * 3

    def test_counter_inactive_outside_context(self):
        a = Tensor(np.ones((2, 2)))
        with FlopCounter() as counter:
            _ = a @ a
        before = counter.total_flops
        _ = a @ a  # outside: must not count
        assert counter.total_flops == before

    def test_nested_counters_both_count(self):
        a = Tensor(np.ones((2, 2)))
        with FlopCounter() as outer:
            with FlopCounter() as inner:
                _ = a @ a
        assert inner.total_flops == outer.total_flops == 16


class TestModelCounts:
    def test_flops_scale_with_width(self):
        small = sum(count_stage_flops(tiny_model(
            "ResNet50", num_classes=8, width=8)).values())
        big = sum(count_stage_flops(tiny_model(
            "ResNet50", num_classes=8, width=16)).values())
        assert 2.5 < big / small < 4.5  # conv flops ~ width^2

    @pytest.mark.parametrize("name", ["ResNet50", "InceptionV3",
                                      "ShuffleNetV2", "ResNeXt101", "ViT"])
    def test_all_models_countable(self, name):
        model = tiny_model(name, num_classes=6)
        stages = count_stage_flops(model)
        assert all(v >= 0 for v in stages.values())
        assert sum(stages.values()) > 0

    def test_to_graph_uses_measured_flops(self):
        model = tiny_model("ResNet50", num_classes=8, width=8)
        graph = model.to_graph()
        measured = count_stage_flops(model)
        for spec in graph.stages:
            assert spec.flops_fwd == pytest.approx(
                max(measured[spec.name], 1.0))

    def test_batch_invariance(self):
        model = tiny_model("ResNet50", num_classes=8, width=8)
        one = count_stage_flops(model, batch=1)
        four = count_stage_flops(model, batch=4)
        assert one == pytest.approx(four, rel=0.01)

    def test_batch_validation(self):
        model = tiny_model("ResNet50", num_classes=8, width=8)
        with pytest.raises(ValueError):
            count_stage_flops(model, batch=0)
