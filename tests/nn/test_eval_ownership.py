"""Ownership and allocation rules of the compiled eval forward.

Under ``no_grad`` the folded BatchNorm shift, ReLU and the bottleneck's
residual add write into *scratch* buffers — temporaries the running
forward itself allocated.  These tests pin the other half of that rule:
nothing a caller, a parameter, a module buffer or a derived (folded)
array owns is ever written or handed back, and the forward does not slide
back to one allocation per op or to float64 activations.
"""

import tracemalloc

import numpy as np
import pytest

from repro.models.blocks import Bottleneck, ShuffleUnit, conv_bn_relu
from repro.models.registry import TINY_FACTORIES, tiny_model
from repro.nn.layers import BatchNorm2d, ReLU, Sequential
from repro.nn.tensor import Tensor, no_grad

#: Peak traced bytes of one batch-64 ResNet50-tiny eval forward: 6.96 MB
#: with BatchNorm folded and float32 activations; 7.38 MB if the folded
#: shift is added into a fresh array, 13.91 MB with float64 activations and
#: in-place BatchNorm (the parent), 18.94 MB with an array per op.
RESNET_B64_PEAK_BUDGET = 7.2e6


def _owned_arrays(model):
    """Parameters, buffers and whatever the eval graph derived from them."""
    arrays = [p.data for p in model.parameters()]
    arrays += [buf for _, buf in model.named_buffers()]
    for module in model.modules():
        if isinstance(module, BatchNorm2d) and module._derived is not None:
            weight, shift = module._derived
            arrays += [weight.data, shift]
    return arrays


def _snapshot(model):
    return [a.copy() for a in _owned_arrays(model)]


class TestCallerBytesSurvive:
    def _assert_forward_leaves_input(self, module, x):
        keep = x.copy()
        state = _snapshot(module)
        with no_grad():
            out = module(Tensor(x))
        np.testing.assert_array_equal(x, keep)
        for before, after in zip(state, _owned_arrays(module)):
            np.testing.assert_array_equal(before, after)
        return out

    def test_identity_shortcut_bottleneck(self):
        """``out += shortcut(x)`` reads the caller's array, never writes it."""
        block = Bottleneck(8, 4, 8).eval()
        x = np.random.default_rng(0).standard_normal((4, 8, 6, 6))
        out = self._assert_forward_leaves_input(block, x)
        assert not np.shares_memory(out.data, x)

    def test_shuffle_unit_channel_slices(self):
        """The unit convolves a channel-slice *view* of its input."""
        unit = ShuffleUnit(8).eval()
        x = np.random.default_rng(1).standard_normal((4, 8, 6, 6))
        self._assert_forward_leaves_input(unit, x)

    def test_folded_pair_reads_the_callers_float32_array(self):
        """No cast, so the conv unfolds the caller's own array — and the
        shift lands in the GEMM's output, not in the columns."""
        stage = conv_bn_relu(3, 4, 1).eval()  # 1x1: the columns are a view
        x = np.random.default_rng(6).standard_normal(
            (4, 3, 5, 5)).astype(np.float32)
        with no_grad():
            stage(Tensor(x))  # builds the fold, so the snapshot includes it
        assert len(_owned_arrays(stage)) == 7  # W, gamma, beta, 2 stats, fold
        out = self._assert_forward_leaves_input(stage, x)
        assert not np.shares_memory(out.data, x)

    def test_relu_first_in_a_stage(self):
        """A ReLU fed the caller's tensor directly has nothing it may reuse."""
        stage = Sequential(ReLU(), BatchNorm2d(3), ReLU()).eval()
        x = np.random.default_rng(2).standard_normal((4, 3, 5, 5))
        self._assert_forward_leaves_input(stage, x)

    @pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
    def test_forward_until_zero_is_the_untouched_input(self, name):
        model = tiny_model(name).eval()
        x = np.random.default_rng(3).standard_normal(
            (2,) + model.input_shape).astype(np.float32)
        keep = x.copy()
        with no_grad():
            tensor = Tensor(x)
            assert model.forward_until(tensor, 0) is tensor
            # the tail consuming those "features" must not scribble on them
            model.forward_from(tensor, 0)
        np.testing.assert_array_equal(x, keep)

    def test_relu_on_a_callers_array(self):
        a = np.array([-1.5, -0.0, 0.0, 2.0, np.nan])
        keep = a.copy()
        with no_grad():
            out = Tensor(a).relu()
        np.testing.assert_array_equal(a, keep)
        assert not np.shares_memory(out.data, a)
        # same x * mask semantics as the graph-building path, -0.0 included
        np.testing.assert_array_equal(out.data, Tensor(keep).relu().data)
        assert np.signbit(out.data[0]) and np.signbit(out.data[1])

    def test_scratch_is_never_granted_with_grad_enabled(self):
        """The flag is an eval-forward notion: a tensor made while graphs
        are being recorded is never overwritten, whatever the producer says."""
        a = np.array([-1.0, 2.0])
        t = Tensor(a, _scratch=True)
        assert not t._scratch
        with no_grad():
            t.relu()
            t += Tensor(np.ones(2))
        np.testing.assert_array_equal(a, [-1.0, 2.0])

    def test_iadd_keeps_autograd_semantics(self):
        """With gradients on, ``+=`` is ``+``: a new node, both parents fed."""
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = a
        out += b
        assert out is not a
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(a.data, [1.0, 2.0])


class TestOutputsAreFresh:
    @pytest.mark.parametrize("name", sorted(TINY_FACTORIES))
    def test_no_stage_output_aliases_input_or_model_state(self, name):
        model = tiny_model(name).eval()
        x = np.random.default_rng(4).standard_normal(
            (2,) + model.input_shape).astype(np.float32)
        with no_grad():
            model(Tensor(x))  # derive the folds: they are model state too
        state = _snapshot(model)
        with no_grad():
            for split in range(1, model.num_stages + 1):
                out = model.forward_until(Tensor(x), split).data
                assert not np.shares_memory(out, x)
                for owned in _owned_arrays(model):
                    assert not np.shares_memory(out, owned)
        for before, after in zip(state, _owned_arrays(model)):
            np.testing.assert_array_equal(before, after)

    def test_repeated_forwards_agree(self):
        """No state leaks from one forward's scratch into the next."""
        model = tiny_model("ResNet50").eval()
        x = np.random.default_rng(5).standard_normal(
            (3,) + model.input_shape).astype(np.float32)
        with no_grad():
            first = model(Tensor(x)).data.copy()
            second = model(Tensor(x)).data
        np.testing.assert_array_equal(first, second)


def test_resnet_b64_forward_peak_allocation_budget():
    model = tiny_model("ResNet50").eval()
    x = np.random.default_rng(0).standard_normal(
        (64,) + model.input_shape).astype(np.float32)
    with no_grad():
        model(Tensor(x))  # warm caches outside the traced window
        tracemalloc.start()
        try:
            model(Tensor(x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= RESNET_B64_PEAK_BUDGET, (
        f"eval forward peaked at {peak / 1e6:.2f} MB "
        f"(budget {RESNET_B64_PEAK_BUDGET / 1e6:.1f} MB): an elementwise "
        "op is allocating a full-size array per call again")
