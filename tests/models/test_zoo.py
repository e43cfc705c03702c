"""Tests for the tiny runnable model zoo and the split-execution invariant."""

import numpy as np
import pytest

from repro.models.blocks import channel_shuffle
from repro.models.registry import TINY_FACTORIES, tiny_model
from repro.models.split import SplitModel
from repro.nn.tensor import Tensor


def assert_split_consistent(model: SplitModel, x: Tensor, split: int,
                            atol: float = 1e-10) -> None:
    """Raise if splitting at ``split`` changes the model output."""
    whole = model(x).data
    parts = model.forward_from(model.forward_until(x, split), split).data
    if not np.allclose(whole, parts, atol=atol):
        raise AssertionError(
            f"{model.name}: split at {split} changed outputs "
            f"(max abs diff {np.abs(whole - parts).max():.3e})"
        )

MODELS = sorted(TINY_FACTORIES)


@pytest.fixture(scope="module")
def batch():
    return Tensor(np.random.default_rng(0).normal(size=(3, 3, 16, 16)))


class TestZoo:
    @pytest.mark.parametrize("name", MODELS)
    def test_forward_shape(self, name, batch):
        model = tiny_model(name, num_classes=7).eval()
        assert model(batch).shape == (3, 7)

    @pytest.mark.parametrize("name", MODELS)
    def test_split_consistency_every_cut(self, name, batch):
        model = tiny_model(name, num_classes=5).eval()
        for split in range(model.num_stages + 1):
            assert_split_consistent(model, batch, split)

    @pytest.mark.parametrize("name", MODELS)
    def test_stage_names_match_full_scale_graph(self, name):
        from repro.models.catalog import model_graph

        tiny = tiny_model(name, num_classes=5)
        full = model_graph(name)
        assert tiny.stage_names == full.stage_names()

    @pytest.mark.parametrize("name", MODELS)
    def test_deterministic_construction(self, name, batch):
        a = tiny_model(name, num_classes=4, seed=3).eval()
        b = tiny_model(name, num_classes=4, seed=3).eval()
        assert np.array_equal(a(batch).data, b(batch).data)

    @pytest.mark.parametrize("name", MODELS)
    def test_different_seeds_differ(self, name, batch):
        a = tiny_model(name, num_classes=4, seed=1).eval()
        b = tiny_model(name, num_classes=4, seed=2).eval()
        assert not np.array_equal(a(batch).data, b(batch).data)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            tiny_model("VGG")

    @pytest.mark.parametrize("name", MODELS)
    def test_gradients_reach_first_stage(self, name, batch):
        from repro.nn.losses import cross_entropy

        model = tiny_model(name, num_classes=4)
        loss = cross_entropy(model(batch), np.array([0, 1, 2]))
        model.zero_grad()
        loss.backward()
        first = model.stage(0)
        assert any(p.grad is not None and np.abs(p.grad).sum() > 0
                   for p in first.parameters())


class TestSplitModel:
    def test_freeze_features_leaves_classifier_trainable(self):
        model = tiny_model("ResNet50", num_classes=4)
        model.freeze_features()
        assert all(p.requires_grad for p in model.classifier.parameters())
        for i in range(model.num_stages - 1):
            assert all(not p.requires_grad
                       for p in model.stage(i).parameters())

    def test_feature_dim_after(self):
        model = tiny_model("ResNet50", num_classes=4, width=8)
        dims = model.feature_dim_after(model.num_stages - 1)
        assert dims == (16 * 8,)

    def test_split_bounds_checked(self, batch):
        model = tiny_model("ResNet50", num_classes=4)
        with pytest.raises(ValueError):
            model.forward_until(batch, 99)
        with pytest.raises(ValueError):
            model.forward_from(batch, -1)

    def test_empty_split_model_rejected(self):
        with pytest.raises(ValueError):
            SplitModel("empty", [], (3, 16, 16))

    def test_to_graph_probes_activations(self):
        model = tiny_model("ResNet50", num_classes=6, width=8)
        graph = model.to_graph()
        assert graph.stages[-1].trainable
        assert graph.stages[-1].out_elems == 6
        assert graph.total_params == model.num_parameters()

    @pytest.mark.parametrize("probe", [
        lambda m: m.feature_dim_after(m.num_stages - 1),
        lambda m: m.to_graph(),
    ], ids=["feature_dim_after", "to_graph"])
    def test_shape_probes_leave_a_training_mode_model_alone(self, probe):
        """The zero-valued probe of a freshly built (training-mode) model
        used to run in training mode and overwrite every BatchNorm
        ``running_mean`` / ``running_var`` with the statistics of zeros."""
        model = tiny_model("ResNet50", num_classes=4)
        assert model.training
        before = {name: buf.tobytes() for name, buf in model.named_buffers()}
        assert before
        probe(model)
        assert model.training
        assert all(m.training for m in model.modules())
        after = {name: buf.tobytes() for name, buf in model.named_buffers()}
        assert after == before

    def test_assert_split_consistent_detects_breakage(self, batch):
        model = tiny_model("ResNet50", num_classes=4).eval()
        whole = model(batch)

        class Broken(SplitModel):
            def forward_until(self, x, split):
                out = super().forward_until(x, split)
                return out * 1.5

        broken = Broken("broken", list(zip(
            model.stage_names, [model.stage(i) for i in range(model.num_stages)]
        )), model.input_shape)
        with pytest.raises(AssertionError):
            assert_split_consistent(broken, batch, 2)


class TestChannelShuffle:
    def test_shuffle_is_permutation(self):
        x = Tensor(np.arange(2 * 8 * 2 * 2, dtype=float).reshape(2, 8, 2, 2))
        out = channel_shuffle(x, 2)
        assert sorted(out.data.reshape(-1)) == sorted(x.data.reshape(-1))

    def test_shuffle_interleaves_groups(self):
        x = Tensor(np.arange(4, dtype=float).reshape(1, 4, 1, 1))
        out = channel_shuffle(x, 2).data.reshape(-1)
        assert np.allclose(out, [0, 2, 1, 3])

    def test_shuffle_requires_divisibility(self):
        x = Tensor(np.zeros((1, 5, 2, 2)))
        with pytest.raises(ValueError):
            channel_shuffle(x, 2)

    def test_double_shuffle_with_two_groups_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 2, 2)))
        twice = channel_shuffle(channel_shuffle(x, 2), 2)
        assert np.allclose(twice.data, x.data)
