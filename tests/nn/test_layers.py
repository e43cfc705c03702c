"""Unit tests for layers, modules, and parameter management."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


def rng():
    return np.random.default_rng(0)


class TestLinearConv:
    def test_linear_shape_and_bias(self):
        layer = nn.Linear(4, 3, rng=rng())
        out = layer(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, rng=rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv_bias_applied_per_channel(self):
        layer = nn.Conv2d(1, 2, 1, bias=True, rng=rng())
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = [1.0, 2.0]
        out = layer(Tensor(np.zeros((1, 1, 3, 3))))
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], 2.0)

    def test_conv_invalid_groups(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 6, 3, groups=2)


class TestNorms:
    def test_batchnorm_normalises_in_train_mode(self):
        bn = nn.BatchNorm2d(3)
        x = Tensor(np.random.default_rng(0).normal(5.0, 2.0, size=(8, 3, 4, 4)))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 0.05

    def test_batchnorm_running_stats_update(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(np.full((4, 2, 3, 3), 10.0))
        bn(x)
        assert bn._buffers["running_mean"][0] > 0.5

    def test_batchnorm_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(1)
        for _ in range(50):
            bn(Tensor(np.random.default_rng(1).normal(3.0, 1.0, (16, 1, 2, 2))))
        bn.eval()
        out = bn(Tensor(np.full((1, 1, 2, 2), 3.0)))
        assert abs(out.data.mean()) < 0.2

    def test_layernorm_normalises_last_axis(self):
        ln = nn.LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8)))
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = nn.Sequential(nn.Linear(3, 5, rng=rng()), nn.ReLU(),
                            nn.Linear(5, 2, rng=rng()))
        out = seq(Tensor(np.ones((1, 3))))
        assert out.shape == (1, 2)
        assert len(seq) == 3

    def test_sequential_indexing_and_slicing(self):
        seq = nn.Sequential(nn.ReLU(), nn.ReLU(), nn.Identity())
        assert isinstance(seq[2], nn.Identity)
        assert len(seq[:2]) == 2

    def test_sequential_append_registers_params(self):
        seq = nn.Sequential()
        seq.append(nn.Linear(2, 2, rng=rng()))
        assert len(seq.parameters()) == 2

    def test_identity(self):
        x = Tensor(np.ones(3))
        assert nn.Identity()(x) is x


class TestModuleProtocol:
    def test_named_parameters_nested(self):
        seq = nn.Sequential(nn.Linear(2, 2, rng=rng()))
        names = [n for n, _ in seq.named_parameters()]
        assert "layer0.weight" in names and "layer0.bias" in names

    def test_state_dict_roundtrip(self):
        a = nn.Sequential(nn.Linear(3, 3, rng=rng()), nn.BatchNorm2d(3))
        b = nn.Sequential(nn.Linear(3, 3, rng=np.random.default_rng(9)),
                          nn.BatchNorm2d(3))
        b.load_state_dict(a.state_dict())
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_state_dict_includes_buffers(self):
        bn = nn.BatchNorm2d(2)
        assert "running_mean" in bn.state_dict()

    def test_load_state_dict_shape_mismatch(self):
        a = nn.Linear(2, 2, rng=rng())
        state = a.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            a.load_state_dict(state)

    def test_load_state_dict_unknown_key(self):
        a = nn.Linear(2, 2, rng=rng())
        with pytest.raises(KeyError):
            a.load_state_dict({"nope": np.zeros(1)})

    def test_freeze_unfreeze(self):
        layer = nn.Linear(2, 2, rng=rng())
        layer.freeze()
        assert all(not p.requires_grad for p in layer.parameters())
        layer.unfreeze()
        assert all(p.requires_grad for p in layer.parameters())

    def test_train_eval_propagates(self):
        seq = nn.Sequential(nn.Sequential(nn.Dropout(0.5)))
        seq.eval()
        assert all(not m.training for m in seq.modules())

    def test_num_parameters(self):
        layer = nn.Linear(3, 4, rng=rng())
        assert layer.num_parameters() == 3 * 4 + 4

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestOptimizers:
    def _quadratic_step(self, opt_cls, **kwargs):
        param = Parameter(np.array([5.0]))
        opt = opt_cls([param], **kwargs)
        for _ in range(200):
            loss = (Tensor(param.data) * 0).sum()  # placeholder
            opt.zero_grad()
            param.grad = 2 * param.data  # d/dx x^2
            opt.step()
        return float(param.data[0])

    def test_sgd_minimises_quadratic(self):
        assert abs(self._quadratic_step(nn.SGD, lr=0.1)) < 1e-3

    def test_sgd_momentum_minimises(self):
        assert abs(self._quadratic_step(nn.SGD, lr=0.05, momentum=0.9)) < 1e-3

    def test_adam_minimises_quadratic(self):
        assert abs(self._quadratic_step(nn.Adam, lr=0.1)) < 1e-2

    def test_optimizers_skip_frozen_params(self):
        param = Parameter(np.array([1.0]))
        param.requires_grad = False
        opt = nn.SGD([param], lr=0.5)
        param.grad = np.array([1.0])
        opt.step()
        assert param.data[0] == 1.0

    def test_weight_decay_shrinks(self):
        param = Parameter(np.array([1.0]))
        opt = nn.SGD([param], lr=0.1, weight_decay=0.5)
        param.grad = np.array([0.0])
        opt.step()
        assert param.data[0] < 1.0

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(1))], lr=0.0)
        with pytest.raises(ValueError):
            nn.Adam([Parameter(np.zeros(1))], lr=-1.0)


class TestLosses:
    def test_cross_entropy_nonnegative_and_matches_uniform(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = nn.cross_entropy(logits, np.zeros(4, dtype=int))
        assert np.isclose(loss.item(), np.log(10))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = nn.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        logits = Tensor(np.zeros((1, 4)), requires_grad=True)
        nn.cross_entropy(logits, np.array([2])).backward()
        expected = np.full((1, 4), 0.25)
        expected[0, 2] -= 1.0
        assert np.allclose(logits.grad, expected)

    def test_accuracy_and_topk(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        labels = np.array([1, 1])
        assert nn.accuracy(logits, labels) == 0.5
        assert nn.topk_accuracy(logits, labels, k=2) == 1.0

    def test_topk_clamps_to_one_when_k_exceeds_classes(self):
        logits = np.zeros((3, 2))
        assert nn.topk_accuracy(logits, np.zeros(3, dtype=int), k=5) == 1.0


class TestAttention:
    def test_mhsa_shape(self):
        attn = nn.MultiHeadSelfAttention(16, 4, rng=rng())
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_mhsa_dim_divisibility(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, 3)

    def test_transformer_block_shape_preserved(self):
        block = nn.TransformerBlock(16, 4, rng=rng())
        x = Tensor(np.random.default_rng(1).normal(size=(1, 6, 16)))
        assert block(x).shape == (1, 6, 16)

    def test_patch_embedding_token_count(self):
        embed = nn.PatchEmbedding(16, 4, 3, 24, rng=rng())
        out = embed(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 17, 24)  # 16 patches + CLS

    def test_patch_embedding_divisibility(self):
        with pytest.raises(ValueError):
            nn.PatchEmbedding(15, 4, 3, 24)

    def test_attention_backward_flows(self):
        attn = nn.MultiHeadSelfAttention(8, 2, rng=rng())
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 8)),
                   requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.qkv.weight.grad is not None
