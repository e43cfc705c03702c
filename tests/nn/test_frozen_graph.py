"""The compiled frozen eval graph: BatchNorm folded into the preceding conv.

Under ``no_grad`` in eval mode a ``Conv2d -> BatchNorm2d`` pair runs as one
float32 convolution whose weights and shift are *derived* from the float64
master state.  These tests pin what makes that safe to ship: the derived
pair can never go stale, it never reaches a serialised byte, it pins no
superseded array, and the FLOP accounting does not see it.
"""

import gc
import hashlib
import weakref
import zlib

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.pipestore import PipeStore
from repro.durability.checkpoint import BlobTable, write_frame
from repro.models.flops import FlopCounter, count_stage_flops
from repro.models.registry import TINY_FACTORIES, tiny_model
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU, Sequential
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad
from tests.nn.reference_ops import assert_frozen_graph_close

CONV_MODELS = sorted(set(TINY_FACTORIES) - {"ViT"})


def _inputs(model, batch=4, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (batch,) + model.input_shape).astype(np.float32)


def _eval_forward(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _fresh_replica(model):
    """A newly built model given ``model``'s state: nothing derived yet."""
    fresh = tiny_model("ResNet50").eval()
    fresh.load_state_dict(model.state_dict())
    return fresh


def _perturbed(state, seed):
    """``state`` with every array moved, BatchNorm variances kept positive."""
    rng = np.random.default_rng(seed)
    return {key: (np.abs(value + rng.normal(0.0, 0.3, value.shape))
                  if key.endswith("running_var")
                  else value + rng.normal(0.0, 0.3, value.shape)
                  ).astype(value.dtype)
            for key, value in state.items()}


def _folds(model):
    return [m._derived for m in model.modules()
            if isinstance(m, BatchNorm2d) and m._derived is not None]


class TestDerivedStateCannotGoStale:
    """After every sanctioned mutation the next eval forward equals that of
    a freshly built model holding the same state, bit for bit."""

    @pytest.fixture
    def served(self):
        """An eval-mode model that has already built its folds."""
        model = tiny_model("ResNet50").eval()
        x = _inputs(model)
        _eval_forward(model, x)
        assert _folds(model)
        return model, x

    def _assert_matches_fresh(self, model, x):
        model.eval()
        np.testing.assert_array_equal(
            _eval_forward(model, x), _eval_forward(_fresh_replica(model), x))

    def test_load_state_dict(self, served):
        model, x = served
        before = _eval_forward(model, x)
        model.load_state_dict(_perturbed(model.state_dict(), seed=1))
        assert not _folds(model)
        self._assert_matches_fresh(model, x)
        assert not np.array_equal(before, _eval_forward(model, x))

    def test_load_state_dict_on_one_half_of_a_pair(self, served):
        """A conv reloaded on its own invalidates the fold it shares with
        the BatchNorm behind it (and the other way round)."""
        model, x = served
        stem = model.stage(0)
        conv, bn = stem[0], stem[1]
        assert conv._derived is bn._derived is not None
        conv.load_state_dict(_perturbed(conv.state_dict(), seed=2))
        self._assert_matches_fresh(model, x)
        bn.load_state_dict(_perturbed(bn.state_dict(), seed=3))
        self._assert_matches_fresh(model, x)

    def test_apply_model_delta(self, served):
        model, x = served
        store = PipeStore("s0")
        store.install_model(
            checknrun.ReplicaSync({}, model.num_stages - 1), version=0,
            base=model)
        old = model.state_dict()
        store.apply_model_delta(
            checknrun.encode_delta(old, _perturbed(old, seed=4)), version=1)
        self._assert_matches_fresh(model, x)

    def test_train_mode_forward_moves_running_stats(self, served):
        model, x = served
        model.train()
        assert all(m._derived is None for m in model.modules())
        with no_grad():
            model(Tensor(x * 3.0 + 1.0))
        self._assert_matches_fresh(model, x)

    @pytest.mark.parametrize("enter_train_mode", [True, False])
    def test_optimiser_step_on_conv_and_batchnorm(self, served,
                                                  enter_train_mode):
        """With or without ``train()``: a recorded graph through a
        BatchNorm is itself a sign that parameters are about to move."""
        model, x = served
        before = _eval_forward(model, x)
        if enter_train_mode:
            model.train()
        optimizer = SGD(model.parameters(), lr=0.05)
        model(Tensor(x)).sum().backward()
        optimizer.step()
        self._assert_matches_fresh(model, x)
        assert not np.array_equal(before, _eval_forward(model, x))

    def test_replacing_arrays_leaves_one_fold_alive(self):
        """N reloads, N eval forwards: the N-1 superseded folds and source
        arrays are garbage, not pinned by a cache."""
        model = tiny_model("ResNet50").eval()
        x = _inputs(model)
        stem_bn = model.stage(0)[1]
        folds, sources = [], []
        for step in range(5):
            model.load_state_dict(_perturbed(model.state_dict(), seed=step))
            _eval_forward(model, x)
            weight, _shift = stem_bn._derived
            folds.append(weakref.ref(weight.data))
            sources.append(weakref.ref(model.stage(0)[0].weight.data))
        del weight, _shift
        gc.collect()
        assert [ref() is not None for ref in folds] == [False] * 4 + [True]
        assert [ref() is not None for ref in sources] == [False] * 4 + [True]

    def test_replicas_sharing_a_front_let_go_of_it_together(self):
        """N replicas hold one front value by reference, then all are
        rebound to a new one: the old value, its arrays and its folds are
        garbage, not pinned by a cache."""
        source = tiny_model("ResNet50").freeze_features()
        x = _inputs(source)
        replicas = [source.replica().eval() for _ in range(3)]
        old = source.front
        for replica in replicas:
            assert replica.front is old
            _eval_forward(replica, x)
        folds = _folds(replicas[0])
        assert all(_folds(replica) == folds for replica in replicas)
        refs = [weakref.ref(old)]
        refs += [weakref.ref(array) for array in old.arrays.values()]
        refs += [weakref.ref(fold[0].data) for fold in folds]
        new = old.resolve(_perturbed(dict(old.arrays), seed=5))
        assert new is not old and new.digest != old.digest
        del source, old, folds
        for replica in replicas:
            replica.rebind(new)
            _eval_forward(replica, x)
        gc.collect()
        assert [ref() is None for ref in refs] == [True] * len(refs)
        for replica in replicas:
            assert replica.front is new
            state = replica.state_dict()
            assert all(state[key] is value
                       for key, value in new.arrays.items())


class TestMasterStateIsUnchanged:
    """Folding is invisible to everything that serialises a model."""

    #: sha256 over (key, dtype, shape, bytes) of ``tiny_model("ResNet50")``'s
    #: state dict, and over the inflated body of the Check-N-Run delta for
    #: the fixed update below — both recorded at the parent commit
    STATE_SHA256 = ("ca9657ab3eea3a78290d03143f02b189"
                    "97a6edd8fde70411d85db20b9f4fdc41")
    DELTA_BODY_SHA256 = ("61ceef3bf01662da4bebcc0f36a80e6d"
                         "3d8c8bedca28dbe4f25548fc9ba19357")

    @staticmethod
    def _digest(state):
        h = hashlib.sha256()
        for key, value in state.items():
            for part in (key, str(value.dtype), repr(value.shape)):
                h.update(part.encode())
            h.update(value.tobytes())
        return h.hexdigest()

    @staticmethod
    def _fixed_update(state):
        new = {key: value.copy() for key, value in state.items()}
        new["stage_FC.weight"] = new["stage_FC.weight"] + 1 / 64
        new["stage_FC.bias"] = new["stage_FC.bias"] - 1 / 128
        return new

    def test_state_delta_and_frame_bytes_ignore_the_fold(self):
        pristine = tiny_model("ResNet50").state_dict()
        model = tiny_model("ResNet50").eval()
        _eval_forward(model, _inputs(model))
        assert _folds(model)
        state = model.state_dict()

        assert list(state) == list(pristine)
        assert {v.dtype for v in state.values()} == {np.dtype(np.float64)}
        assert self._digest(state) == self.STATE_SHA256

        delta = checknrun.encode_delta(state, self._fixed_update(state))
        assert delta == checknrun.encode_delta(
            pristine, self._fixed_update(pristine))
        assert len(delta) == 11_798
        body = zlib.decompress(delta[12:])
        assert hashlib.sha256(body).hexdigest() == self.DELTA_BODY_SHA256

        def frame(arrays):
            table = BlobTable()
            return write_frame({"model": table.add_arrays(arrays)},
                               table.blobs)

        assert frame(state) == frame(pristine)

    def test_parameters_and_buffers_stay_float64(self):
        model = tiny_model("ShuffleNetV2").eval()
        _eval_forward(model, _inputs(model))
        assert all(p.data.dtype == np.float64 for p in model.parameters())
        assert all(b.dtype == np.float64 for _, b in model.named_buffers())


class TestFoldedPairs:
    """One folded pair at a time, every convolution shape the zoo uses."""

    @pytest.mark.parametrize("groups,bias,stride,kernel", [
        (1, False, 1, 3), (1, True, 2, 3), (1, False, 2, 1),
        (2, False, 1, 3), (4, True, 2, 3),      # grouped (ResNeXt)
        (8, False, 1, 3), (8, True, 2, 3),      # depthwise (ShuffleNet)
    ])
    def test_pair_matches_tensor_path(self, groups, bias, stride, kernel):
        rng = np.random.default_rng(groups + stride)
        pair = Sequential(
            Conv2d(8, 8, kernel, stride=stride, padding=kernel // 2,
                   groups=groups, bias=bias, rng=rng),
            BatchNorm2d(8),
            ReLU(),
        ).eval()
        state = _perturbed(pair.state_dict(), seed=9)
        pair.load_state_dict(state)
        x = rng.standard_normal((5, 8, 6, 6)).astype(np.float32)
        keep = x.copy()
        reference = pair(Tensor(x)).data
        with no_grad():
            got = pair(Tensor(x)).data
        assert got.dtype == np.float32
        assert_frozen_graph_close(reference, got)
        np.testing.assert_array_equal(x, keep)
        for key, value in pair.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_float64_input_is_rounded_once_at_the_first_conv(self):
        pair = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4)).eval()
        x = np.random.default_rng(0).standard_normal((2, 3, 5, 5))
        keep = x.copy()
        with no_grad():
            got = pair(Tensor(x)).data
        assert got.dtype == np.float32
        assert_frozen_graph_close(pair(Tensor(x)).data, got)
        np.testing.assert_array_equal(x, keep)

    def test_training_mode_batchnorm_is_not_folded(self):
        """``no_grad`` alone is not enough: batch statistics are live."""
        pair = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4))
        x = np.random.default_rng(1).standard_normal((6, 3, 5, 5))
        reference = pair(Tensor(x)).data
        with no_grad():
            got = pair(Tensor(x)).data
        assert pair[1]._derived is None
        np.testing.assert_array_equal(reference, got)

    def test_a_sliced_sequential_shares_the_fold(self):
        whole = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4),
                           ReLU()).eval()
        x = np.random.default_rng(2).standard_normal(
            (2, 3, 5, 5)).astype(np.float32)
        with no_grad():
            full = whole(Tensor(x)).data
            fold = whole[1]._derived
            np.testing.assert_array_equal(full, whole[:3](Tensor(x)).data)
        assert whole[1]._derived is fold


class TestFlopAccountingIsUnchanged:
    #: ``count_stage_flops`` at the parent commit
    PARENT_STAGE_FLOPS = {
        "ResNet50": {"Conv1": 221184.0, "Conv2": 753664.0, "Conv3": 950272.0,
                     "Conv4": 950272.0, "Conv5": 950272.0, "FC": 5120.0},
        "ShuffleNetV2": {"Stem": 221184.0, "Stage2": 317440.0,
                         "Stage3": 289792.0, "Stage4": 205824.0,
                         "Conv5": 131072.0, "FC": 2560.0},
        "ResNeXt101": {"Conv1": 221184.0, "Conv2": 1769472.0,
                       "Conv3": 2162688.0, "Conv4": 2162688.0,
                       "Conv5": 1343488.0, "FC": 5120.0},
        "InceptionV3": {"Stem": 221184.0, "MixedA": 1146880.0,
                        "MixedB": 1146880.0, "MixedC": 352256.0,
                        "FC": 1280.0},
    }

    @pytest.mark.parametrize("name", CONV_MODELS)
    def test_per_stage_flops(self, name):
        model = tiny_model(name).eval()
        assert count_stage_flops(model) == self.PARENT_STAGE_FLOPS[name]
        # ... and the compiled graph runs the very convolutions it counts
        x = Tensor(_inputs(model, batch=1))
        compiled = {}
        with no_grad():
            for index, stage_name in enumerate(model.stage_names):
                with FlopCounter() as counter:
                    x = model.stage(index)(x)
                compiled[stage_name] = counter.total_flops
        assert compiled == self.PARENT_STAGE_FLOPS[name]
