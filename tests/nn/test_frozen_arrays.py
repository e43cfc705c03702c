"""Frozen stages are immutable values: the module rules.

``freeze()`` leaves every parameter and buffer a read-only, aligned
ndarray; ``state_dict()`` hands those out uncopied; ``load_state_dict()``
adopts a read-only array into a frozen slot by reference, copies a
writable one, and always gives a trainable slot a private writable copy
— except in a frozen front, which is immutable: a replica's front is
swapped whole (``SplitModel.adopt``), never written into.
"""

import numpy as np
import pytest

from repro.models.registry import tiny_model
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, Sequential
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad


def _block():
    rng = np.random.default_rng(0)
    return Sequential(Conv2d(3, 4, 3, padding=1, rng=rng), BatchNorm2d(4))


def _slots(module):
    """Every parameter and buffer by key, read in place."""
    arrays = {name: param.data for name, param in module.named_parameters()}
    arrays.update(module.named_buffers())
    return arrays


def _frozen_copy(state):
    """``state`` as another replica would receive it: new read-only
    arrays with the same bytes."""
    out = {}
    for key, value in state.items():
        out[key] = value.copy()
        out[key].flags.writeable = False
    return out


class TestFreeze:
    def test_every_slot_is_read_only_aligned_float32(self):
        block = _block().freeze()
        for key, array in _slots(block).items():
            assert array.dtype == np.float32, key
            assert not array.flags.writeable, key
            assert array.flags.aligned and array.flags.c_contiguous, key

    @pytest.mark.parametrize("write", [
        lambda a: a.__setitem__(..., 0.0),
        lambda a: np.add(a, 1.0, out=a),
        lambda a: a.__iadd__(1.0),
    ])
    def test_in_place_write_raises(self, write):
        block = _block().freeze()
        for key, array in _slots(block).items():
            before = array.copy()
            with pytest.raises(ValueError, match="read-only"):
                write(array)
            np.testing.assert_array_equal(array, before, err_msg=key)

    def test_freeze_copies_a_writable_float32_array_it_does_not_own(self):
        layer = Linear(2, 2)
        outside = np.ones((2, 2), np.float32)
        layer.weight.data = outside
        layer.freeze()
        assert layer.weight.data is not outside
        outside[0, 0] = 5.0  # the caller's array stays the caller's
        assert layer.weight.data[0, 0] == 1.0

    def test_unfreeze_gives_private_writable_float64(self):
        block = _block().freeze()
        shared = _slots(block)
        block.unfreeze()
        for key, array in _slots(block).items():
            assert array.dtype == np.float64 and array.flags.writeable, key
            assert not np.shares_memory(array, shared[key]), key

    def test_train_mode_statistics_stay_read_only(self):
        block = _block().freeze()
        bn = block[1]
        before = bn._buffers["running_mean"]
        with no_grad():
            block(Tensor(np.ones((2, 3, 4, 4), np.float32)))
        after = bn._buffers["running_mean"]
        assert after is not before and not after.flags.writeable


class TestStateDict:
    def test_frozen_arrays_are_handed_out_uncopied(self):
        model = tiny_model("ResNet50").freeze_features()
        state = model.state_dict()
        prefix = model.classifier_prefix
        slots = _slots(model)
        for key, value in state.items():
            if key.startswith(prefix):
                assert value is not slots[key] and value.flags.writeable
                assert not np.shares_memory(value, slots[key])
            else:
                assert value is slots[key]


class TestLoadStateDict:
    def test_frozen_slot_adopts_a_read_only_array(self):
        source = _block().freeze()
        replica = _block().freeze()
        replica.load_state_dict(source.state_dict())
        for key, array in _slots(replica).items():
            assert array is _slots(source)[key], key

    def test_frozen_slot_copies_a_writable_array_read_only(self):
        replica = _block().freeze()
        incoming = {key: value.copy()
                    for key, value in _block().freeze().state_dict().items()}
        replica.load_state_dict(incoming)
        for key, array in _slots(replica).items():
            assert not array.flags.writeable, key
            assert not np.shares_memory(array, incoming[key]), key
            np.testing.assert_array_equal(array, incoming[key])

    def test_frozen_slot_copies_a_read_only_view_into_bytes(self):
        """A read-only array that does not own an aligned buffer of its
        own (a view into a packed table) is copied, not adopted."""
        replica = _block().freeze()
        key = "layer0.weight"
        value = replica.state_dict()[key]
        raw = b"\0" + value.tobytes()
        view = np.frombuffer(raw, np.float32, offset=1).reshape(value.shape)
        assert not view.flags.aligned
        replica.load_state_dict({key: view})
        held = _slots(replica)[key]
        assert held is not view and held.flags.aligned
        assert held.flags.owndata and not held.flags.writeable

    def test_trainable_slot_always_gets_a_private_writable_copy(self):
        frozen = _block().freeze()
        trainable = _block()
        trainable.load_state_dict(frozen.state_dict())
        for key, array in _slots(trainable).items():
            assert array.flags.writeable, key
            assert not np.shares_memory(array, _slots(frozen)[key]), key

    def test_adam_steps_the_classifier_of_a_replica_given_shared_state(self):
        source = tiny_model("ResNet50", num_classes=8, width=8)
        source.freeze_features()
        replica = tiny_model("ResNet50", num_classes=8, width=8, seed=1)
        replica.freeze_features()
        replica.adopt(_frozen_copy(source.state_dict()))
        assert replica.front.digest == source.front.digest
        head = replica.classifier
        before = {k: v.copy() for k, v in head.state_dict().items()}
        optimizer = Adam(head.parameters(), lr=0.1)
        features = Tensor(np.ones((2,) + replica.feature_dim_after(
            replica.num_stages - 1)))
        head(features).sum().backward()
        optimizer.step()
        after = head.state_dict()
        assert all(not np.array_equal(after[k], before[k]) for k in before)

    def test_reloading_the_held_array_replaces_nothing(self):
        """Loading a state whose frozen arrays are the ones held keeps
        every fold and the front value: only the classifier moves."""
        model = tiny_model("ResNet50").freeze_features().eval()
        with no_grad():
            model(Tensor(np.zeros((1,) + model.input_shape, np.float32)))
        front = model.front
        derived = [(m, m._derived) for m in model.modules()
                   if m._derived is not None]
        assert len(derived) > 1
        replaced = model.load_state_dict(model.state_dict())
        assert replaced and all(
            key.startswith(model.classifier_prefix) for key in replaced)
        assert all(m._derived is d for m, d in derived)
        assert model.front is front

    def test_a_front_slot_refuses_any_other_array(self):
        """A frozen front is immutable: ``load_state_dict`` will not
        write another array into it, even one with equal bytes."""
        model = tiny_model("ResNet50").freeze_features()
        key, held = next(iter(model.front.arrays.items()))
        with pytest.raises(ValueError, match="immutable"):
            model.load_state_dict({key: held.copy()})
        assert model.front.arrays[key] is held
