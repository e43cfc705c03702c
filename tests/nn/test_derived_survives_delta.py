"""Derived state of the front cannot go stale: it belongs to a value.

A frozen model's front is one immutable ``FrozenFront``: its digest is
computed when the value is made and its BatchNorm folds on its first
eval, and nothing writes into it afterwards.  A Check-N-Run delta that
touches only the classifier therefore leaves the value — digest, folds
and every ``feat/`` row — as it was, while anything that brings other
front arrays (a delta naming them, a whole-state sync of another front)
rebinds the replica to another value, whose digest makes the rows miss.
A train-mode step cannot reach the front at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import checknrun
from repro.core.pipestore import PipeStore, StoredPhoto
from repro.models.registry import tiny_model
from repro.nn.layers import BatchNorm2d
from repro.nn.tensor import Tensor, no_grad
from repro.obs.metrics import MetricsRegistry
from repro.storage.imageformat import quantise


def _model():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def _store(registry=None):
    store = PipeStore("s0", nominal_raw_bytes=2048, batch_size=8)
    if registry is not None:
        store.bind_metrics(registry)
    model = _model()
    store.install_model(checknrun.ReplicaSync({}, model.num_stages - 1),
                        version=0, base=model)
    rng = np.random.default_rng(0)
    for i in range(6):
        store.store_photo(StoredPhoto(
            photo_id=f"p{i}", codes=quantise(rng.random((3, 16, 16))),
            train_label=1))
    return store


def _scaled(state, prefix, scale=1.25):
    return {key: value * scale if key.startswith(prefix) else value
            for key, value in state.items()}


def _folds(model):
    return [m._derived for m in model.modules()
            if isinstance(m, BatchNorm2d) and m._derived is not None]


def _features(store, registry):
    """Extract every photo; returns (feature hits, misses) it counted."""
    hits = registry.get("pipestore_feature_hits_total")
    misses = registry.get("pipestore_feature_misses_total")
    before = hits.total(), misses.total()
    store.extract_features([f"p{i}" for i in range(6)])
    return hits.total() - before[0], misses.total() - before[1]


def test_classifier_only_delta_rehashes_nothing():
    registry = MetricsRegistry()
    store = _store(registry)
    model = store.model
    _features(store, registry)
    front, folds = model.front, _folds(model)
    assert folds
    old = model.state_dict()
    store.apply_model_delta(checknrun.encode_delta(
        old, _scaled(old, "stage_FC.")), version=1)
    assert model.front is front                 # the same value: no re-hash
    assert _folds(model) == folds and all(
        a is b for a, b in zip(_folds(model), folds))
    assert _features(store, registry) == (6, 0)
    np.testing.assert_array_equal(model.state_dict()["stage_FC.weight"],
                                  old["stage_FC.weight"] * 1.25)


def _front_delta(store):
    old = store.model.state_dict()
    store.apply_model_delta(checknrun.encode_delta(
        old, _scaled(old, "stage_Conv1.")), version=1)


def _full_resync(store):
    store.install_model(checknrun.ReplicaSync(
        _scaled(store.model.state_dict(), "stage_Conv1."), store.split),
        version=1)


@pytest.mark.parametrize("mutate", [_front_delta, _full_resync])
def test_every_front_mutation_moves_the_digest_and_rows_miss(mutate):
    registry = MetricsRegistry()
    store = _store(registry)
    _features(store, registry)
    front = store.model.front
    mutate(store)
    assert store.model.front is not front
    assert store.model.front.digest != front.digest
    assert _features(store, registry) == (0, 6)


def test_a_train_mode_forward_leaves_the_front_alone():
    """The front is eval-only and immutable: a train-mode forward runs it
    in eval mode, so its value, folds and rows all survive."""
    registry = MetricsRegistry()
    store = _store(registry)
    _features(store, registry)
    front, folds = store.model.front, _folds(store.model)
    state = {key: value.copy() for key, value in front.arrays.items()}
    store.model.train(True)
    with no_grad():  # a train-mode forward
        store.model(Tensor(np.random.default_rng(9).random(
            (4,) + store.model.input_shape)))
    store.model.eval()
    assert store.model.front is front
    assert all(not stage.training for stage in front.stages)
    assert all(a is b for a, b in zip(_folds(store.model), folds))
    for key, value in front.arrays.items():
        assert value.dtype == np.float32 and not value.flags.writeable
        np.testing.assert_array_equal(value, state[key])
    assert _features(store, registry) == (6, 0)


def _fresh(state):
    fresh = _model()
    fresh.load_state_dict(state)
    return fresh.freeze_features().eval()


KEYS = sorted(_model().state_dict())


@settings(max_examples=30, deadline=None)
@given(rounds=st.lists(st.tuples(
    st.lists(st.sampled_from(KEYS), min_size=1, max_size=6, unique=True),
    st.integers(0, 2 ** 16)), min_size=1, max_size=4))
def test_partial_loads_keep_digest_and_folds_equal_to_a_fresh_model(rounds):
    """Perturb random key subsets, adopt only them: the front's digest
    and the eval forward always equal those of a freshly built model
    holding the same state, and a front left alone is the same value."""
    model = _model().freeze_features().eval()
    x = np.random.default_rng(0).random((2,) + model.input_shape)
    with no_grad():
        model(Tensor(x))
    for keys, seed in rounds:
        rng = np.random.default_rng(seed)
        state = model.state_dict()
        front = model.front
        model.adopt({
            key: (np.abs(state[key] + rng.normal(0, 0.1, state[key].shape))
                  if key.endswith("running_var")
                  else state[key] + rng.normal(0, 0.1, state[key].shape))
            for key in keys})
        fresh = _fresh(model.state_dict())
        assert model.front.digest == fresh.front.digest
        assert (model.front is front) == all(
            key.startswith(model.classifier_prefix) for key in keys)
        with no_grad():
            np.testing.assert_array_equal(model(Tensor(x)).data,
                                          fresh(Tensor(x)).data)
