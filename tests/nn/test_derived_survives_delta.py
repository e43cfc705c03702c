"""Derived state is dropped where its sources moved, and only there.

``load_state_dict`` drops ``Module._derived`` on the modules owning a
replaced key; a :class:`~repro.models.split.SplitModel` drops its front
digest only when a front-stage key is replaced; ``PipeStore.
apply_model_delta`` loads only the tensors the delta changes.  So a
Check-N-Run delta that touches only the classifier re-hashes nothing,
while every mutation of the front still moves the digest (or the folds)
and makes ``feat/`` rows miss.
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
from repro.storage.imageformat import preprocess


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
        pixels = rng.random((3, 16, 16))
        store.store_photo(StoredPhoto(photo_id=f"p{i}", pixels=pixels,
                                      preprocessed=preprocess(pixels),
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
    derived, folds = model._derived, _folds(model)
    digest = model.front_digest(store.split)
    old = model.state_dict()
    store.apply_model_delta(checknrun.encode_delta(
        old, _scaled(old, "stage_FC.")), version=1)
    assert model._derived is derived            # no re-hash
    assert model.front_digest(store.split) == digest
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


def _cast(store):
    store.model.cast(np.float32)


def _train_step(store):
    store.model.train(True)
    assert all(m._derived is None for m in store.model.modules())
    with no_grad():  # a train-mode forward moves BatchNorm running stats
        store.model(Tensor(np.random.default_rng(9).random(
            (4,) + store.model.input_shape)))
    store.model.eval()


@pytest.mark.parametrize("mutate", [_front_delta, _full_resync, _cast,
                                    _train_step])
def test_every_front_mutation_moves_the_digest_and_rows_miss(mutate):
    registry = MetricsRegistry()
    store = _store(registry)
    _features(store, registry)
    digest = store.model.front_digest(store.split)
    mutate(store)
    assert store.model._derived is None
    assert store.model.front_digest(store.split) != digest
    assert _features(store, registry) == (0, 6)


def _fresh_digest(state, split):
    fresh = _model()
    fresh.load_state_dict(state)
    return fresh.front_digest(split)


KEYS = sorted(_model().state_dict())


@settings(max_examples=30, deadline=None)
@given(rounds=st.lists(st.tuples(
    st.lists(st.sampled_from(KEYS), min_size=1, max_size=6, unique=True),
    st.integers(0, 2 ** 16)), min_size=1, max_size=4))
def test_partial_loads_keep_digest_and_folds_equal_to_a_fresh_model(rounds):
    """Perturb random key subsets, load only them: the digest and the
    eval forward always equal those of a freshly built model holding the
    same state."""
    model = _model().eval()
    split = model.num_stages - 1
    x = np.random.default_rng(0).random((2,) + model.input_shape)
    with no_grad():
        model(Tensor(x))
    model.front_digest(split)
    for keys, seed in rounds:
        rng = np.random.default_rng(seed)
        state = model.state_dict()
        model.load_state_dict({
            key: (np.abs(state[key] + rng.normal(0, 0.1, state[key].shape))
                  if key.endswith("running_var")
                  else state[key] + rng.normal(0, 0.1, state[key].shape))
            for key in keys})
        assert model.front_digest(split) == _fresh_digest(
            model.state_dict(), split)
        fresh = _model().eval()
        fresh.load_state_dict(model.state_dict())
        with no_grad():
            np.testing.assert_array_equal(model(Tensor(x)).data,
                                          fresh(Tensor(x)).data)
