"""Distributed-equals-centralised: the deepest FT-DMP correctness property.

The paper's §5.1 claim is that FT-DMP changes *where* fine-tuning runs,
not *what* is learned: extracting features on PipeStores and training the
classifier on the Tuner performs the same update sequence a single host
would.  These tests verify that end to end — the cluster's distributed
fine-tune produces the same classifier weights as a single-host
fine-tune on the same data, to floating-point equality.
"""

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import repro
from repro.core import dataplane
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.ftdmp import FTDMPTrainer
from repro.core.pipestore import PipeStore
from repro.data.loader import normalize_images
from repro.models.registry import tiny_model
from repro.nn import functional as F
from repro.storage import objectstore
from repro.storage.imageformat import preprocess, quantise
from repro.train.fulltrain import full_train
from tests.nn.reference_ops import assert_frozen_graph_close, conv2d_grouped


SEED = 21
LR = 4e-3
BATCH = 32


def base_state(small_world):
    model = tiny_model("ResNet50", num_classes=8, width=8, seed=SEED)
    x, y = small_world.sample(120, 0, rng=np.random.default_rng(3))
    full_train(model, normalize_images(x), y, epochs=2, seed=0)
    return model.state_dict()


@pytest.fixture(scope="module")
def setup(small_world=None):
    from repro.data.drift import DriftingPhotoWorld, WorldConfig

    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0,
    ))
    state = base_state(world)
    x, y = world.sample(96, 5, rng=np.random.default_rng(8))
    return world, state, x, y


def make_model(state):
    model = tiny_model("ResNet50", num_classes=8, width=8, seed=SEED)
    model.load_state_dict(state)
    return model


def _make_cluster(state, num_stores):
    return NDPipeCluster(lambda: make_model(state), ClusterConfig(
        num_stores=num_stores, nominal_raw_bytes=4096, lr=LR,
        batch_size=BATCH, seed=SEED))


def _patch_in_oracles(monkeypatch):
    """Swap every bit-exact hot path for its reference form: per-group
    conv, the front door photo by photo (rounding spelled out, the model
    input computed as ``preprocess(codes / 255)`` rather than read from
    the code table), per-photo decode, and each object's CRC32 walked
    over its padded content rather than its zero tail folded in.  (The
    folded BatchNorm is not bit-exact to its oracle; its tolerance
    contract is tested in ``tests/nn/test_functional_equivalence.py``.)"""
    monkeypatch.setattr(F, "_conv2d_matmul", conv2d_grouped)
    monkeypatch.setattr(
        objectstore, "content_crc",
        lambda payload, nominal: zlib.crc32(
            bytes(payload) + bytes(nominal - len(payload))))
    monkeypatch.setattr(
        dataplane, "quantise",
        lambda block: np.stack([np.rint(np.clip(p, 0, 1) * 255)
                                .astype(np.uint8) for p in block]))
    monkeypatch.setattr(
        dataplane, "model_input",
        lambda block: np.stack([preprocess(codes / 255) for codes in block]))
    monkeypatch.setattr(
        PipeStore, "_load_batch",
        lambda self, ids: np.stack([self.load_preprocessed(p) for p in ids]))


class TestDistributedEqualsCentralised:
    def _distributed(self, state, x, y, num_stores, epochs):
        cluster = _make_cluster(state, num_stores)
        cluster.ingest(x, train_labels=y)
        cluster.finetune(epochs=epochs)
        return cluster

    def _centralised(self, state, x, y, order, epochs):
        """Single-host fine-tune over the same photos in cluster order.

        The cluster's front door (8-bit codes, then fp32
        preprocessing of ``codes / 255``) is applied so inputs are
        bit-identical.
        """
        model = make_model(state)
        # mirror the storage path exactly: each upload rounded once to its
        # codes, the model input preprocessed from those
        stored = np.stack([preprocess(quantise(pixels) / 255) for pixels in x])
        trainer = FTDMPTrainer(model, lr=LR, batch_size=BATCH, seed=SEED)
        trainer.finetune(stored[order], y[order], epochs=epochs)
        return model

    def test_single_store_matches_single_host(self, setup):
        world, state, x, y = setup
        cluster = self._distributed(state, x, y, num_stores=1, epochs=2)
        # cluster order: one store, ids sorted == ingest order
        order = np.arange(len(x))
        host = self._centralised(state, x, y, order, epochs=2)

        tuner_clf = cluster.tuner.model.classifier.state_dict()
        host_clf = host.classifier.state_dict()
        for key in tuner_clf:
            np.testing.assert_allclose(tuner_clf[key], host_clf[key],
                                       rtol=0, atol=1e-12, err_msg=key)

    def test_multi_store_matches_single_host_with_matching_order(self, setup):
        """With 2 stores the Tuner concatenates per-store features; the
        same permutation fed to the single host yields identical weights."""
        world, state, x, y = setup
        cluster = self._distributed(state, x, y, num_stores=2, epochs=1)
        # round-robin placement: store-0 gets even indices, store-1 odd;
        # the Tuner concatenates store-0's photos then store-1's
        order = np.concatenate([np.arange(0, len(x), 2),
                                np.arange(1, len(x), 2)])
        host = self._centralised(state, x, y, order, epochs=1)

        tuner_clf = cluster.tuner.model.classifier.state_dict()
        host_clf = host.classifier.state_dict()
        for key in tuner_clf:
            np.testing.assert_allclose(tuner_clf[key], host_clf[key],
                                       rtol=0, atol=1e-12, err_msg=key)

    def test_store_count_does_not_change_learning(self, setup):
        """2-store and 4-store clusters see the same photos; their final
        eval accuracy agrees closely (update order differs only through
        the per-store concatenation permutation)."""
        world, state, x, y = setup
        results = []
        for stores in (2, 4):
            cluster = self._distributed(state, x, y, stores, epochs=2)
            x_test, y_test = world.sample(200, 5,
                                          rng=np.random.default_rng(99))
            results.append(cluster.evaluate(x_test, y_test)[0])
        assert abs(results[0] - results[1]) < 0.08

    def _lifecycle(self, state, x, y):
        """One seeded ingest + 2-epoch finetune on two stores."""
        return self._distributed(state, x, y, num_stores=2, epochs=2)

    def test_vectorized_lifecycle_matches_scalar_weights(self, setup,
                                                         monkeypatch):
        """The shipped ingest + finetune learns the exact classifier the
        reference forms of every hot path learn."""
        world, state, x, y = setup
        vector = self._lifecycle(state, x, y)
        _patch_in_oracles(monkeypatch)
        scalar = self._lifecycle(state, x, y)
        s_clf = scalar.tuner.model.classifier.state_dict()
        v_clf = vector.tuner.model.classifier.state_dict()
        for key in s_clf:
            np.testing.assert_array_equal(s_clf[key], v_clf[key],
                                          err_msg=key)
        # the byte accounting is identical too: batching moves the same
        # photos, features, and deltas over the fabric
        assert scalar.traffic_summary() == vector.traffic_summary()

    def test_golden_checkpoint_crc_survives_vectorization(self, setup,
                                                          monkeypatch):
        """Golden-output test: the lifecycle run with the oracles patched
        in yields a byte-identical cluster checkpoint.  Compared live, in
        process — a stored hash of GEMM output would pin the BLAS build,
        not the code.  CRCs of the blobs are compared first for a
        readable failure, then the full bytes."""
        world, state, x, y = setup
        shipped = self._lifecycle(state, x, y).checkpoint()
        _patch_in_oracles(monkeypatch)
        reference = self._lifecycle(state, x, y).checkpoint()
        assert zlib.crc32(reference) == zlib.crc32(shipped)
        assert reference == shipped

    def test_batched_ingest_same_labels_close_confidences(self, setup):
        """Batching is a scheduling change, not bit-neutral: against 96
        single-photo ``ingest`` calls the labels (argmax) must agree
        exactly, confidences only to float tolerance (batch-N GEMM
        reduces differently than N batch-1)."""
        world, state, x, y = setup
        batched = _make_cluster(state, num_stores=2)
        batched_ids = batched.ingest(x, train_labels=y)
        single = _make_cluster(state, num_stores=2)
        single_ids = [pid for i in range(len(x))
                      for pid in single.ingest(x[i:i + 1],
                                               train_labels=y[i:i + 1])]
        assert single_ids == batched_ids
        for pid in single_ids:
            a, b = single.database.lookup(pid), batched.database.lookup(pid)
            assert a.label == b.label, pid
            assert a.location == b.location, pid
            np.testing.assert_allclose(a.confidence, b.confidence,
                                       rtol=1e-9, atol=1e-12)
        assert single.traffic_summary() == batched.traffic_summary()

    def test_load_batch_equals_per_photo_stack(self, setup):
        """Decoding straight into one (N, C, H, W) array lands the bytes
        of N ``load_preprocessed`` calls stacked."""
        world, state, x, y = setup
        cluster = _make_cluster(state, num_stores=2)
        cluster.ingest(x, train_labels=y)
        for store in cluster.stores:
            ids = store.photo_ids()
            batch = store._load_batch(ids)
            stack = np.stack([store.load_preprocessed(p) for p in ids])
            assert batch.dtype == stack.dtype
            np.testing.assert_array_equal(batch, stack)

    def test_features_are_deterministic_across_replicas(self, setup):
        world, state, x, y = setup
        cluster = self._distributed(state, x, y, num_stores=2, epochs=1)
        store = cluster.stores[0]
        ids = store.photo_ids()[:6]
        feats_store = store.extract_features(ids)
        # the Tuner's own compiled frozen front computes identical features
        from repro.nn.tensor import Tensor, inference_mode

        inputs = np.stack([store.load_preprocessed(p) for p in ids])
        tuner = cluster.tuner
        tuner.model.eval()
        with inference_mode():
            feats_tuner = tuner.model.forward_until(
                Tensor(inputs), tuner.split).data
        np.testing.assert_array_equal(feats_store, feats_tuner)
        # ... and both within tolerance of the float64 Tensor path
        assert_frozen_graph_close(
            tuner.model.forward_until(Tensor(inputs), tuner.split).data,
            feats_store)


def test_scalar_path_env_var_is_inert():
    """``NDPIPE_SCALAR_PATH`` selected the deleted scalar twins; nothing
    reads it now — same dispatch, same bits — and ``repro.fastpath`` is a
    stub defining only an empty ``flags()`` (for the frozen benchmark
    header)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = """
import zlib, numpy as np, repro.fastpath as fp
from repro.nn import Tensor, functional as F
rng = np.random.default_rng(0)
out = F.conv2d(Tensor(rng.standard_normal((2, 4, 6, 6))),
               Tensor(rng.standard_normal((6, 2, 3, 3))), groups=2).data
own = [n for n, v in vars(fp).items()
       if getattr(v, "__module__", "") == fp.__name__]
print(own, vars(fp.flags()), zlib.crc32(out.tobytes()))
"""
    outputs = []
    for extra in ({}, {"NDPIPE_SCALAR_PATH": "1"}):
        env = {**os.environ, "PYTHONPATH": src, **extra}
        outputs.append(subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True).stdout.strip())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("['flags'] {} ")
