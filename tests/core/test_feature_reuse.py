"""The frozen front runs once per (photo, front): ``feat/<id>`` objects.

Contract (DESIGN §12, derived objects): a cold call is bit-identical to
the code that always ran the front (kept here as the oracle, and as the
accounting numbers pinned on the parent commit); a warm call returns the
bytes the cold call stored without touching the front or ``preproc/``; a
partly-warm call is bit-identical to a cold one (front rows are
batch-invariant, so a miss batch of another composition moves no row).  Everything
that changes the front, the split or the preprocessed bytes is a miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.ftdmp import frozen_front_features
from repro.core.pipestore import PipeStore, StoredPhoto, softmax_top1
from repro.models.registry import tiny_model
from repro.models.split import SplitModel
from repro.nn.tensor import Tensor, inference_mode
from repro.obs.metrics import MetricsRegistry
from repro.placement import ShardConfig, ShardedCluster
from repro.storage.compression import inflate
from repro.storage.imageformat import decode_preprocessed, quantise

BATCH = 8


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def photo(rng, photo_id):
    return StoredPhoto(photo_id=photo_id,
                       codes=quantise(rng.random((3, 16, 16))), train_label=1)


def photos(count, seed=0):
    rng = np.random.default_rng(seed)
    return [photo(rng, f"p{i:02d}") for i in range(count)]


def make_store(uploads, state=None, split=None, name="s"):
    store = PipeStore(name, nominal_raw_bytes=2048, batch_size=BATCH)
    model = factory()
    if state is not None:
        model.load_state_dict(state)
    store.install_model(checknrun.ReplicaSync(
        {}, model.num_stages - 1 if split is None else split), version=0,
        base=model)
    for upload in uploads:
        store.store_photo(upload)
    return store


def inputs_of(store, ids):
    """The preprocessed tensors, read without touching the IO counters."""
    return np.stack([
        decode_preprocessed(inflate(
            store.objects.peek(store.objects.preproc_key(pid))))
        for pid in ids])


def always_extract(store, ids):
    """``extract_features`` as it was when every call ran the front."""
    return frozen_front_features(store.model, store.split,
                                 inputs_of(store, ids))


def always_infer(store, ids):
    """``offline_infer`` as it was: the whole model over every photo."""
    inputs = inputs_of(store, ids)
    results = {}
    for start in range(0, len(ids), store.batch_size):
        stop = start + store.batch_size
        with inference_mode():
            logits = store.model(Tensor(inputs[start:stop])).data
        results.update(zip(ids[start:stop], softmax_top1(logits)))
    return results


def assert_bit_identical(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def assert_same_labels(got, ref):
    assert list(got) == list(ref)
    for pid in ref:
        assert got[pid][0] == ref[pid][0]
        assert got[pid][1] == pytest.approx(ref[pid][1], rel=1e-5)


def feature_keys(store):
    return store.objects.keys("feat/")


@pytest.fixture
def front_images(monkeypatch):
    """Batch sizes of every ``forward_until`` call made under the test."""
    calls = []
    real = SplitModel.forward_until

    def counted(self, x, split):
        calls.append(len(x.data))
        return real(self, x, split)

    monkeypatch.setattr(SplitModel, "forward_until", counted)
    return calls


class TestColdEqualsAlwaysRecompute:
    def test_features_and_labels_bit_identical(self):
        store = make_store(photos(20))
        ids = store.photo_ids()
        np.testing.assert_array_equal(
            store.extract_features(ids[:12]), always_extract(store, ids[:12]))
        assert store.offline_infer(ids[12:]) == always_infer(store, ids[12:])

    def test_early_split_keeps_dtype_and_shape(self):
        store = make_store(photos(5), split=2)
        ids = store.photo_ids()
        cold = store.extract_features(ids)
        assert cold.dtype == np.float32 and cold.ndim == 4
        np.testing.assert_array_equal(cold, always_extract(store, ids))
        warm = store.extract_features(ids)
        assert warm.dtype == cold.dtype
        np.testing.assert_array_equal(warm, cold)
        assert store.offline_infer(ids) == always_infer(store, ids)

    def test_lifecycle_accounting_equals_the_parent_numbers(self, small_world):
        """Pinned on the parent commit (every call ran the front).

        Re-pinned when the frozen front went half width: ``model-full``
        850 035 -> 442 899 B (float32 front masters); ``model-delta``
        21 246 -> 21 249 B (the same two classifier tensors, trained on
        features of the once-rounded front); ``features`` stays 12 288 B
        — the float64 rows were billed at 4 B an element, float32 rows
        are 4 B an element.  Re-pinned when pixel tensors went
        run-length (``Z_RLE``): ``ingest`` 117 790 -> 117 612 B (the
        ``preproc/`` blobs), and again when they went to byte planes:
        117 612 -> 111 139 B.  Re-pinned when live deltas went quantised
        (4 bits a floating-point element, error fed): ``model-delta``
        21 249 -> 1 242 B.  Re-pinned when installs began shipping only
        the classifier and a fingerprint of the frozen stages:
        ``model-full`` 442 899 -> 24 912 B (3 x 8 304).  Re-pinned when
        feature rows began crossing at 8 bits with a float32 (low, step)
        per row: ``features`` 12 288 -> 3 264 B (24 rows x (128 + 8));
        ``model-delta`` 1 242 -> 1 245 B (the tail trained on the
        delivered rows).  Re-pinned when ``preproc/`` came to hold each
        upload's 8-bit codes: ``ingest`` 111 139 -> 67 992 B."""
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=2048))
        x, y = small_world.sample(24, 0, rng=np.random.default_rng(3))
        cluster.ingest(x, train_labels=y)
        report = cluster.finetune(epochs=1, num_runs=2)  # two cold runs
        assert (report.images_extracted, report.feature_bytes) == (24, 3264)
        busy = [s.busy_seconds for s in cluster.stores]
        assert busy == pytest.approx([0.008] * 3)
        stats = cluster.offline_relabel(only_outdated=False)  # all warm
        assert stats.photos_processed == 24
        assert [s.busy_seconds for s in cluster.stores] == busy
        assert cluster.traffic_summary() == {
            "model-full": 24912, "ingest": 67992, "features": 3264,
            "model-delta": 1245, "inference-request": 192, "labels": 384}


class TestWarm:
    def test_returns_the_stored_bytes_without_front_or_preproc_reads(
            self, front_images):
        store = make_store(photos(20))
        registry = MetricsRegistry()
        store.bind_metrics(registry)
        ids = store.photo_ids()
        cold = store.extract_features(ids)
        assert sum(front_images) == 20 and store.busy_seconds > 0
        del front_images[:]
        busy, read = store.busy_seconds, store.objects.bytes_read
        warm = store.extract_features(ids)
        assert warm is not cold and warm.tobytes() == cold.tobytes()
        assert front_images == []
        assert store.busy_seconds == busy
        assert store.objects.bytes_read - read == sum(
            store.objects.size_of(key) for key in feature_keys(store))
        labels = store.offline_infer(ids)
        assert front_images == []
        assert labels == always_infer(store, ids)

        def value(name):
            return registry.get(name).value(store="s")

        assert value("pipestore_feature_misses_total") == 20
        assert value("pipestore_feature_hits_total") == 40
        assert value("pipestore_features_extracted_total") == 40
        assert value("pipestore_photos_relabelled_total") == 20
        assert value("pipestore_busy_seconds_total") == pytest.approx(busy)

    def test_feature_object_is_header_plus_raw_row(self):
        store = make_store(photos(1))
        (row,) = store.extract_features(["p00"])
        blob = store.objects.peek("feat/p00")
        assert blob.endswith(row.tobytes())
        assert len(blob) - row.nbytes == 24 + 4 * row.ndim

    def test_classifier_only_delta_keeps_every_feature(self, front_images):
        store = make_store(photos(10))
        ids = store.photo_ids()
        cold = store.extract_features(ids)
        del front_images[:]
        old = store.model.state_dict()
        new = {key: value + 0.25 if key.startswith("stage_FC.") else value
               for key, value in old.items()}
        assert any(not np.array_equal(old[k], new[k]) for k in old)
        store.apply_model_delta(checknrun.encode_delta(old, new), version=1)
        np.testing.assert_array_equal(store.extract_features(ids), cold)
        labels = store.offline_infer(ids)
        assert front_images == []
        assert labels == always_infer(store, ids)


class TestInvalidation:
    """Each change forces misses whose result equals a fresh store's."""

    def _warm(self, count=10):
        uploads = photos(count)
        store = make_store(uploads)
        ids = store.photo_ids()
        return uploads, store, ids, store.extract_features(ids)

    @pytest.mark.parametrize("key", [
        "stage_Conv3.conv1.layer0.weight",
        "stage_Conv1.layer1.running_mean",
    ])
    def test_full_state_with_one_changed_front_array(self, key, front_images):
        uploads, store, ids, before = self._warm()
        state = store.model.state_dict()
        state[key] = state[key] + 0.125
        del front_images[:]
        store.install_model(checknrun.ReplicaSync(state, store.split),
                            version=1)
        after = store.extract_features(ids)
        assert sum(front_images) == len(ids)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(
            after, make_store(uploads, state=state).extract_features(ids))
        # stale rows were overwritten in place, not left beside new ones
        assert len(feature_keys(store)) == len(ids)

    def test_install_model_at_another_split(self, front_images):
        uploads, store, ids, before = self._warm()
        del front_images[:]
        store.install_model(checknrun.ReplicaSync({}, 3), version=1)
        after = store.extract_features(ids)
        assert sum(front_images) == len(ids)
        assert after.shape != before.shape
        np.testing.assert_array_equal(
            after, make_store(uploads, split=3).extract_features(ids))
        del front_images[:]
        np.testing.assert_array_equal(store.extract_features(ids), after)
        assert front_images == []

    def test_store_photo_over_an_id_with_other_pixels(self, front_images):
        uploads, store, ids, before = self._warm()
        replacement = photo(np.random.default_rng(99), ids[3])
        store.store_photo(replacement)
        assert not store.objects.exists(store.objects.feature_key(ids[3]))
        del front_images[:]
        after = store.extract_features(ids)
        assert front_images == [1]
        assert not np.array_equal(after[3], before[3])
        np.testing.assert_array_equal(np.delete(after, 3, 0),
                                      np.delete(before, 3, 0))
        fresh = make_store([replacement]).extract_features([ids[3]])
        assert_bit_identical(after[3:4], fresh)

    def test_repaired_preproc_blob_invalidates_its_row(self, front_images):
        _uploads, store, ids, before = self._warm()
        other = photo(np.random.default_rng(7), ids[0])
        store.accept_repair(store.objects.preproc_key(ids[0]),
                            other.preprocessed_blob())
        del front_images[:]
        after = store.extract_features(ids)
        assert front_images == [1]
        assert not np.array_equal(after[0], before[0])

    def test_evict_drops_the_feature_with_the_photo(self):
        _uploads, store, ids, _before = self._warm()
        store.evict_photo(ids[0])
        assert store.objects.keys() == sorted(
            f"{space}/{pid}" for pid in ids[1:]
            for space in ("raw", "preproc", "feat"))


class TestPartlyWarm:
    def test_bit_identical_to_a_cold_call(self, front_images):
        uploads = photos(20)
        store = make_store(uploads)
        ids = store.photo_ids()
        warm_ids = ids[::3]
        stored = store.extract_features(warm_ids)
        del front_images[:]
        busy = store.busy_seconds
        mixed = store.extract_features(ids)
        assert sum(front_images) == len(ids) - len(warm_ids)
        assert store.busy_seconds - busy == pytest.approx(
            1e-3 * (len(ids) - len(warm_ids)))
        np.testing.assert_array_equal(mixed[::3], stored)
        cold = make_store(uploads)
        assert_bit_identical(mixed, cold.extract_features(ids))
        assert_same_labels(store.offline_infer(ids), cold.offline_infer(ids))


class TestMachinery:
    def test_restored_cluster_hits_without_a_front_pass(
            self, small_world, front_images):
        config = ClusterConfig(num_stores=3, nominal_raw_bytes=2048)
        cluster = NDPipeCluster(factory, config)
        x, y = small_world.sample(18, 0, rng=np.random.default_rng(3))
        cluster.ingest(x, train_labels=y)
        cluster.finetune(epochs=1)
        restored = NDPipeCluster(factory, config)
        restored.restore(cluster.checkpoint())
        del front_images[:]
        stats = restored.offline_relabel(only_outdated=False)
        assert stats.photos_processed == 18 and front_images == []
        assert all(s.busy_seconds == 0.0 for s in restored.stores)
        cluster.offline_relabel(only_outdated=False)
        assert (restored.database.snapshot_labels()
                == cluster.database.snapshot_labels())

    def test_migration_leaves_no_feature_behind(self):
        fleet = ShardedCluster(factory, ShardConfig(
            num_shards=4, vnodes=16, replication=2, ring_seed=3))
        rng = np.random.default_rng(3)
        images = rng.random((24, 3, 16, 16)).astype(np.float32)
        ids, _ = fleet.ingest(images, train_labels=rng.integers(0, 8, 24))
        fleet.finetune(epochs=1)
        cluster = fleet.cluster
        held = {s.store_id: set(feature_keys(s)) for s in cluster.stores}
        assert sum(map(len, held.values())) == len(ids)
        features_sent = cluster.traffic_summary()["features"]
        summary = fleet.join_shard()
        assert cluster.traffic_summary()["features"] == features_sent
        by_id = {s.store_id: s for s in cluster.stores}
        assert feature_keys(by_id[summary["shard"]]) == []  # never travel
        dropped = 0
        for store in cluster.stores:
            for key in held.get(store.store_id, ()):
                pid = key.split("/", 1)[1]
                if cluster.replicas.is_holder(pid, store.store_id):
                    assert store.objects.exists(key)
                else:
                    assert not store.objects.exists(key)
                    dropped += 1
        assert dropped > 0
        report = fleet.finetune(epochs=1)  # receivers simply miss
        assert report.images_extracted == len(ids)


OPS = ("ingest", "reupload", "evict", "delta", "full_state", "finetune",
       "relabel")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(history=st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 2 ** 16)),
    min_size=2, max_size=10))
def test_any_history_matches_a_store_that_always_recomputes(history):
    store = make_store(photos(6))
    held = {upload.photo_id: upload for upload in photos(6)}
    state, version, uploaded = store.model.state_dict(), 0, len(held)
    for op, seed in history:
        rng = np.random.default_rng(seed)
        if op in ("ingest", "reupload"):
            if op == "ingest" or not held:
                pid, uploaded = f"p{uploaded:02d}", uploaded + 1
            else:
                pid = sorted(held)[seed % len(held)]
            held[pid] = photo(rng, pid)
            store.store_photo(held[pid])
        elif op == "evict" and held:
            pid = sorted(held)[seed % len(held)]
            store.evict_photo(pid)
            del held[pid]
        elif op in ("delta", "full_state"):
            prefix = "stage_FC." if op == "delta" else "stage_Conv"
            keys = sorted(k for k in state if k.startswith(prefix))
            key = keys[seed % len(keys)]
            new = dict(state)
            new[key] = state[key] + rng.normal(0, 0.05, state[key].shape)
            version += 1
            if op == "delta":
                store.apply_model_delta(
                    checknrun.encode_delta(state, new), version)
            else:
                store.install_model(
                    checknrun.ReplicaSync(new, store.split), version)
            state = new
        elif op in ("finetune", "relabel") and held:
            ids = [pid for pid in sorted(held) if rng.random() < 0.6]
            ids = ids or sorted(held)[:1]
            oracle = make_store([held[pid] for pid in ids], state=state,
                                name="oracle")
            if op == "finetune":
                assert_bit_identical(store.extract_features(ids),
                                     oracle.extract_features(ids))
            else:
                assert_same_labels(store.offline_infer(ids),
                                   oracle.offline_infer(ids))
    assert set(feature_keys(store)) <= {f"feat/{pid}" for pid in held}
