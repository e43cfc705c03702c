"""End-to-end tests for PipeStore / Tuner / NDPipeCluster and the fabric."""

import numpy as np
import pytest

from repro.core.checknrun import ReplicaSync
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.fabric import NetworkFabric
from repro.core.pipestore import PipeStore, StoredPhoto
from repro.models.registry import tiny_model
from repro.storage.imageformat import model_input, preprocess, quantise
from repro.storage.objectstore import MissingObjectError


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


@pytest.fixture
def cluster(small_world):
    return NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=4096))


@pytest.fixture
def loaded_cluster(cluster, small_world):
    x, y = small_world.sample(90, 0, rng=np.random.default_rng(2))
    ids = cluster.ingest(x, train_labels=y)
    return cluster, ids, (x, y)


class TestFabric:
    def test_accounts_bytes_by_edge_and_kind(self):
        net = NetworkFabric()
        net.send("a", "b", 100, "features")
        net.send("a", "b", 50, "features")
        net.send("b", "a", 10, "labels")
        assert net.bytes_between("a", "b") == 150
        assert net.bytes_of_kind("features") == 150
        assert net.total_bytes == 160
        assert net.transfer_count == 3

    def test_local_handoff_is_free(self):
        net = NetworkFabric()
        payload = object()
        assert net.send("a", "a", 10**9, "bulk", payload) is payload
        assert net.total_bytes == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkFabric().send("a", "b", -1, "x")

    def test_fresh_fabric_counts_nothing(self):
        net = NetworkFabric()
        assert net.total_bytes == 0 and net.kinds() == {}
        assert net.transfer_count == 0 and net.injected_latency_s == 0.0


class TestPipeStore:
    def test_store_and_reload_photo(self, rng):
        store = PipeStore("s0", nominal_raw_bytes=4096)
        pixels = rng.random((3, 16, 16))
        photo = StoredPhoto("p0", quantise(pixels), train_label=3)
        stored = store.store_photo(photo)
        assert stored >= 4096
        out = store.load_preprocessed("p0")
        assert np.allclose(out, preprocess(pixels), atol=2 / 255 + 1e-6)
        np.testing.assert_array_equal(out, model_input(quantise(pixels)))
        assert store.photo_ids() == ["p0"]
        assert store.train_label("p0") == 3

    def test_missing_label(self, rng):
        store = PipeStore("s0")
        pixels = rng.random((3, 16, 16))
        store.store_photo(StoredPhoto("p0", quantise(pixels)))
        with pytest.raises(MissingObjectError):
            store.train_label("p0")

    def test_jobs_require_model(self, rng):
        store = PipeStore("s0")
        pixels = rng.random((3, 16, 16))
        store.store_photo(StoredPhoto("p0", quantise(pixels)))
        with pytest.raises(RuntimeError, match="no model"):
            store.extract_features(["p0"])
        with pytest.raises(RuntimeError, match="no model"):
            store.offline_infer(["p0"])

    def test_empty_id_list_rejected(self):
        store = PipeStore("s0")
        store.install_model(ReplicaSync({}, 5), 0, base=factory())
        with pytest.raises(ValueError):
            store.extract_features([])

    def test_stale_delta_rejected(self):
        store = PipeStore("s0")
        store.install_model(ReplicaSync({}, 5), version=3, base=factory())
        with pytest.raises(ValueError, match="not newer"):
            store.apply_model_delta(b"CNR1\x00\x00\x00\x00x\x9c\x03\x00\x00\x00\x00\x01",
                                    version=3)

    def test_preprocessed_overhead_below_raw(self, rng):
        store = PipeStore("s0", nominal_raw_bytes=8192)
        for i in range(5):
            pixels = rng.random((3, 16, 16))
            store.store_photo(StoredPhoto(f"p{i}", quantise(pixels)))
        assert store.objects.bytes_by_prefix("preproc/") \
            < store.objects.bytes_by_prefix("raw/")


class TestIngest:
    def test_ingest_places_round_robin(self, loaded_cluster):
        cluster, ids, _ = loaded_cluster
        counts = [len(s.photo_ids()) for s in cluster.stores]
        assert counts == [30, 30, 30]
        assert len(ids) == 90

    def test_ingest_indexes_labels(self, loaded_cluster):
        cluster, ids, _ = loaded_cluster
        assert len(cluster.database) == 90
        record = cluster.database.lookup(ids[0])
        assert record.model_version == 0
        assert record.location == "pipestore-0"

    def test_ingest_traffic_includes_preprocessed_offload(self, loaded_cluster):
        cluster, ids, _ = loaded_cluster
        kinds = cluster.traffic_summary()
        assert kinds["ingest"] > 90 * 4096  # raw photos + preproc binaries

    def test_ingest_validation(self, cluster, rng):
        with pytest.raises(ValueError):
            cluster.ingest(rng.random((4, 3, 16)))
        with pytest.raises(ValueError):
            cluster.ingest(rng.random((2, 3, 16, 16)), train_labels=[1])


class TestFinetuneFlow:
    def test_finetune_trains_and_distributes(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        report = cluster.finetune(epochs=2)
        assert report.images_extracted == 90
        assert cluster.tuner.version == 1
        assert all(s.model_version == 1 for s in cluster.stores)
        # deltas are far smaller than full models
        dist = cluster.tuner.distributions[-1]
        assert dist.reduction_factor > 3

    def test_feature_traffic_much_smaller_than_images(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.finetune(epochs=1)
        kinds = cluster.traffic_summary()
        assert kinds["features"] < 0.1 * kinds["ingest"]

    def test_store_replicas_match_tuner_after_update(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.finetune(epochs=1)
        tuner_state = cluster.tuner.published
        for store in cluster.stores:
            store_state = store.model.state_dict()
            for key in tuner_state:
                assert np.allclose(store_state[key], tuner_state[key],
                                   atol=1e-12), key

    def test_pipelined_finetune_runs(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        report = cluster.finetune(epochs=1, num_runs=3)
        assert {e.run for e in report.epochs} == {0, 1, 2}

    def test_features_equal_tuner_side_extraction(self, loaded_cluster):
        """The FT-DMP core invariant: PipeStore features == the Tuner's own
        frozen-front forward on the same inputs."""
        cluster, ids, _ = loaded_cluster
        store = cluster.stores[0]
        some_ids = store.photo_ids()[:8]
        feats = store.extract_features(some_ids)
        from repro.nn.tensor import Tensor, inference_mode
        from tests.nn.reference_ops import assert_frozen_graph_close

        inputs = np.stack([store.load_preprocessed(p) for p in some_ids])
        tuner = cluster.tuner
        tuner.model.eval()
        # whichever replica extracts, same features: bit for bit
        with inference_mode():
            replica = tuner.model.forward_until(Tensor(inputs), tuner.split).data
        np.testing.assert_array_equal(feats, replica)
        # and the compiled front stays within tolerance of the float64 one
        assert_frozen_graph_close(
            tuner.model.forward_until(Tensor(inputs), tuner.split).data, feats)


class TestOfflineRelabel:
    def test_relabel_bumps_versions(self, loaded_cluster):
        cluster, ids, _ = loaded_cluster
        cluster.finetune(epochs=1)
        stats = cluster.offline_relabel()
        assert stats.photos_processed == 90
        versions = cluster.database.version_counts()
        assert versions == {1: 90}

    def test_relabel_only_outdated_skips_fresh(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.finetune(epochs=1)
        cluster.offline_relabel()
        again = cluster.offline_relabel()
        assert again.photos_processed == 0

    def test_relabel_traffic_is_labels_only(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.finetune(epochs=1)
        before = cluster.network.bytes_of_kind("labels")
        stats = cluster.offline_relabel()
        after = cluster.network.bytes_of_kind("labels")
        assert after - before == stats.label_bytes
        assert stats.label_bytes < 90 * 64

    def test_labels_changed_within_photos_processed(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.finetune(epochs=1)
        stats = cluster.offline_relabel()
        assert 0 <= stats.labels_changed <= stats.photos_processed


class TestEvaluation:
    def test_evaluate_returns_top1_top5(self, loaded_cluster, small_world):
        cluster, _, _ = loaded_cluster
        x, y = small_world.sample(60, 0, rng=np.random.default_rng(8))
        top1, top5 = cluster.evaluate(x, y)
        assert 0.0 <= top1 <= top5 <= 1.0

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            NDPipeCluster(factory, ClusterConfig(num_stores=0))

    def test_peak_is_flat_in_the_photo_count(self, cluster, small_world):
        """Preprocess and forward run a batch at a time: evaluating 1 024
        photos holds what evaluating 256 holds (it used to preprocess
        the whole set first, a transient that grew with it)."""
        import tracemalloc

        x, y = small_world.sample(1024, 0, rng=np.random.default_rng(5))
        cluster.evaluate(x[:64], y[:64])  # first eval builds the folds

        def peak(n):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cluster.evaluate(x[:n], y[:n])
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        small, large = peak(256), peak(1024)
        extra_inputs = preprocess(x[256:]).nbytes
        assert large - small < extra_inputs / 10, (small, large)

    def test_batches_score_what_the_whole_batch_scores(self, cluster,
                                                       small_world):
        from repro.nn.losses import accuracy, topk_accuracy
        from repro.nn.tensor import Tensor, inference_mode

        x, y = small_world.sample(300, 0, rng=np.random.default_rng(6))
        batched = cluster.evaluate(x, y)
        model = cluster.tuner.model
        assert model.training
        model.eval()
        with inference_mode():
            logits = model(Tensor(model_input(quantise(x)))).data
        model.train()
        assert batched == (accuracy(logits, y),
                           topk_accuracy(logits, y, k=5))

    def test_train_mode_comes_back_when_evaluation_fails(self, cluster,
                                                         monkeypatch):
        from repro.core import tuner as tuner_module

        def broken(pixels):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(tuner_module, "quantise", broken)
        with pytest.raises(RuntimeError, match="decode failed"):
            cluster.evaluate(np.zeros((4, 3, 16, 16), np.float32),
                             np.zeros(4, np.int64))
        assert cluster.tuner.model.training


class TestUploadJournal:
    """Regression: the upload journal grew without bound — every ingested
    photo's raw pixels stayed resident for the cluster's lifetime."""

    def test_journal_capped_bounds_memory(self, small_world):
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=2, nominal_raw_bytes=4096, journal_max_entries=16))
        rng = np.random.default_rng(4)
        for _ in range(3):
            x, y = small_world.sample(20, 0, rng=rng)
            cluster.ingest(x, train_labels=y)
            assert cluster.journal_size <= 16
        assert cluster.journal_size == 16
        pruned = cluster.metrics.get("cluster_journal_pruned_total")
        assert pruned.value(reason="capacity") == 60 - 16
        assert cluster.metrics.get("cluster_journal_entries").value() == 16

    def test_cap_evicts_oldest_uploads_first(self, small_world):
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=2, journal_max_entries=5))
        x, y = small_world.sample(8, 0, rng=np.random.default_rng(5))
        ids = cluster.ingest(x, train_labels=y)
        assert sorted(cluster.control.journal) == sorted(ids[-5:])

    def test_uncapped_journal_tracks_every_upload(self, loaded_cluster):
        cluster, ids, _ = loaded_cluster
        assert cluster.journal_size == len(ids)

    def test_prune_drops_entries_departed_from_database(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.control.journal["ghost-upload"] = (np.zeros((3, 16, 16)), None)
        assert cluster.control.prune_journal() == 1
        assert "ghost-upload" not in cluster.control.journal
        assert cluster.control.prune_journal() == 0
        pruned = cluster.metrics.get("cluster_journal_pruned_total")
        assert pruned.value(reason="departed") == 1

    def test_reconcile_prunes_the_journal(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        cluster.control.journal["ghost-upload"] = (np.zeros((3, 16, 16)), None)
        cluster.reconcile(cluster.stores[0])
        assert "ghost-upload" not in cluster.control.journal

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            NDPipeCluster(factory, ClusterConfig(
                num_stores=1, journal_max_entries=0))

    def test_capped_journal_still_recovers_recent_orphans(self, small_world):
        """The cap trades recovery depth for memory: photos still inside
        the window re-place onto survivors after a crash."""
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=4096, journal_max_entries=64))
        x, y = small_world.sample(12, 0, rng=np.random.default_rng(6))
        cluster.ingest(x, train_labels=y)
        victim = cluster.stores[0]
        orphans = cluster.database.ids_at(victim.store_id)
        victim.fail()
        moved = cluster.reingest_orphans(victim.store_id)
        assert sorted(moved) == sorted(orphans)
