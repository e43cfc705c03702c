"""Failure-injection tests: the cluster survives PipeStore outages."""

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import StoreUnavailableError
from repro.faults import MessageDroppedError
from repro.models.registry import tiny_model


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def assert_published(store, cluster):
    """``store`` holds the Tuner's published state, bit for bit."""
    assert store.model_version == cluster.tuner.version
    held = store.model.state_dict()
    for key, value in cluster.tuner.published.items():
        assert held[key].tobytes() == value.tobytes(), key


@pytest.fixture
def cluster(small_world):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=4096))
    x, y = small_world.sample(90, 0, rng=np.random.default_rng(2))
    cluster.ingest(x, train_labels=y)
    return cluster


class TestStoreFailure:
    def test_failed_store_rejects_jobs(self, cluster):
        store = cluster.stores[0]
        store.fail()
        with pytest.raises(StoreUnavailableError):
            store.extract_features(store.photo_ids()[:2])
        with pytest.raises(StoreUnavailableError):
            store.offline_infer(store.photo_ids()[:2])

    def test_repair_restores_service(self, cluster):
        store = cluster.stores[0]
        store.fail()
        store.repair()
        assert store.is_available
        feats = store.extract_features(store.photo_ids()[:4])
        assert len(feats) == 4


class TestIngestRoutesAroundFailure:
    def test_round_robin_skips_failed_store(self, cluster, small_world):
        cluster.stores[1].fail()
        x, y = small_world.sample(30, 0, rng=np.random.default_rng(9))
        before = len(cluster.stores[1].photo_ids())
        cluster.ingest(x, train_labels=y)
        assert len(cluster.stores[1].photo_ids()) == before
        healthy = (len(cluster.stores[0].photo_ids())
                   + len(cluster.stores[2].photo_ids()))
        assert healthy == 60 + 30

    def test_total_outage_raises(self, cluster, small_world):
        for store in cluster.stores:
            store.fail()
        x, y = small_world.sample(4, 0)
        with pytest.raises(StoreUnavailableError):
            cluster.ingest(x, train_labels=y)


class TestFinetuneDegradesGracefully:
    def test_training_skips_down_store(self, cluster):
        cluster.stores[2].fail()
        report = cluster.finetune(epochs=1)
        assert report.images_extracted == 60  # 2 healthy stores x 30 photos
        assert report.skipped_stores == ["pipestore-2"]

    def test_down_store_misses_delta_then_catches_up(self, cluster):
        down = cluster.stores[2]
        down.fail()
        cluster.finetune(epochs=1)
        assert down.model_version == 0
        assert cluster.tuner.version == 1
        # healthy replicas advanced
        assert all(s.model_version == 1 for s in cluster.stores[:2])

        down.repair()
        cluster.tuner.catch_up(down)
        assert down.model_version == 1
        tuner_state = cluster.tuner.published
        for key, value in down.model.state_dict().items():
            assert np.allclose(value, tuner_state[key], atol=1e-12)

    @pytest.mark.parametrize("front", ["held", "moved", "moved, whole dropped"])
    def test_resync_metric_counts_the_bytes_sent(self, cluster, front):
        """``checknrun_distributed_bytes_total{mechanism="full"}`` moves by
        what the round's resync put on the fabric: the classifier and the
        fingerprint, plus the whole state when the lagging store's frozen
        stages moved away from the published ones — and only the refused
        tail when every try of the whole state is dropped."""
        lagging = cluster.stores[2]
        lagging.fail()
        cluster.finetune(epochs=1)  # the store misses this round
        lagging.repair()
        whole = checknrun.state_dict_bytes(cluster.tuner.published)
        if front != "held":
            key = "stage_Conv1.layer0.weight"
            lagging.model.adopt(  # rebound to another front value
                {key: lagging.model.state_dict()[key] * 2})
        if front == "moved, whole dropped":
            def drop_whole(record):
                if record.kind == "model-full" and record.num_bytes >= whole:
                    raise MessageDroppedError("whole state dropped")
                return 0.0

            cluster.network.fault_filter = drop_whole
        metric = cluster.metrics.get("checknrun_distributed_bytes_total")
        before = (metric.value(mechanism="full"),
                  cluster.network.bytes_of_kind("model-full"))
        cluster.finetune(epochs=1)  # and is found behind by this one
        cluster.network.fault_filter = None
        stats = cluster.tuner.distributions[-1]
        sent = cluster.network.bytes_of_kind("model-full") - before[1]
        assert metric.value(mechanism="full") - before[0] == sent
        if front == "moved, whole dropped":
            assert stats.stores_missed == [lagging.store_id]
            assert 0 < sent < whole  # the refused tail sync
            cluster.tuner.catch_up(lagging)
        else:
            assert stats.stores_resynced == [lagging.store_id]
            assert (sent > whole) == (front == "moved")
        assert_published(lagging, cluster)

    def test_catch_up_requires_repair(self, cluster):
        down = cluster.stores[0]
        down.fail()
        with pytest.raises(StoreUnavailableError):
            cluster.tuner.catch_up(down)

    def test_catch_up_noop_when_current(self, cluster):
        before = cluster.network.bytes_of_kind("model-full")
        cluster.tuner.catch_up(cluster.stores[0])
        assert cluster.network.bytes_of_kind("model-full") == before


class TestRelabelSkipsFailures:
    def test_relabel_processes_only_healthy_stores(self, cluster):
        cluster.finetune(epochs=1)
        cluster.stores[0].fail()
        stats = cluster.offline_relabel()
        assert stats.photos_processed == 60
        # the down store's photos stay outdated for a later pass
        outdated = cluster.database.outdated_ids(cluster.tuner.version)
        assert len(outdated) == 30
        assert all(cluster.database.lookup(pid).location == "pipestore-0"
                   for pid in outdated)

    def test_repaired_store_relabelled_on_next_pass(self, cluster):
        cluster.finetune(epochs=1)
        cluster.stores[0].fail()
        cluster.offline_relabel()
        cluster.stores[0].repair()
        cluster.tuner.catch_up(cluster.stores[0])
        stats = cluster.offline_relabel()
        assert stats.photos_processed == 30
        assert not cluster.database.outdated_ids(cluster.tuner.version)
