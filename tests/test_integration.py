"""End-to-end integration: the full NDPipe lifecycle on one cluster.

Reproduces the paper's operational story at laptop scale: ingest photos
with online inference, drift the world, fine-tune with pipelined FT-DMP,
redistribute via Check-N-Run, and refresh labels with near-data offline
inference — asserting the headline system invariants along the way.
"""

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.data.loader import normalize_images
from repro.models.registry import tiny_model
from repro.train.fulltrain import full_train


@pytest.fixture(scope="module")
def lifecycle():
    """Run the full lifecycle once; tests assert on the outcome."""
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0,
    ))

    def factory():
        return tiny_model("ResNet50", num_classes=8, width=8, seed=11)

    # pre-train a base model (the training server's biweekly full train)
    base = factory()
    x0, y0 = world.sample(240, 0, rng=np.random.default_rng(1))
    full_train(base, normalize_images(x0), y0, epochs=3, seed=0)
    base_state = base.state_dict()

    def trained_factory():
        model = factory()
        model.load_state_dict(base_state)
        return model

    cluster = NDPipeCluster(trained_factory, ClusterConfig(
        num_stores=4, nominal_raw_bytes=16384, lr=5e-3))

    # day-0 uploads
    x_up, y_up = world.sample(120, 0, rng=np.random.default_rng(2))
    cluster.ingest(x_up, train_labels=y_up)
    baseline_labels = cluster.database.snapshot_labels()

    # two weeks later: drifted uploads arrive
    x_new, y_new = world.sample(120, 14, rng=np.random.default_rng(3))
    cluster.ingest(x_new, train_labels=y_new)

    # accuracy before maintenance
    x_test, y_test = world.sample(240, 14, rng=np.random.default_rng(4))
    before = cluster.evaluate(x_test, y_test)

    # continuous training: pipelined FT-DMP + Check-N-Run distribution
    report = cluster.finetune(epochs=3, num_runs=2)
    after = cluster.evaluate(x_test, y_test)

    # offline relabel campaign near the data
    relabel = cluster.offline_relabel()

    return {
        "cluster": cluster,
        "world": world,
        "report": report,
        "before": before,
        "after": after,
        "relabel": relabel,
        "baseline_labels": baseline_labels,
    }


class TestLifecycle:
    def test_finetune_recovers_accuracy(self, lifecycle):
        assert lifecycle["after"][0] >= lifecycle["before"][0]

    def test_all_photos_relabelled_once(self, lifecycle):
        assert lifecycle["relabel"].photos_processed == 240
        versions = lifecycle["cluster"].database.version_counts()
        assert set(versions) == {1}

    def test_some_labels_fixed(self, lifecycle):
        """The outdated-label phenomenon: the new model changes labels."""
        cluster = lifecycle["cluster"]
        changed = cluster.database.fraction_changed_since(
            lifecycle["baseline_labels"])
        assert changed > 0.0

    def test_feature_traffic_far_below_image_traffic(self, lifecycle):
        kinds = lifecycle["cluster"].traffic_summary()
        assert kinds["features"] < 0.05 * kinds["ingest"]

    def test_delta_distribution_beats_full_models(self, lifecycle):
        tuner = lifecycle["cluster"].tuner
        assert tuner.distributions[-1].reduction_factor > 3
        kinds = lifecycle["cluster"].traffic_summary()
        assert kinds["model-delta"] < kinds["model-full"]

    def test_label_traffic_tiny(self, lifecycle):
        kinds = lifecycle["cluster"].traffic_summary()
        assert kinds["labels"] <= 240 * 64

    def test_replicas_consistent(self, lifecycle):
        cluster = lifecycle["cluster"]
        tuner_state = cluster.tuner.published
        for store in cluster.stores:
            state = store.model.state_dict()
            for key in tuner_state:
                assert np.allclose(state[key], tuner_state[key], atol=1e-12)

    def test_report_covers_all_labelled_photos(self, lifecycle):
        assert lifecycle["report"].images_extracted == 240

    def test_database_search_serves_queries(self, lifecycle):
        db = lifecycle["cluster"].database
        hits = [db.search(label) for label in range(8)]
        assert sum(len(h) for h in hits) == len(db)


class TestSimulatedScaleStory:
    """The headline numbers at full (simulated) scale."""

    def test_inference_scaling_story(self):
        from repro.analysis import perf

        out = perf.fig13_inference_scaling(["ResNet50"])["ResNet50"]
        assert out["per_store_ips"] == pytest.approx(2129, rel=0.02)
        assert out["crossovers"]["P3"] in (5, 6, 7)

    def test_training_energy_story(self):
        """Paper: higher training energy efficiency at BEST (they measure
        up to 2.64x; our linear power model lands lower but the direction
        and ordering hold — see EXPERIMENTS.md)."""
        from repro.analysis import perf

        rows = perf.fig16_training_energy()
        best_gains = [r["gain"] for r in rows if r["point"] == "BEST"]
        assert max(best_gains) > 1.15
        assert all(g > 0.9 for g in best_gains)

    def test_finetune_vs_full_train_speedup(self):
        from repro.models.catalog import model_graph
        from repro.sim.specs import TESLA_V100

        graph = model_graph("ResNet50")
        full_time = 90 * 1.2e6 / (2 * TESLA_V100.full_train_ips(graph))
        tuned_time = 1.2e6 / TESLA_V100.tail_train_ips(graph, 5)
        assert full_time / tuned_time > 300
