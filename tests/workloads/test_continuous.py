"""Tests for the continuous-operation production loop."""

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.driftdetect import NeverPolicy, ScheduledPolicy
from repro.data.loader import normalize_images
from repro.models.registry import tiny_model
from repro.train.fulltrain import full_train
from repro.workloads.continuous import run_continuous_operation


@pytest.fixture(scope="module")
def trained_cluster_factory(small_world=None):
    from repro.data.drift import DriftingPhotoWorld, WorldConfig

    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0,
    ))
    base = tiny_model("ResNet50", num_classes=8, width=8, seed=4)
    x, y = world.sample(180, 0, rng=np.random.default_rng(1))
    full_train(base, normalize_images(x), y, epochs=2, seed=0)
    state = base.state_dict()

    def make():
        def factory():
            model = tiny_model("ResNet50", num_classes=8, width=8, seed=4)
            model.load_state_dict(state)
            return model

        return NDPipeCluster(factory, ClusterConfig(
            num_stores=2, nominal_raw_bytes=4096, lr=5e-3)), world

    return make


class TestContinuousOperation:
    def test_scheduled_policy_updates_and_relabels(self, trained_cluster_factory):
        cluster, world = trained_cluster_factory()
        log = run_continuous_operation(
            cluster, world, ScheduledPolicy(period_days=2),
            horizon_days=4, uploads_per_day=16, eval_size=60,
        )
        assert log.updates == 2
        assert [d.day for d in log.days] == [1, 2, 3, 4]
        updated_days = [d for d in log.days if d.fine_tuned]
        assert all(d.labels_refreshed > 0 for d in updated_days)
        # after a relabel, no stale labels remain that day
        assert all(d.stale_labels == 0 for d in updated_days)

    def test_never_policy_accumulates_stale_labels(self, trained_cluster_factory):
        cluster, world = trained_cluster_factory()
        log = run_continuous_operation(
            cluster, world, NeverPolicy(), horizon_days=3,
            uploads_per_day=12, eval_size=40,
        )
        assert log.updates == 0
        # no model update ever happened, so nothing is stale relative to v0
        assert log.days[-1].stale_labels == 0
        assert 0.0 <= log.mean_top1 <= 1.0

    def test_stale_labels_grow_without_relabel(self, trained_cluster_factory):
        cluster, world = trained_cluster_factory()
        log = run_continuous_operation(
            cluster, world, ScheduledPolicy(period_days=1),
            horizon_days=3, uploads_per_day=10, eval_size=40,
            relabel_after_update=False,
        )
        # each day's uploads were labelled by the previous model version
        assert log.days[-1].stale_labels > 0

    def test_traffic_summary_captured(self, trained_cluster_factory):
        cluster, world = trained_cluster_factory()
        log = run_continuous_operation(
            cluster, world, ScheduledPolicy(period_days=2),
            horizon_days=2, uploads_per_day=10, eval_size=30,
        )
        assert log.traffic_by_kind.get("ingest", 0) > 0
        assert log.traffic_by_kind.get("features", 0) > 0

    def test_validation(self, trained_cluster_factory):
        cluster, world = trained_cluster_factory()
        with pytest.raises(ValueError):
            run_continuous_operation(cluster, world, NeverPolicy(),
                                     horizon_days=0)
        with pytest.raises(ValueError):
            run_continuous_operation(cluster, world, NeverPolicy(),
                                     uploads_per_day=0)
