"""Tuner HA: bit-exact failover, epoch fencing, checkpoint shipping.

The acceptance scenario: a seeded schedule crashes the primary Tuner
mid-fine-tune; the controller suspects it, promotes the warm standby
under a fresh epoch, and the interrupted FT-DMP lifecycle completes
automatically — with **zero** acknowledged-upload loss and final model
weights identical, bit for bit, to a run that never saw the fault.
"""

import numpy as np
import pytest

from repro.core.checknrun import ReplicaSync
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.faults import (
    FaultInjector,
    StaleEpochError,
    TunerCrash,
    TunerCrashError,
    TunerRecover,
)
from repro.ha import PRIMARY_MEMBER, HAConfig
from repro.models.registry import tiny_model

NUM_PHOTOS = 18


def build_cluster(seed=0):
    world = DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3,
        seed=seed))
    cluster = NDPipeCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ClusterConfig(num_stores=3, nominal_raw_bytes=8192, seed=seed))
    x, y = world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(seed + 1))
    ids = cluster.ingest(x, train_labels=y)
    return cluster, ids


def crash_mid_finetune(seed=0):
    """Run the acceptance schedule: crash the primary inside run 1.

    Ingest happens before the injector attaches, so the clock counts
    only HA + training traffic: the initial standby seed is tick 1 and
    run boundaries ship at ticks 5/9/13 — tick 7 lands mid-run-1.
    """
    cluster, ids = build_cluster(seed)
    injector = FaultInjector(
        [TunerCrash(at=7, tuner_id="tuner")]).attach(cluster)
    ha = cluster.enable_ha(injector=injector)
    with pytest.raises(TunerCrashError):
        cluster.finetune(epochs=1, num_runs=3)
    events = ha.poll_until_quiet()
    assert ("suspect", PRIMARY_MEMBER) in events
    report = ha.resume_pending()
    return cluster, ha, ids, report


class TestFailover:
    def test_failover_completes_bit_exact(self):
        baseline, _ = build_cluster()
        baseline.finetune(epochs=1, num_runs=3)
        expected = baseline.tuner.model.state_dict()

        cluster, ha, ids, report = crash_mid_finetune()
        assert report is not None  # the interrupted lifecycle finished
        assert cluster.tuner.name == "tuner-standby"
        assert cluster.tuner.epoch == 1
        assert cluster.tuner.version == baseline.tuner.version
        assert ha.metrics.failovers.value() == 1
        got = cluster.tuner.model.state_dict()
        assert set(got) == set(expected)
        for key in expected:
            assert np.array_equal(expected[key], got[key]), key

    def test_two_same_seed_runs_identical(self):
        c1 = crash_mid_finetune()[0]
        c2 = crash_mid_finetune()[0]
        w1, w2 = c1.tuner.model.state_dict(), c2.tuner.model.state_dict()
        for key in w1:
            assert np.array_equal(w1[key], w2[key]), key

    def test_zero_acknowledged_upload_loss(self):
        cluster, _, ids, _ = crash_mid_finetune()
        assert len(ids) == NUM_PHOTOS
        for pid in ids:
            assert pid in cluster.database
            store = cluster.stores[cluster.database.lookup(pid).location]
            assert store.objects.exists(store.objects.raw_key(pid))

    def test_resume_is_pending_from_the_last_shipped_boundary(self):
        _, ha, _, _ = crash_mid_finetune()
        assert ha.pending_resume is None  # consumed by resume_pending

    def test_promotion_requires_a_shipped_frame(self):
        cluster, _ = build_cluster()
        ha = cluster.enable_ha()
        ha.failover.last_frame = None
        with pytest.raises(RuntimeError, match="no checkpoint"):
            ha.failover.promote()
        assert not ha.failover.can_promote()


class TestFencing:
    def finished_failover(self):
        cluster, ha, _, _ = crash_mid_finetune()
        # recover the deposed primary's node so its traffic flows again
        ha.injector.advance(60)  # past nothing: schedule is spent
        ha.injector._fire(TunerRecover(at=0, tuner_id="tuner"))
        old_primary = ha.failover.standby  # demoted at promotion
        assert old_primary.name == "tuner"
        return cluster, ha, old_primary

    def test_stale_epoch_updates_are_fenced(self):
        cluster, ha, old_primary = self.finished_failover()
        assert old_primary.epoch == 0 < cluster.tuner.epoch
        before = {s.store_id: s.model_version for s in cluster.stores}
        stats = old_primary.distribute_update()
        assert sorted(stats.stores_fenced) == sorted(before)
        # split-brain did not corrupt any store replica
        for store in cluster.stores:
            assert store.model_version == before[store.store_id]
            assert store.accepted_epoch == cluster.tuner.epoch
        assert ha.metrics.fenced_updates.value(node="tuner") == len(before)

    def test_store_fence_rejects_regressing_epochs(self):
        cluster, _ = build_cluster()
        store = cluster.stores[0]
        whole = ReplicaSync(cluster.tuner.model.state_dict(), store.split)
        store.install_model(whole, version=store.model_version, epoch=3)
        with pytest.raises(StaleEpochError):
            store.install_model(whole, version=store.model_version, epoch=2)
        assert store.accepted_epoch == 3


class TestCheckpointShipping:
    def test_every_run_boundary_ships_a_frame(self):
        cluster, _ = build_cluster()
        ha = cluster.enable_ha()
        shipped = ha.metrics.checkpoints_shipped.value()
        cluster.finetune(epochs=1, num_runs=3)
        # 3 boundaries + 1 post-distribution frame
        assert ha.metrics.checkpoints_shipped.value() == shipped + 4
        assert ha.metrics.checkpoint_bytes.value() > 0

    def test_shipping_skips_a_dead_standby(self):
        cluster, _ = build_cluster()
        ha = cluster.enable_ha()
        frame = ha.failover.last_frame
        ha.failover.standby.fail()
        assert ha.failover.ship_checkpoint(None) == 0
        assert ha.failover.last_frame is frame  # kept the last good frame
        assert not ha.failover.can_promote()

    def test_standby_disabled_by_config(self):
        cluster, _ = build_cluster()
        ha = cluster.enable_ha(HAConfig(standby=False))
        assert ha.failover is None
        assert ha.tuners() == [cluster.tuner]
        cluster.finetune(epochs=1, num_runs=1)  # ship hook is a no-op
