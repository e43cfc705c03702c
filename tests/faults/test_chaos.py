"""Chaos suite: seeded random fault schedules against the full cluster.

Each scenario replays a deterministic schedule (crashes, recoveries,
message drops, latency, accelerator slowdowns) generated by
``FaultInjector.random_schedule`` while the cluster runs its three flows —
ingest, FT-DMP fine-tune, offline relabel — end to end.  The invariants:

* nothing raises out of the flows (faults degrade, never crash);
* no photo or label is ever lost — every ingested photo keeps exactly one
  database record whose location actually holds the photo once the fleet
  is healthy again;
* accounting is exact — every photo in a campaign is either processed or
  reported as deferred, and every dropped transfer is counted;
* after repairing the fleet, one relabel pass converges the database to
  the latest model version.

Schedules are pure functions of their seed, so a passing seed passes
forever; failures replay bit-identically.
"""

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.faults import FaultInjector, StoreCrash
from repro.models.registry import tiny_model

NUM_STORES = 3
NUM_PHOTOS = 45


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def fresh_cluster():
    return NDPipeCluster(factory, ClusterConfig(
        num_stores=NUM_STORES, nominal_raw_bytes=2048))


def heal_fleet(cluster, injector):
    """Detach the injector and bring every store back to full health."""
    injector.detach()
    for store in cluster.stores:
        cluster.recover(store)


def assert_no_photo_lost(cluster, photo_ids):
    """Every ingested photo: one DB record, physically present at its
    recorded location (call only on a healthy fleet)."""
    assert len(cluster.database) == len(photo_ids)
    by_id = {s.store_id: s for s in cluster.stores}
    for pid in photo_ids:
        record = cluster.database.lookup(pid)
        store = by_id[record.location]
        assert store.objects.exists(store.objects.raw_key(pid)), pid
        assert store.objects.exists(store.objects.preproc_key(pid)), pid
        assert store.has_train_label(pid), pid


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_full_flow_survives_random_schedule(small_world, seed):
    cluster = fresh_cluster()
    schedule = FaultInjector.random_schedule(
        [s.store_id for s in cluster.stores], horizon=120, seed=seed)
    injector = FaultInjector(schedule).attach(cluster)

    x, y = small_world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(seed))
    photo_ids = cluster.ingest(x, train_labels=y)
    assert len(photo_ids) == NUM_PHOTOS

    report = cluster.finetune(epochs=1, relocate_lost=True)
    # exact accounting: every labelled photo was extracted or deferred
    assert report.images_extracted + report.photos_deferred == NUM_PHOTOS
    assert cluster.tuner.version == 1

    stats = cluster.offline_relabel()
    outdated = len(cluster.database.outdated_ids(cluster.tuner.version))
    assert stats.photos_processed + stats.photos_deferred == NUM_PHOTOS
    assert stats.photos_deferred == outdated

    # every drop the injector made is visible on the fabric
    assert cluster.network.dropped_count == len(injector.dropped)

    heal_fleet(cluster, injector)
    final = cluster.offline_relabel()
    assert not final.degraded
    assert cluster.database.outdated_ids(cluster.tuner.version) == []
    assert cluster.database.version_counts() == {1: NUM_PHOTOS}
    assert_no_photo_lost(cluster, photo_ids)


@pytest.mark.parametrize("seed", [7, 11])
def test_repeated_rounds_under_chaos_converge(small_world, seed):
    """Two full train/relabel rounds under one long schedule still end in
    a consistent, fully converged database."""
    cluster = fresh_cluster()
    injector = FaultInjector(FaultInjector.random_schedule(
        [s.store_id for s in cluster.stores], horizon=200, seed=seed,
        num_events=10)).attach(cluster)
    x, y = small_world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(seed))
    photo_ids = cluster.ingest(x, train_labels=y)

    for _ in range(2):
        cluster.finetune(epochs=1, relocate_lost=True)
        cluster.offline_relabel()
    assert cluster.tuner.version == 2

    heal_fleet(cluster, injector)
    cluster.offline_relabel()
    assert cluster.database.version_counts() == {2: NUM_PHOTOS}
    assert_no_photo_lost(cluster, photo_ids)


class TestSingleCrashAcceptance:
    """The issue's acceptance scenario: one PipeStore crashes mid-run."""

    def _loaded(self, small_world):
        cluster = fresh_cluster()
        x, y = small_world.sample(NUM_PHOTOS, 0,
                                  rng=np.random.default_rng(2))
        ids = cluster.ingest(x, train_labels=y)
        return cluster, ids

    def test_finetune_completes_and_reports_degradation(self, small_world):
        cluster, ids = self._loaded(small_world)
        # tick 2 lands between the first and second feature transfers:
        # the crash genuinely fires *inside* the fine-tuning gather loop
        injector = FaultInjector([
            StoreCrash(at=2, store_id="pipestore-2")]).attach(cluster)

        report = cluster.finetune(epochs=1, relocate_lost=True)
        assert injector.crashed_stores() == ["pipestore-2"]
        assert report.skipped_stores == ["pipestore-2"]
        # the lost shard was re-placed onto survivors and still trained
        assert report.photos_repartitioned == 15
        assert report.photos_deferred == 0
        assert report.images_extracted == NUM_PHOTOS
        # distribution missed the dead store
        dist = cluster.tuner.distributions[-1]
        assert dist.stores_missed == ["pipestore-2"]

        stats = cluster.offline_relabel()
        assert stats.photos_processed == NUM_PHOTOS
        assert not stats.degraded  # every photo now lives on a survivor

        heal_fleet(cluster, injector)
        assert cluster.stores[2].model_version == cluster.tuner.version
        final = cluster.offline_relabel()
        assert not final.degraded
        assert cluster.database.version_counts() == {1: NUM_PHOTOS}
        assert_no_photo_lost(cluster, ids)

    def test_without_relocation_shard_is_deferred_not_lost(self, small_world):
        cluster, ids = self._loaded(small_world)
        injector = FaultInjector([
            StoreCrash(at=2, store_id="pipestore-2")]).attach(cluster)

        report = cluster.finetune(epochs=1)  # relocate_lost=False
        assert report.photos_deferred == 15
        assert report.images_extracted == NUM_PHOTOS - 15

        stats = cluster.offline_relabel()
        assert stats.degraded
        assert stats.stores_skipped == ["pipestore-2"]
        assert stats.photos_deferred == 15

        heal_fleet(cluster, injector)
        final = cluster.offline_relabel()
        assert final.photos_processed == 15
        assert cluster.database.outdated_ids(cluster.tuner.version) == []
        assert_no_photo_lost(cluster, ids)

    def test_crash_during_relabel_defers_that_store(self, small_world):
        cluster, ids = self._loaded(small_world)
        cluster.finetune(epochs=1)
        # the relabel campaign sends request+labels per store; tick 3 is
        # mid-campaign, after pipestore-0 completed
        injector = FaultInjector([
            StoreCrash(at=3, store_id="pipestore-1")]).attach(cluster)

        stats = cluster.offline_relabel()
        assert stats.stores_skipped == ["pipestore-1"]
        assert stats.photos_processed == NUM_PHOTOS - 15
        assert stats.photos_deferred == 15

        heal_fleet(cluster, injector)
        assert cluster.offline_relabel().photos_processed == 15
        assert cluster.database.version_counts() == {1: NUM_PHOTOS}

    def test_crash_during_ingest_places_everything_on_survivors(
            self, small_world):
        cluster = fresh_cluster()
        injector = FaultInjector([
            StoreCrash(at=10, store_id="pipestore-0")]).attach(cluster)
        x, y = small_world.sample(30, 0, rng=np.random.default_rng(4))
        ids = cluster.ingest(x, train_labels=y)
        assert len(ids) == 30
        assert injector.crashed_stores() == ["pipestore-0"]
        locations = {cluster.database.lookup(pid).location for pid in ids}
        # photos ingested after the crash all landed on survivors
        late = [cluster.database.lookup(pid).location for pid in ids[10:]]
        assert "pipestore-0" not in late
        assert locations <= {s.store_id for s in cluster.stores}

        heal_fleet(cluster, injector)
        assert_no_photo_lost(cluster, ids)
