"""Targeted tests for the fault-tolerance machinery in ``repro.core``:
retrying dispatch, version-aware distribution, delta integrity, orphan
re-ingest, and reconciliation after repair."""

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.faults import (
    BitRot,
    DropMessages,
    FaultInjector,
    RetryPolicy,
    StoreCrash,
    StoreRecover,
)
from repro.models.registry import tiny_model


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


@pytest.fixture
def loaded(small_world):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048))
    x, y = small_world.sample(45, 0, rng=np.random.default_rng(2))
    ids = cluster.ingest(x, train_labels=y)
    return cluster, ids


class TestRetriedDispatch:
    def test_dropped_inference_trigger_is_retried(self, loaded):
        cluster, _ = loaded
        cluster.finetune(epochs=1)
        FaultInjector([
            DropMessages(at=1, count=2, kind="inference-request"),
        ]).attach(cluster)
        stats = cluster.offline_relabel()
        assert stats.photos_processed == 45
        assert not stats.degraded
        assert cluster.retry.retries >= 2

    def test_store_recovering_between_attempts_is_reached(self, loaded):
        """Crash on the first dispatch tick, recover one tick later: the
        retry loop reaches the store on its second attempt."""
        cluster, _ = loaded
        cluster.finetune(epochs=1)
        FaultInjector([
            StoreCrash(at=1, store_id="pipestore-0"),
            StoreRecover(at=2, store_id="pipestore-0"),
        ]).attach(cluster)
        stats = cluster.offline_relabel()
        assert stats.photos_processed == 45
        assert not stats.degraded

    def test_dropped_delta_send_is_retried(self, loaded):
        cluster, _ = loaded
        FaultInjector([
            DropMessages(at=1, count=1, kind="model-delta"),
        ]).attach(cluster)
        report = cluster.finetune(epochs=1)
        assert report.skipped_stores == []
        assert report.photos_deferred == report.photos_repartitioned == 0
        dist = cluster.tuner.distributions[-1]
        assert dist.stores_missed == []
        assert all(s.model_version == 1 for s in cluster.stores)

    def test_ingest_rides_out_dropped_transfers(self, small_world):
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=2048))
        FaultInjector([
            DropMessages(at=3, count=2, kind="ingest"),
        ]).attach(cluster)
        x, y = small_world.sample(9, 0, rng=np.random.default_rng(1))
        ids = cluster.ingest(x, train_labels=y)
        assert len(ids) == 9
        assert len(cluster.database) == 9
        assert cluster.network.dropped_count == 2

    def test_custom_retry_policy_is_threaded_through(self, small_world):
        policy = RetryPolicy(max_attempts=7, base_delay_s=0.001)
        cluster = NDPipeCluster(factory, ClusterConfig(num_stores=2),
                                retry_policy=policy)
        assert cluster.tuner.retry is policy
        x, y = small_world.sample(6, 0, rng=np.random.default_rng(1))
        FaultInjector([
            DropMessages(at=1, count=5, kind="ingest"),
        ]).attach(cluster)
        cluster.ingest(x, train_labels=y)
        # 5 consecutive drops would exhaust the default 4-attempt policy;
        # the 7-attempt policy placed every photo without evictions
        assert policy.retries >= 5
        assert len(cluster.database) == 6


class TestVersionAwareDistribution:
    def test_stale_store_gets_full_resync_not_delta(self, loaded):
        """A store that missed round 1 must not have round 2's delta
        (encoded against base v1) applied to its v0 replica."""
        cluster, _ = loaded
        behind = cluster.stores[2]
        behind.fail()
        cluster.finetune(epochs=1)  # round 1: behind misses v1
        behind.repair()
        report = cluster.finetune(epochs=1)  # round 2: behind is at v0
        assert not report.skipped_stores
        dist = cluster.tuner.distributions[-1]
        assert dist.stores_resynced == ["pipestore-2"]
        assert dist.stores_missed == []
        assert behind.model_version == 2
        tuner_state = cluster.tuner.published
        for key, value in behind.model.state_dict().items():
            assert np.allclose(value, tuner_state[key], atol=1e-12), key

    def test_distribution_stats_degraded_flag(self):
        """A round's degradation is its three store lists, each its own:
        marking one round's miss marks no other round."""
        from repro.core.tuner import DistributionStats

        def fresh():
            return DistributionStats(version=1, full_model_bytes=10,
                                     bytes_per_store=5, used_delta=True)

        clean, missed = fresh(), fresh()
        missed.stores_missed.append("s0")
        assert (clean.stores_missed, clean.stores_resynced,
                clean.stores_fenced) == ([], [], [])
        assert missed.stores_missed == ["s0"]


class TestDeltaIntegrity:
    def _states(self):
        old = {"w": np.arange(64, dtype=np.float64).reshape(8, 8),
               "b": np.zeros(8)}
        new = {"w": old["w"] + 0.5, "b": old["b"] - 1.0}
        return old, new

    def test_roundtrip_still_exact(self):
        old, new = self._states()
        blob = checknrun.encode_delta(old, new)
        out = checknrun.apply_delta(old, blob)
        for key in new:
            assert np.array_equal(out[key], new[key])

    def test_corrupt_blob_raises_loudly(self):
        old, new = self._states()
        blob = bytearray(checknrun.encode_delta(old, new))
        blob[-1] ^= 0xFF  # flip a bit in the compressed body
        with pytest.raises(checknrun.DeltaError, match="checksum"):
            checknrun.apply_delta(old, bytes(blob))

    def test_corrupt_checksum_field_raises(self):
        old, new = self._states()
        blob = bytearray(checknrun.encode_delta(old, new))
        blob[9] ^= 0x01  # the stored crc32 itself
        with pytest.raises(checknrun.DeltaError, match="checksum"):
            checknrun.apply_delta(old, bytes(blob))

    def test_truncated_blob_raises(self):
        with pytest.raises(checknrun.DeltaError, match="truncated"):
            checknrun.apply_delta({}, b"CNR2\x00\x00\x00")

    def test_old_wire_version_rejected(self):
        # CNR1 blobs (float64 arithmetic diffs) must fail loudly, not be
        # misparsed by the CNR2 reader
        with pytest.raises(checknrun.DeltaError, match="magic"):
            checknrun.apply_delta({}, b"CNR1" + b"\x00" * 16)


class TestOrphanReingest:
    def test_reingest_moves_journalled_photos(self, loaded):
        cluster, ids = loaded
        dead = cluster.stores[0]
        orphans = cluster.database.ids_at("pipestore-0")
        dead.fail()
        moved = cluster.reingest_orphans("pipestore-0")
        assert sorted(moved) == orphans
        for pid in moved:
            record = cluster.database.lookup(pid)
            assert record.location != "pipestore-0"
            new_store = next(s for s in cluster.stores
                             if s.store_id == record.location)
            assert new_store.objects.exists(new_store.objects.raw_key(pid))
            assert new_store.has_train_label(pid)

    def test_reingest_is_idempotent(self, loaded):
        cluster, _ = loaded
        cluster.stores[0].fail()
        first = cluster.reingest_orphans("pipestore-0")
        assert first
        assert cluster.reingest_orphans("pipestore-0") == []

    def test_recover_reconciles_moved_photos(self, loaded):
        cluster, ids = loaded
        dead = cluster.stores[0]
        stranded = set(cluster.database.ids_at("pipestore-0"))
        dead.fail()
        cluster.reingest_orphans("pipestore-0")
        cluster.finetune(epochs=1)
        cluster.recover("pipestore-0")
        # the stale copies were evicted: no photo is trainable twice
        assert not (set(dead.photo_ids()) & stranded)
        assert not any(dead.has_train_label(pid) for pid in stranded)
        assert dead.model_version == cluster.tuner.version
        # fleet-wide label accounting is still exact
        total = sum(len(cluster.database.ids_at(s.store_id))
                    for s in cluster.stores)
        assert total == len(ids)

    def test_recover_unknown_store_raises(self, loaded):
        cluster, _ = loaded
        with pytest.raises(KeyError):
            cluster.recover("pipestore-9")


class TestRelabelSkipAccounting:
    """Regression for the silent-skip bug: ``offline_relabel`` used to
    drop unavailable stores from the campaign without a trace."""

    def test_skip_is_visible_in_stats(self, loaded):
        cluster, _ = loaded
        cluster.finetune(epochs=1)
        cluster.stores[1].fail()
        stats = cluster.offline_relabel()
        assert stats.stores_skipped == ["pipestore-1"]
        assert stats.photos_deferred == 15
        assert stats.degraded
        assert stats.photos_processed == 30

    def test_healthy_campaign_reports_clean(self, loaded):
        cluster, _ = loaded
        cluster.finetune(epochs=1)
        stats = cluster.offline_relabel()
        assert stats.stores_skipped == []
        assert stats.photos_deferred == 0
        assert not stats.degraded

    def test_deferred_photos_relabel_after_repair(self, loaded):
        cluster, _ = loaded
        cluster.finetune(epochs=1)
        cluster.stores[1].fail()
        cluster.offline_relabel()
        cluster.recover("pipestore-1")
        stats = cluster.offline_relabel()
        assert stats.photos_processed == 15
        assert not stats.degraded
        assert cluster.database.outdated_ids(cluster.tuner.version) == []


class TestAccountedCompute:
    def test_slowdown_scales_busy_seconds(self, loaded):
        """Busy seconds charge the images whose front ran, so healthy and
        degraded are measured on disjoint cold ids."""
        cluster, _ = loaded
        store = cluster.stores[0]
        ids = store.photo_ids()
        store.busy_seconds = 0.0
        store.offline_infer(ids[:5])
        healthy = store.busy_seconds
        assert healthy > 0
        store.slowdown = 3.0
        store.busy_seconds = 0.0
        store.offline_infer(ids[5:10])
        assert store.busy_seconds == pytest.approx(3.0 * healthy)
        store.offline_infer(ids[:10])  # warm: no front pass, nothing charged
        assert store.busy_seconds == pytest.approx(3.0 * healthy)

    def test_recover_resets_slowdown(self, loaded):
        cluster, _ = loaded
        store = cluster.stores[0]
        store.slowdown = 4.0
        store.fail()
        cluster.recover(store)
        assert store.slowdown == 1.0


class TestRottedDerivedFeature:
    """A ``feat/`` object is recomputable: rot costs a front pass, never a
    donor fetch, an unrecoverable object or a failed job."""

    def _rot_one_feature(self, cluster):
        store = cluster.stores[0]
        ids = store.photo_ids()
        before = store.extract_features(ids)
        key = store.objects.feature_key(ids[2])
        injector = FaultInjector([
            BitRot(at=1, store_id=store.store_id, key=key),
        ]).attach(cluster)
        cluster.network.send("a", "b", 1, "tick")
        injector.detach()
        assert injector.corrupted == [(store.store_id, key)]
        assert not store.objects.verify(key)
        return store, ids, key, before

    def test_scrub_heals_it_by_deletion(self, loaded):
        cluster, _ = loaded
        store, ids, key, before = self._rot_one_feature(cluster)
        traffic = cluster.traffic_summary()
        report = cluster.scrub_and_repair()
        assert report.corrupt_found == 1
        assert report.repaired == [(store.store_id, key)]
        assert report.unrecoverable == [] and report.restored == []
        assert cluster.traffic_summary() == traffic  # zero fabric bytes
        assert not store.objects.exists(key)
        assert cluster.scrub_and_repair().clean
        busy = store.busy_seconds
        np.testing.assert_allclose(store.extract_features(ids), before,
                                   rtol=0, atol=2e-6 * np.abs(before).max())
        assert store.busy_seconds - busy == pytest.approx(1e-3)
        assert store.objects.verify(key)
        # in the batch it was first computed in, bit for bit
        for stored in store.objects.keys("feat/"):
            store.objects.delete(stored)
        np.testing.assert_array_equal(store.extract_features(ids), before)

    def test_rot_on_the_hit_path_does_not_fail_the_round(self, loaded):
        cluster, _ = loaded
        store, _ids, key, _before = self._rot_one_feature(cluster)
        report = cluster.finetune(epochs=1)
        assert report.images_extracted == 45
        assert report.skipped_stores == []
        assert report.photos_deferred == report.photos_repartitioned == 0
        assert store.objects.verify(key)  # rewritten by the miss
        assert cluster.scrub_and_repair().clean
