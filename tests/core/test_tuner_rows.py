"""The Tuner's row store: a feature row crosses the fabric once.

The Tuner keeps each photo's wire record under the key of what the row
was made from — the owning store's front digest at its split and the
stored CRC of the photo's ``preproc/`` blob — and asks a store only for
the rows it does not hold under their key.  Held records decode through
the same per-row ``dequantize``, so a Tuner that keeps its rows trains
bit for bit like a cold one that re-fetches every row each round; only
the ``features`` bytes differ.  Fault handling reads the store, not the
row store: a down store is skipped, relocated or deferred whatever the
Tuner holds of its shard.
"""

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.ftdmp import FeatureRows, FinetuneReport
from repro.core.pipestore import PipeStore, StoredPhoto
from repro.models.registry import tiny_model
from repro.storage.imageformat import quantise

PHOTOS = 36


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


def other_base():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=8)


def fresh(world):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=3, nominal_raw_bytes=2048, seed=1))
    x, y = world.sample(PHOTOS, 0, rng=np.random.default_rng(3))
    cluster.ingest(x, train_labels=y)
    return cluster


def pair(world):
    """Two identical clusters: one keeps its rows, one is made cold
    before every round."""
    return fresh(world), fresh(world)


def train(cluster, cold=False, **kwargs):
    """One fine-tune round: ``(report, features bytes it put on the
    fabric)``; a ``cold`` Tuner drops every held row first."""
    if cold:
        cluster.tuner.rows.clear()
    before = cluster.network.bytes_of_kind("features")
    report = cluster.finetune(epochs=2, num_runs=2, **kwargs)
    return report, cluster.network.bytes_of_kind("features") - before


def shipped(report):
    return report.images_extracted - report.rows_held


@pytest.fixture
def asked(monkeypatch):
    """Every photo id a store is asked to extract, in call order."""
    calls = []
    extract = PipeStore.extract_features

    def spy(store, photo_ids):
        calls.extend(photo_ids)
        return extract(store, photo_ids)

    monkeypatch.setattr(PipeStore, "extract_features", spy)
    return calls


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def assert_trained_alike(warm, cold):
    """Master, published state and Adam moments equal bit for bit."""
    for mine, theirs in ((warm.tuner.model.state_dict(),
                          cold.tuner.model.state_dict()),
                         (warm.tuner.published, cold.tuner.published)):
        assert sorted(mine) == sorted(theirs)
        for key in mine:
            assert same_bytes(mine[key], theirs[key]), key
    a, b = warm.tuner._optimizer, cold.tuner._optimizer
    assert a._t == b._t
    for mine, theirs in zip(a._m + a._v, b._m + b._v):
        assert same_bytes(mine, theirs)


def assert_same_report(warm, cold):
    for name in ("images_extracted", "skipped_stores",
                 "photos_repartitioned", "photos_deferred"):
        assert getattr(warm, name) == getattr(cold, name), name
    assert [e.loss for e in warm.epochs] == [e.loss for e in cold.epochs]


def record_size(cluster):
    store = cluster.stores[0]
    pid = store.labeled_photo_ids()[0]
    return FeatureRows.encode(store.extract_features([pid])).wire_size()


class TestAgainstAColdTuner:
    def test_three_rounds_with_an_ingest(self, small_world, asked):
        warm, cold = pair(small_world)
        new_x, new_y = small_world.sample(12, 1,
                                          rng=np.random.default_rng(4))
        size = record_size(warm)
        for index in range(1, 4):
            if index == 3:
                new_ids = warm.ingest(new_x, train_labels=new_y)
                assert cold.ingest(new_x, train_labels=new_y) == new_ids
            asked.clear()
            report, sent = train(warm)
            warm_asked = list(asked)
            cold_report, cold_sent = train(cold, cold=True)
            assert_same_report(report, cold_report)
            assert_trained_alike(warm, cold)
            assert cold_report.rows_held == 0
            if index == 1:
                assert shipped(report) == PHOTOS
            elif index == 2:
                assert shipped(report) == 0 and warm_asked == []
                assert sent == report.feature_bytes == 0
            else:
                assert shipped(report) == len(new_ids)
                assert sorted(warm_asked) == sorted(new_ids)
            assert report.images_extracted == len(warm.database)
            assert sent == report.feature_bytes == shipped(report) * size
            assert cold_sent == report.images_extracted * size
        warm.offline_relabel(only_outdated=False)
        cold.offline_relabel(only_outdated=False)
        for pid in warm.database.snapshot_labels():
            mine, theirs = warm.database.lookup(pid), cold.database.lookup(pid)
            assert (mine.label, mine.confidence) == \
                (theirs.label, theirs.confidence), pid


def reprovision(cluster, store):
    """Put ``store``'s replica onto another front (the published
    classifier kept) through the one receiver of whole-state syncs."""
    build = other_base().freeze_features()
    tuner = cluster.tuner
    state = {**tuner.published, **build.front.arrays}
    _tail, whole = checknrun.replica_syncs(state, tuner.split, build.front)
    store.install_model(whole, store.model_version, epoch=tuner.epoch,
                        base=build)
    assert store.model.front is build.front


def reupload(cluster, store, photo_id):
    """Store new pixels under ``photo_id`` (same label): its
    ``preproc/`` blob, and so the blob's CRC, changes."""
    pixels = np.random.default_rng(5).random((3, 16, 16))
    before = store.objects.stored_crc(store.objects.preproc_key(photo_id))
    store.store_photo(StoredPhoto(photo_id, quantise(pixels),
                                  train_label=store.train_label(photo_id)))
    assert store.objects.stored_crc(
        store.objects.preproc_key(photo_id)) != before


class TestReKeyedRowsAreAskedAgain:
    def test_a_store_on_another_front(self, small_world, asked):
        warm, cold = pair(small_world)
        train(warm)
        train(cold, cold=True)
        for cluster in (warm, cold):
            reprovision(cluster, cluster.stores[1])
        asked.clear()
        report, _sent = train(warm)
        assert sorted(asked) == warm.stores[1].labeled_photo_ids()
        assert shipped(report) == len(asked)
        cold_report, _ = train(cold, cold=True)
        assert_same_report(report, cold_report)
        assert_trained_alike(warm, cold)

    def test_a_photo_whose_preproc_blob_changed(self, small_world, asked):
        warm, cold = pair(small_world)
        train(warm)
        train(cold, cold=True)
        pid = warm.stores[2].labeled_photo_ids()[3]
        for cluster in (warm, cold):
            reupload(cluster, cluster.stores[2], pid)
        asked.clear()
        report, sent = train(warm)
        assert asked == [pid]
        assert shipped(report) == 1 and sent == record_size(warm)
        cold_report, _ = train(cold, cold=True)
        assert_same_report(report, cold_report)
        assert_trained_alike(warm, cold)


class TestHeldBytes:
    def test_held_bytes_follow_the_plan(self, small_world):
        cluster = fresh(small_world)
        tuner = cluster.tuner
        held = cluster.metrics.get("ftdmp_feature_rows_held_bytes")
        reused = cluster.metrics.get("ftdmp_feature_rows_reused_total")
        size = record_size(cluster)
        train(cluster)
        assert len(tuner.rows) == PHOTOS
        assert tuner.rows.nbytes == held.value() == PHOTOS * size
        assert reused.value() == 0
        report, _ = train(cluster)
        assert reused.value() == report.rows_held == PHOTOS
        subset = {store.store_id: store.labeled_photo_ids()[:2]
                  for store in cluster.stores}
        report = tuner.finetune(assignments=subset, epochs=1)
        assert report.rows_held == 6 and shipped(report) == 0
        assert len(tuner.rows) == 6
        assert tuner.rows.nbytes == held.value() == 6 * size
        assert reused.value() == PHOTOS + 6

    def test_never_checkpointed(self, small_world):
        cluster = fresh(small_world)
        train(cluster)
        blob = cluster.checkpoint()
        assert len(cluster.tuner.rows) == PHOTOS
        cluster.tuner.rows.clear()
        assert cluster.checkpoint() == blob
        clone = NDPipeCluster(factory, ClusterConfig(
            num_stores=3, nominal_raw_bytes=2048, seed=1))
        clone.restore(blob)
        assert len(clone.tuner.rows) == 0
        report, _ = train(clone)
        assert shipped(report) == PHOTOS

    def test_import_training_state_empties_the_store(self, small_world):
        cluster = fresh(small_world)
        train(cluster)
        tuner = cluster.tuner
        tuner.import_training_state(tuner.export_training_state())
        assert len(tuner.rows) == 0
        assert cluster.metrics.get(
            "ftdmp_feature_rows_held_bytes").value() == 0


class TestADownStoreIsStillSkipped:
    """Every row of the dead store's shard is held; its labels are not."""

    @pytest.mark.parametrize("relocate_lost", [False, True])
    def test_skipped_relocated_or_deferred_as_cold(self, small_world,
                                                   relocate_lost):
        warm, cold = pair(small_world)
        train(warm)
        train(cold, cold=True)
        victim = warm.stores[1].store_id
        lost = len(warm.stores[1].labeled_photo_ids())
        for cluster in (warm, cold):
            cluster.stores[victim].fail()
        report, sent = train(warm, relocate_lost=relocate_lost)
        cold_report, _ = train(cold, cold=True,
                               relocate_lost=relocate_lost)
        assert report.skipped_stores == [victim]
        if relocate_lost:
            assert report.photos_repartitioned == lost
            assert report.photos_deferred == 0
        else:
            assert report.photos_deferred == lost
            assert report.images_extracted == PHOTOS - lost
        assert_same_report(report, cold_report)
        assert_trained_alike(warm, cold)
        # a re-placed photo keeps its preproc/ bytes, so its row its key
        assert sent == 0 and shipped(report) == 0


class TestTheRecord:
    def test_wire_bytes_round_trip(self, rng):
        message = FeatureRows.encode(
            rng.standard_normal((5, 4, 2, 2)).astype(np.float32))
        back = FeatureRows.from_bytes(message.to_bytes(), message.row_shape)
        assert back.wire_size() == message.wire_size()
        assert same_bytes(back.decode(), message.decode())
        assert back.to_bytes() == message.to_bytes()

    def test_report_carries_rows_held(self):
        report = FinetuneReport(num_runs=2, split=3, images_extracted=10,
                                rows_held=7)
        data = report.to_dict()
        assert FinetuneReport.from_dict(data).rows_held == 7
        del data["rows_held"]  # written before the Tuner held rows
        assert FinetuneReport.from_dict(data).rows_held == 0
