"""The frozen front runs once per photo in the process (DESIGN §12).

Ingest classifies each chunk through the serving cut and leaves the
chunk's split-point rows on the front value (``FrozenFront.held``), keyed
on the content of each photo's 8-bit codes.  A store at that value's own
cut takes a held row on its first ``feat/`` miss instead of running the
front.  Logically nothing moves: a taken row is still a miss — billed to
``busy_seconds``, written as ``feat/``, counted — and it is the row the
front would compute, bit for bit.
"""

import zlib

import numpy as np
import pytest

from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.dataplane import IngestDataPlane
from repro.core.ftdmp import frozen_front_features
from repro.core.pipestore import (
    StoredPhoto,
    StoreUnavailableError,
    softmax_top1,
)
from repro.models.registry import tiny_model
from repro.models.split import SplitModel
from repro.nn.tensor import Tensor, inference_mode
from repro.serving import ServeRequest
from repro.serving.cache import content_key
from repro.storage.compression import inflate
from repro.storage.imageformat import (
    decode_preprocessed,
    model_input,
    quantise,
    stored_codes,
)

#: two ingest chunks at the default batch of 64: one the front runs in
#: FRONT_ROWS sub-batches, one it runs whole
PHOTOS = 70


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def build():
    return NDPipeCluster(factory, ClusterConfig(num_stores=3,
                                                nominal_raw_bytes=2048))


@pytest.fixture
def sample(small_world):
    return small_world.sample(PHOTOS, 0, rng=np.random.default_rng(3))


@pytest.fixture
def landed(sample):
    cluster = build()
    x, y = sample
    return cluster, cluster.ingest(x, train_labels=y)


def held(cluster):
    return cluster.inference_server.model.front.held


def cold(store, ids):
    """The store's front run over its stored codes, nothing reused."""
    objects = store.objects
    inputs = np.stack([
        decode_preprocessed(inflate(objects.peek(objects.preproc_key(pid))))
        for pid in ids])
    return frozen_front_features(store.model, store.split, inputs)


def total(cluster, name):
    return cluster.metrics.get(name).total()


def reused(cluster):
    return total(cluster, "pipestore_feature_rows_reused_total")


class TestTakenRows:
    def test_ingest_holds_one_read_only_row_per_landed_photo(self, landed):
        cluster, ids = landed
        rows = held(cluster)
        assert len(rows) == len(ids) == PHOTOS
        assert all(not row.flags.writeable for row in rows.values())
        assert set(rows) == {
            content_key(stored_codes(store.objects.peek(
                store.objects.preproc_key(pid))))
            for store in cluster.stores for pid in store.photo_ids()}

    def test_a_taken_row_is_the_cold_row_across_partial_hits(self, landed):
        cluster, ids = landed
        for store in cluster.stores:
            mine = store.photo_ids()
            first = store.extract_features(mine[::2])  # every row taken
            both = store.extract_features(mine)  # stored rows, then taken
            ref = cold(store, mine)
            assert first.tobytes() == ref[::2].tobytes()
            assert both.tobytes() == ref.tobytes()
            assert store.busy_seconds == pytest.approx(1e-3 * len(mine))
        assert not held(cluster)
        assert reused(cluster) == len(ids)
        assert total(cluster, "pipestore_feature_misses_total") == len(ids)
        assert total(cluster, "pipestore_feature_hits_total") == sum(
            len(store.photo_ids()[::2]) for store in cluster.stores)

    def test_a_miss_nobody_holds_runs_the_front(self, landed):
        cluster, _ids = landed
        store = cluster.stores[0]
        extra = StoredPhoto(photo_id="extra", train_label=1, codes=quantise(
            np.random.default_rng(9).random((3, 16, 16))))
        store.store_photo(extra)
        mine = store.photo_ids()
        got = store.extract_features(mine)
        assert got.tobytes() == cold(store, mine).tobytes()
        assert reused(cluster) == len(mine) - 1

    def test_a_blob_of_an_older_frame_kind_runs_the_front(self, landed):
        """A ``preproc/`` blob written as level-6 fp32 (the first landing
        path) holds no codes to key on: its photo runs the front."""
        cluster, _ids = landed
        store = cluster.stores[0]
        mine = store.photo_ids()
        key = store.objects.preproc_key(mine[0])
        binary = inflate(store.objects.peek(key))
        store.objects.put(key, b"NDPZ" + zlib.compress(binary, 6))
        got = store.extract_features(mine)
        assert got.tobytes() == cold(store, mine).tobytes()
        assert reused(cluster) == len(mine) - 1

    def test_labels_are_those_of_the_whole_model_forward(self, sample):
        server = build().inference_server
        x, _y = sample
        for count in (1, 32, 33, PHOTOS):
            batch = model_input(quantise(x[:count]))
            with inference_mode():
                whole = softmax_top1(server.model(Tensor(batch)).data)
            results, rows = server.classify_preprocessed(batch,
                                                         with_rows=True)
            assert results == whole
            assert server.classify_preprocessed(batch) == whole
            # the copy was taken before the tail could write over it
            assert not rows.flags.writeable
            assert rows.tobytes() == frozen_front_features(
                server.model, server.split, batch).tobytes()


class TestOnlyItsOwnFrontAndCut:
    def test_a_store_at_another_split_takes_nothing(self, landed):
        cluster, ids = landed
        store = cluster.stores[0]
        front = store.model.front
        store.install_model(checknrun.ReplicaSync({}, 2),
                            version=store.model_version)
        assert store.model.front is front and store.split == 2
        mine = store.photo_ids()
        assert store.extract_features(mine).tobytes() == \
            cold(store, mine).tobytes()
        assert reused(cluster) == 0 and len(held(cluster)) == len(ids)

    def test_a_store_with_another_front_takes_nothing(self, landed):
        cluster, ids = landed
        store = cluster.stores[0]
        front = store.model.front
        state = store.model.state_dict()
        key = sorted(k for k in state if k.startswith("stage_Conv"))[0]
        state = {**state, key: state[key] + 0.05}
        store.install_model(checknrun.ReplicaSync(state, store.split),
                            version=store.model_version + 1)
        assert store.model.front is not front
        mine = store.photo_ids()
        got = store.extract_features(mine)
        assert got.tobytes() == cold(store, mine).tobytes()
        assert reused(cluster) == 0 and len(held(cluster)) == len(ids)


class TestWhatIsHeld:
    def test_finetune_takes_every_row_and_runs_no_front(
            self, landed, monkeypatch):
        cluster, ids = landed
        fronts = []
        real = SplitModel.forward_until

        def counted(self, x, split):
            fronts.append(len(x.data))
            return real(self, x, split)

        monkeypatch.setattr(SplitModel, "forward_until", counted)
        report = cluster.finetune(epochs=1)
        assert report.images_extracted == len(ids)
        assert fronts == []
        assert not held(cluster)
        assert reused(cluster) == len(ids)
        assert total(cluster, "pipestore_feature_misses_total") == len(ids)
        assert sum(s.busy_seconds for s in cluster.stores) == \
            pytest.approx(1e-3 * len(ids))

    def test_a_landing_that_raises_holds_no_row_for_its_photo(
            self, sample, monkeypatch):
        cluster = build()
        x, y = sample
        real = IngestDataPlane.land_upload
        landed = []

        def flaky(self, codes, *rest):
            if len(landed) == 5:
                raise StoreUnavailableError("no PipeStore accepted it")
            photo_id = real(self, codes, *rest)
            landed.append(content_key(codes))
            return photo_id

        monkeypatch.setattr(IngestDataPlane, "land_upload", flaky)
        with pytest.raises(StoreUnavailableError):
            cluster.ingest(x, train_labels=y)
        assert sorted(held(cluster)) == sorted(landed)
        assert len(landed) == 5

    def test_classify_evaluate_and_serving_hold_nothing(self, sample):
        cluster = build()
        x, y = sample
        cluster.inference_server.classify(x[0])
        cluster.evaluate(x, y)
        report, ids = cluster.serve_uploads([
            ServeRequest(request_id=f"r{i}", arrival_s=i * 0.005,
                         pixels=x[i], train_label=int(y[i]))
            for i in range(8)])
        assert ids and len(ids) == report.completed
        assert not held(cluster)


class TestEachBlobReadOnce:
    """A miss reads its photo's ``preproc/`` blob once: the content key
    it looks its held row up by and, when none is held, the front's
    input both come from the same bytes."""

    @staticmethod
    def _one_store(small_world):
        cluster = NDPipeCluster(factory, ClusterConfig(
            num_stores=1, nominal_raw_bytes=2048))
        x, y = small_world.sample(8, 0, rng=np.random.default_rng(3))
        cluster.ingest(x, train_labels=y)
        return cluster, cluster.stores[0]

    @staticmethod
    def _put(store, count):
        codes = quantise(np.random.default_rng(9).random((count, 3, 16, 16)))
        for index in range(count):
            store.store_photo(StoredPhoto(photo_id=f"put{index}",
                                          codes=codes[index]))
        return [f"put{index}" for index in range(count)]

    @staticmethod
    def _read(store, ids):
        """(bytes the extraction read, the ``preproc/`` bytes of ``ids``)."""
        objects = store.objects
        before = objects.bytes_read
        got = store.extract_features(ids)
        assert got.tobytes() == cold(store, ids).tobytes()
        return objects.bytes_read - before, sum(
            len(objects.peek(objects.preproc_key(pid))) for pid in ids)

    def test_taken_and_run_rows_in_one_extraction(self, small_world):
        cluster, store = self._one_store(small_world)
        self._put(store, 1)
        read, blobs = self._read(store, store.photo_ids())
        assert read == blobs == 9 * 785
        assert reused(cluster) == 8

    def test_rows_held_but_none_taken(self, small_world):
        cluster, store = self._one_store(small_world)
        ids = self._put(store, 5)
        read, blobs = self._read(store, ids)
        assert read == blobs == 5 * 785
        assert reused(cluster) == 0 and len(held(cluster)) == 8
