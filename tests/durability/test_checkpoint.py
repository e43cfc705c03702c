"""Checkpoint framing and full-cluster checkpoint/restore fidelity."""

import numpy as np
import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.durability.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    FinetuneProgress,
    inspect_checkpoint,
    pack_arrays,
    read_frame,
    unpack_arrays,
    write_frame,
)
from repro.models.registry import tiny_model

NUM_PHOTOS = 18


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def fresh_cluster(**kwargs):
    kwargs.setdefault("num_stores", 3)
    kwargs.setdefault("nominal_raw_bytes", 2048)
    kwargs.setdefault("replication", 2)
    return NDPipeCluster(factory, ClusterConfig(**kwargs))


def loaded_cluster(small_world, seed=3, **kwargs):
    cluster = fresh_cluster(**kwargs)
    x, y = small_world.sample(NUM_PHOTOS, 0, rng=np.random.default_rng(seed))
    ids = cluster.ingest(x, train_labels=y)
    return cluster, ids


class TestArrayPacking:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        arrays = {
            "w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=(4,)),
            "i": rng.integers(0, 100, size=(2, 2, 2)),
            "scalar": np.array(7.5),
        }
        out = unpack_arrays(pack_arrays(arrays))
        assert set(out) == set(arrays)
        for key, arr in arrays.items():
            assert out[key].dtype == arr.dtype
            assert out[key].shape == arr.shape
            assert np.array_equal(out[key], arr)

    def test_empty(self):
        assert unpack_arrays(pack_arrays({})) == {}

    def test_truncated_raises(self):
        blob = pack_arrays({"w": np.ones((4, 4))})
        with pytest.raises(CheckpointError):
            unpack_arrays(blob[:-10])

    def test_trailing_garbage_raises(self):
        blob = pack_arrays({"w": np.ones(3)})
        with pytest.raises(CheckpointError):
            unpack_arrays(blob + b"xx")


class TestFrame:
    def test_roundtrip(self):
        manifest = {"hello": [1, 2, 3], "nested": {"a": None}}
        blobs = [b"alpha", b"", b"\x00" * 1000]
        blob = write_frame(manifest, blobs)
        assert blob.startswith(CHECKPOINT_MAGIC)
        out_manifest, out_blobs = read_frame(blob)
        assert out_manifest == manifest
        assert out_blobs == blobs

    def test_bad_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            read_frame(b"XXXX" + b"\x00" * 32)

    def test_bit_flip_anywhere_fails_crc(self):
        blob = bytearray(write_frame({"k": "v"}, [b"payload"]))
        for pos in range(0, len(blob), max(1, len(blob) // 9)):
            damaged = bytearray(blob)
            damaged[pos] ^= 0x01
            with pytest.raises(CheckpointError):
                read_frame(bytes(damaged))

    def test_truncation_fails(self):
        blob = write_frame({"k": "v"}, [b"payload"])
        for cut in (3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointError):
                read_frame(blob[:cut])

    def test_unsupported_version(self):
        blob = bytearray(write_frame({}, []))
        blob[len(CHECKPOINT_MAGIC)] = 99
        import struct
        import zlib
        frame = bytes(blob[:-4])
        resealed = frame + struct.pack(">I", zlib.crc32(frame))
        with pytest.raises(CheckpointError, match="version"):
            read_frame(resealed)


class TestFinetuneProgress:
    def test_roundtrip(self):
        progress = FinetuneProgress(
            num_runs=3, epochs=2, next_run=1,
            run_plan=[{"s0": ["p1"]}, {"s0": ["p2"]}, {"s0": []}],
            report={"num_runs": 3}, relocate_lost=True,
        )
        clone = FinetuneProgress.from_dict(progress.to_dict())
        assert clone == progress
        assert clone.next_run < clone.num_runs


class TestClusterCheckpoint:
    def test_restore_reproduces_every_surface(self, small_world):
        cluster, ids = loaded_cluster(small_world)
        cluster.finetune(epochs=1, num_runs=2)
        cluster.offline_relabel()
        blob = cluster.checkpoint()

        clone = fresh_cluster()
        assert clone.restore(blob) is None

        assert clone.tuner.version == cluster.tuner.version
        for (ka, a), (kb, b) in zip(
                sorted(cluster.tuner.model.state_dict().items()),
                sorted(clone.tuner.model.state_dict().items())):
            assert ka == kb and np.array_equal(a, b)
        assert clone.database.snapshot_labels() == \
            cluster.database.snapshot_labels()
        assert clone.database.version_counts() == \
            cluster.database.version_counts()
        assert clone.replicas.to_dict() == cluster.replicas.to_dict()
        assert clone.journal_size == cluster.journal_size
        for orig, rest in zip(cluster.stores, clone.stores):
            assert rest.model_version == orig.model_version
            assert rest.objects.keys() == orig.objects.keys()
            assert rest.train_labels() == orig.train_labels()
            for key in orig.objects.keys():
                assert rest.objects.peek(key) == orig.objects.peek(key)
                assert rest.objects.stored_crc(key) == \
                    orig.objects.stored_crc(key)

        # the restored cluster keeps working end to end
        report = clone.finetune(epochs=1)
        assert report.images_extracted == NUM_PHOTOS
        assert clone.offline_relabel().photos_processed == NUM_PHOTOS

    def test_restore_preserves_stale_crcs(self, small_world):
        """Corruption that predates a checkpoint must survive restore, so
        a post-restore scrub still finds and repairs it."""
        cluster, _ = loaded_cluster(small_world)
        store = cluster.stores[0]
        key = store.objects.keys("raw/")[0]
        store.objects.corrupt_object(key, b"\x12" * 32)
        blob = cluster.checkpoint()

        clone = fresh_cluster()
        clone.restore(blob)
        assert not clone.stores[0].objects.verify(key)
        report = clone.scrub_and_repair()
        assert report.repaired == [("pipestore-0", key)]
        assert clone.scrub_and_repair().clean

    def test_corrupt_checkpoint_is_rejected(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        blob = bytearray(cluster.checkpoint())
        blob[len(blob) // 2] ^= 0x80
        clone = fresh_cluster()
        with pytest.raises(CheckpointError):
            clone.restore(bytes(blob))

    def test_restore_validates_fleet_shape(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        blob = cluster.checkpoint()
        wrong = NDPipeCluster(factory, ClusterConfig(
            num_stores=2, nominal_raw_bytes=2048))
        with pytest.raises(CheckpointError, match="stores"):
            wrong.restore(blob)

    def test_inspect_summarises_without_restoring(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        cluster.finetune(epochs=1)
        info = inspect_checkpoint(cluster.checkpoint())
        assert info["tuner_version"] == 1
        assert info["num_stores"] == 3
        assert info["store_ids"] == [s.store_id for s in cluster.stores]
        assert info["photos"] == NUM_PHOTOS
        assert info["replication"] == 2
        assert info["pending_finetune"] is None
        assert info["blob_bytes"] > 0

    def test_checkpoint_metrics(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        blob = cluster.checkpoint()
        assert cluster.metrics.get("durability_checkpoints_total").value() == 1
        assert cluster.metrics.get(
            "durability_checkpoint_bytes").value() == len(blob)

    def test_checkpoint_does_not_perturb_io_accounting(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        before = [s.objects.bytes_read for s in cluster.stores]
        cluster.checkpoint()
        assert [s.objects.bytes_read for s in cluster.stores] == before

    def test_mid_finetune_checkpoint_reports_pending(self, small_world):
        cluster, _ = loaded_cluster(small_world)
        sink = {}
        cluster.finetune(epochs=1, num_runs=3,
                         checkpoint_sink=lambda r, b: sink.__setitem__(r, b))
        assert sorted(sink) == [0, 1, 2]
        info = inspect_checkpoint(sink[0])
        assert info["pending_finetune"] == {"next_run": 1, "num_runs": 3}
        progress = fresh_cluster().restore(sink[0])
        assert progress is not None
        assert progress.next_run == 1
        assert progress.next_run < progress.num_runs
