"""Snapshot/restore tests for the storage substrate."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.objectstore import ObjectStore, Volume, payload_length
from repro.storage.persistence import (
    SnapshotError,
    dump_object_store,
    dump_photo_database,
    load_object_store,
    load_photo_database,
)
from repro.storage.photodb import LabelRecord, PhotoDatabase

keys = st.builds(str.__add__, st.sampled_from(["raw/", "preproc/", "feat/", ""]),
                 st.text(alphabet="abcdef/", min_size=1, max_size=12))
#: zeros inside, at the end, alone, or not at all; b"" included
zero_tailed_blobs = st.builds(
    lambda body, zeros: body + bytes(zeros),
    st.binary(max_size=64) | st.sampled_from([b"", b"\0a\0\0b"]),
    st.integers(min_value=0, max_value=300))


class TestObjectStoreSnapshots:
    def test_roundtrip_preserves_objects_and_capacity(self):
        store = ObjectStore(Volume(capacity_bytes=10_000), name="src")
        store.put("raw/a", b"photo-bytes")
        store.put("preproc/a", b"tensor-bytes")
        restored = load_object_store(dump_object_store(store))
        assert restored.keys() == store.keys()
        assert restored.get("raw/a") == b"photo-bytes"
        assert restored.volume.capacity_bytes == 10_000
        assert restored.volume.used_bytes == store.volume.used_bytes

    def test_restored_io_counters_reset(self):
        store = ObjectStore()
        store.put("k", b"x" * 100)
        restored = load_object_store(dump_object_store(store))
        assert restored.bytes_written == 0
        assert restored.bytes_read == 0

    def test_empty_store_roundtrip(self):
        restored = load_object_store(dump_object_store(ObjectStore()))
        assert len(restored) == 0

    def test_bad_magic(self):
        with pytest.raises(SnapshotError):
            load_object_store(b"XXXX" + b"0" * 32)

    def test_truncated(self):
        with pytest.raises(SnapshotError):
            load_object_store(b"NDPS")

    @settings(max_examples=60, deadline=None)
    @given(payloads=st.dictionaries(keys, zero_tailed_blobs, max_size=8),
           rot=st.booleans())
    def test_property_roundtrip(self, payloads, rot):
        """Every namespace, blobs whose *content* ends in zeros (ReLU
        feature rows do), empty and all-zero blobs, a rotted object."""
        store = ObjectStore()
        for key, blob in payloads.items():
            store.put(key, blob)
        rotted = min(payloads) if rot and payloads else None
        if rotted is not None:
            store.corrupt_object(rotted, payloads[rotted] + b"\x07\0\0")
        restored = load_object_store(dump_object_store(store))
        assert restored.keys() == store.keys()
        assert restored.volume.used_bytes == store.volume.used_bytes
        for key in store.keys():
            assert restored.peek(key) == store.peek(key)
            assert restored.size_of(key) == store.size_of(key)
            assert restored.stored_crc(key) == store.stored_crc(key)
            assert restored.verify(key) == (key != rotted)

    @settings(max_examples=200, deadline=None)
    @given(blob=zero_tailed_blobs)
    def test_payload_length_matches_rstrip(self, blob):
        """The bisect against the bytewise walk it replaced."""
        assert payload_length(blob) == len(blob.rstrip(b"\0"))


class TestDatabaseSnapshots:
    def _db(self):
        db = PhotoDatabase()
        db.upsert(LabelRecord("p1", 3, 0, "s0", 0.9))
        db.upsert(LabelRecord("p1", 5, 1, "s0", 0.8))  # relabelled
        db.upsert(LabelRecord("p2", 3, 1, "s1", 0.7))
        return db

    def test_roundtrip_preserves_current_labels(self):
        db = self._db()
        restored = load_photo_database(dump_photo_database(db))
        assert restored.snapshot_labels() == db.snapshot_labels()
        assert restored.lookup("p1").model_version == 1

    def test_roundtrip_preserves_history(self):
        restored = load_photo_database(dump_photo_database(self._db()))
        assert [r.label for r in restored.history("p1")] == [3, 5]

    def test_roundtrip_preserves_search_index(self):
        restored = load_photo_database(dump_photo_database(self._db()))
        assert restored.search(3) == ["p2"]
        assert restored.search(5) == ["p1"]

    def test_bad_magic(self):
        with pytest.raises(SnapshotError):
            load_photo_database(b"WHAT" + b"0" * 8)

    def test_corrupt_payload(self):
        from repro.storage.compression import deflate

        with pytest.raises(SnapshotError):
            load_photo_database(b"NDPD" + deflate(b"not json"))


class TestPipeStoreRestart:
    def test_pipestore_survives_restart(self, small_world):
        """Snapshot a loaded PipeStore, 'reboot' it, keep serving."""
        from repro.core.checknrun import ReplicaSync
        from repro.core.pipestore import PipeStore, StoredPhoto
        from repro.models.registry import tiny_model
        from repro.storage.imageformat import quantise

        store = PipeStore("s0", nominal_raw_bytes=4096)
        x, y = small_world.sample(12, 0)
        for i, codes in enumerate(quantise(x)):
            store.store_photo(StoredPhoto(f"p{i}", codes,
                                          train_label=int(y[i])))
        snapshot = dump_object_store(store.objects)

        rebooted = PipeStore("s0", nominal_raw_bytes=4096)
        rebooted.objects = load_object_store(snapshot, name="s0")
        rebooted.install_model(ReplicaSync({}, 5), 0, base=tiny_model(
            "ResNet50", num_classes=8, width=8, seed=5))
        results = rebooted.offline_infer(rebooted.photo_ids()[:4])
        assert len(results) == 4


class TestFormatNeutrality:
    """The NDPS v4 bytes do not depend on how a store holds its objects:
    a store filled without any GEMM (fixed pixels through ``store_photo``
    plus one hand-made float32 ``feat/`` row with a ReLU zero tail)
    snapshots to the frame pinned on zero-padded ``bytes`` storage.
    Re-pinned when ``preproc/`` came to hold the upload's 8-bit codes
    (the JPEG stand-in's codes rounded, not truncated) and a snapshot
    began holding a derived ``preproc/`` blob as its key and CRC alone:
    (13 743 B, CRC 1 668 327 073) -> (3 427 B, CRC 3 260 683 122); and
    when the ``feat/`` segment went from level 1 to ``Z_RLE``: the same
    3 427 B, CRC 2 153 122 770."""

    FRAME_CRC = 2153122770
    FRAME_BYTES = 3427

    @staticmethod
    def _store():
        from repro.core.pipestore import PipeStore, StoredPhoto, _pack_feature
        from repro.storage.imageformat import quantise

        store = PipeStore("s0", nominal_raw_bytes=2048)
        for i in range(4):
            pixels = (np.arange(3 * 16 * 16).reshape(3, 16, 16)
                      * (7 + i) % 251 / 250.0)
            store.store_photo(StoredPhoto(f"p{i}", quantise(pixels),
                                          train_label=i))
        row = np.array([0.5, -1.25, 3.0, 0.0, 2.5] + [0.0] * 11, np.float32)
        store.objects.put("feat/p0", _pack_feature(
            bytes(range(16)), store.objects.stored_crc("preproc/p0"), row))
        return store

    def test_frame_is_pinned(self):
        frame = dump_object_store(self._store().objects)
        assert (len(frame), zlib.crc32(frame)) == (
            self.FRAME_BYTES, self.FRAME_CRC)

    def test_restored_store_snapshots_to_the_same_frame(self):
        frame = dump_object_store(self._store().objects)
        assert dump_object_store(load_object_store(frame)) == frame
