"""Snapshot round-trips under injected corruption (satellite of PR 3).

Every byte region of a snapshot frame — magic, header, deflate body,
CRC trailer — is flipped and the loader must refuse with
:class:`SnapshotError` rather than reconstruct silently-wrong state.
"""

import struct
import zlib

import pytest

from repro.storage.objectstore import ObjectStore, Volume
from repro.storage.persistence import (
    SnapshotError,
    dump_object_store,
    dump_photo_database,
    load_object_store,
    load_photo_database,
)
from repro.storage.photodb import LabelRecord, PhotoDatabase


def sample_store() -> ObjectStore:
    store = ObjectStore(Volume(capacity_bytes=1 << 20), name="src")
    store.put("raw/a", b"alpha" * 40)
    store.put("raw/b", b"beta" * 33)
    store.put("preproc/a", b"\x00\x01\x02" * 21)
    return store


def sample_db() -> PhotoDatabase:
    db = PhotoDatabase()
    db.upsert(LabelRecord("a", 1, 0, "pipestore-0", 0.9))
    db.upsert(LabelRecord("b", 2, 0, "pipestore-1", 0.8))
    db.upsert(LabelRecord("a", 3, 1, "pipestore-0", 0.7))
    return db


def regions(blob: bytes):
    """Representative byte offsets in (magic, header, body, trailer)."""
    header_end = struct.calcsize(">4sBQI")
    return {
        "magic": [0, 3],
        "header": [5, header_end - 1],
        "body": [header_end + 2, (header_end + len(blob) - 4) // 2,
                 len(blob) - 6],
        "trailer": [len(blob) - 4, len(blob) - 1],
    }


class TestObjectStoreSnapshotCorruption:
    def test_clean_roundtrip(self):
        store = sample_store()
        clone = load_object_store(dump_object_store(store), name="clone")
        assert clone.keys() == store.keys()
        for key in store.keys():
            assert clone.peek(key) == store.peek(key)
            assert clone.stored_crc(key) == store.stored_crc(key)
        assert clone.volume.capacity_bytes == store.volume.capacity_bytes
        assert clone.bytes_read == 0 and clone.bytes_written == 0

    def test_snapshot_does_not_count_workload_reads(self):
        store = sample_store()
        before = store.bytes_read
        dump_object_store(store)
        assert store.bytes_read == before

    @pytest.mark.parametrize("region", ["magic", "header", "body", "trailer"])
    def test_flip_in_every_region_is_rejected(self, region):
        blob = dump_object_store(sample_store())
        for pos in regions(blob)[region]:
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[pos] ^= 1 << bit
                with pytest.raises(SnapshotError):
                    load_object_store(bytes(damaged))

    def test_truncation_is_rejected(self):
        blob = dump_object_store(sample_store())
        for cut in (0, 3, struct.calcsize(">4sBQI"), len(blob) // 2,
                    len(blob) - 1):
            with pytest.raises(SnapshotError):
                load_object_store(blob[:cut])

    def test_v1_snapshot_is_refused_loudly(self):
        """A pre-trailer frame resealed as version 1 must name the
        version problem, not just fail the generic CRC check."""
        blob = dump_object_store(sample_store())
        frame = bytearray(blob[:-4])
        frame[4] = 1  # version byte inside the ">4sBQI" header
        resealed = bytes(frame) + struct.pack(
            ">I", zlib.crc32(bytes(frame)))
        with pytest.raises(SnapshotError, match="version 1"):
            load_object_store(resealed)

    def test_unknown_version_is_refused(self):
        blob = dump_object_store(sample_store())
        frame = bytearray(blob[:-4])
        frame[4] = 9
        resealed = bytes(frame) + struct.pack(
            ">I", zlib.crc32(bytes(frame)))
        with pytest.raises(SnapshotError, match="version 9"):
            load_object_store(resealed)

    def test_resealed_garbage_stream_is_a_snapshot_error(self):
        """CRC-valid frame whose deflate stream is damaged: the typed
        error, never a raw ``zlib.error``."""
        blob = dump_object_store(sample_store())
        frame = bytearray(blob[:-4])
        start = struct.calcsize(">4sBQI") + 4 + 2  # past NDPZ + zlib header
        for pos in range(start, len(frame)):
            frame[pos] ^= 0xA5
        resealed = bytes(frame) + struct.pack(
            ">I", zlib.crc32(bytes(frame)))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_object_store(resealed)

    def test_loads_from_a_view_without_counting_io(self):
        """A checkpoint frame hands the loader a ``memoryview`` slice;
        restored objects are private ``bytes`` and no write is counted."""
        store = sample_store()
        padded = b"pad" + dump_object_store(store) + b"pad"
        clone = load_object_store(memoryview(padded)[3:-3])
        assert clone.keys() == store.keys()
        assert all(type(clone.peek(k)) is bytes for k in clone.keys())
        assert clone.bytes_written == 0
        assert clone.volume.used_bytes == store.volume.used_bytes

    def test_restored_stale_crc_survives(self):
        """Corruption present before the snapshot must still be
        detectable after restore (the CRC travels with the object)."""
        store = sample_store()
        store.corrupt_object("raw/a", b"ROTTED" * 20)
        clone = load_object_store(dump_object_store(store))
        assert not clone.verify("raw/a")
        assert clone.verify("raw/b")


class TestDatabaseSnapshotCorruption:
    def test_clean_roundtrip_keeps_history(self):
        db = sample_db()
        clone = load_photo_database(dump_photo_database(db))
        assert clone.snapshot_labels() == db.snapshot_labels()
        assert [r.label for r in clone.history("a")] == [1, 3]

    def test_flip_anywhere_is_rejected(self):
        blob = dump_photo_database(sample_db())
        for pos in (0, 2, 4, len(blob) // 2, len(blob) - 5, len(blob) - 1):
            damaged = bytearray(blob)
            damaged[pos] ^= 0x10
            with pytest.raises(SnapshotError):
                load_photo_database(bytes(damaged))

    def test_truncation_is_rejected(self):
        blob = dump_photo_database(sample_db())
        for cut in (0, 2, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SnapshotError):
                load_photo_database(blob[:cut])

    def test_resealed_garbage_stream_is_a_snapshot_error(self):
        blob = dump_photo_database(sample_db())
        frame = bytearray(blob[:-4])
        for pos in range(4 + 4 + 2, len(frame)):  # past NDPD + NDPZ + zlib
            frame[pos] ^= 0xA5
        resealed = bytes(frame) + struct.pack(
            ">I", zlib.crc32(bytes(frame)))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_photo_database(resealed)

    def test_v1_payload_is_refused_loudly(self):
        import json

        from repro.storage.compression import deflate

        payload = {"version": 1, "history": {}}
        frame = b"NDPD" + deflate(json.dumps(payload).encode())
        sealed = frame + struct.pack(">I", zlib.crc32(frame))
        with pytest.raises(SnapshotError, match="version 1"):
            load_photo_database(sealed)
