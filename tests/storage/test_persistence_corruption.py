"""Snapshot round-trips under injected corruption (satellite of PR 3).

Every byte region of a snapshot frame — magic, header fields, record
heads, keys, verbatim payloads, the squeezed deflate segment, CRC
trailer — is flipped and the loader must refuse with
:class:`SnapshotError` rather than reconstruct silently-wrong state.
Damage the trailer cannot see (a frame resealed after the tamper) must
trip a structural check, or — for a payload byte — stay detectable by
a post-restore scrub through the object's own stored CRC.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.core.pipestore import PipeStore
from repro.storage.compression import inflate
from repro.storage.objectstore import ObjectStore, Volume
from repro.storage.persistence import (
    SnapshotError,
    dump_object_store,
    dump_photo_database,
    load_object_store,
    load_photo_database,
)
from repro.storage.photodb import LabelRecord, PhotoDatabase

#: the v4 store-snapshot layout, written out here on purpose: these tests
#: pin the bytes, not whatever the module's private structs say today
#: (the sample store holds no photo, so it has no derived records)
HEAD = struct.Struct(">4sBQIQI")  # magic version capacity count
#                                   verbatim_len derived_count
RECORD = struct.Struct(">HIII")  # key_len crc nominal_len payload_len


def sample_store() -> ObjectStore:
    store = ObjectStore(Volume(capacity_bytes=1 << 20), name="src")
    store.put("raw/a", b"alpha" * 40 + bytes(312))  # padded to nominal
    store.put("raw/b", b"beta" * 33)
    store.put("preproc/a", b"\x00\x01\x02" * 21)
    row = np.maximum(np.linspace(1.0, -1.0, 32, dtype=np.float32), 0.0)
    store.put("feat/a", b"head" + row.tobytes())  # a ReLU row: zero tail
    return store


def sample_db() -> PhotoDatabase:
    db = PhotoDatabase()
    db.upsert(LabelRecord("a", 1, 0, "pipestore-0", 0.9))
    db.upsert(LabelRecord("b", 2, 0, "pipestore-1", 0.8))
    db.upsert(LabelRecord("a", 3, 1, "pipestore-0", 0.7))
    return db


def reseal(frame) -> bytes:
    """A tampered frame with a fresh, valid CRC32 trailer."""
    return bytes(frame) + struct.pack(">I", zlib.crc32(bytes(frame)))


def verbatim_records(blob: bytes) -> dict:
    """key -> (head offset, payload offset, payload length) of every
    record in the verbatim segment."""
    verbatim_len = HEAD.unpack_from(blob)[4]
    offset, found = HEAD.size, {}
    while offset < HEAD.size + verbatim_len:
        key_len, _crc, _nominal, payload_len = RECORD.unpack_from(blob, offset)
        key_at = offset + RECORD.size
        key = blob[key_at:key_at + key_len].decode()
        found[key] = (offset, key_at + key_len, payload_len)
        offset = key_at + key_len + payload_len
    assert offset == HEAD.size + verbatim_len
    return found


def regions(blob: bytes) -> dict:
    """Representative byte offsets in every region of a v4 frame."""
    records = verbatim_records(blob)
    head_at, payload_at, payload_len = records["raw/a"]
    squeezed_at = HEAD.size + HEAD.unpack_from(blob)[4]
    return {
        "magic": [0, 3],
        "version": [4],
        "capacity": [5, 12],
        "count": [13, 16],
        "verbatim_len": [17, 24],
        "derived_count": [25, 28],
        "record_head": list(range(head_at, head_at + RECORD.size)),
        "key": [head_at + RECORD.size, payload_at - 1],
        "payload": [payload_at, payload_at + payload_len // 2,
                    payload_at + payload_len - 1],
        "squeezed": [squeezed_at, (squeezed_at + len(blob) - 4) // 2,
                     len(blob) - 5],
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

    def test_layout_keeps_zero_runs_as_lengths(self):
        """The bytes on the wire: deflate streams' namespaces verbatim with
        the padding gone, ``feat/`` only inside the squeezed segment."""
        store = sample_store()
        blob = dump_object_store(store)
        records = verbatim_records(blob)
        assert sorted(records) == ["preproc/a", "raw/a", "raw/b"]
        head_at, payload_at, payload_len = records["raw/a"]
        assert RECORD.unpack_from(blob, head_at) == (
            5, store.stored_crc("raw/a"), 512, 200)
        assert blob[payload_at:payload_at + payload_len] == b"alpha" * 40
        # a squeezed stream too small to code stores its bytes: look for
        # the key by segment, not by whether the stream hides it
        squeezed_at = HEAD.size + HEAD.unpack_from(blob)[4]
        assert b"feat/a" not in blob[:squeezed_at]
        assert b"feat/a" in inflate(blob[squeezed_at:-4])
        assert len(blob) < store.volume.used_bytes

    def test_snapshot_does_not_count_workload_reads(self):
        store = sample_store()
        before = store.bytes_read
        dump_object_store(store)
        assert store.bytes_read == before

    @pytest.mark.parametrize("region", sorted(regions(
        dump_object_store(sample_store()))))
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
        _head_at, payload_at, _len = verbatim_records(blob)["raw/b"]
        for cut in (0, 3, HEAD.size, payload_at + 7, len(blob) // 2,
                    len(blob) - 1):
            with pytest.raises(SnapshotError):
                load_object_store(blob[:cut])

    def test_v1_snapshot_is_refused_loudly(self):
        """A pre-trailer frame resealed as version 1 must name the
        version problem, not just fail the generic CRC check."""
        frame = bytearray(dump_object_store(sample_store())[:-4])
        frame[4] = 1  # version byte of the header
        with pytest.raises(SnapshotError, match="version 1"):
            load_object_store(reseal(frame))

    def test_v2_snapshot_is_refused_loudly(self):
        """The whole-body-deflate format has no reader left; a v2 frame
        (its real layout: ``>4sBQI`` header + one deflate body) is named."""
        from repro.storage.compression import deflate

        frame = struct.pack(">4sBQI", b"NDPS", 2, 1 << 20, 0) + deflate(b"")
        with pytest.raises(SnapshotError, match="version 2.*no longer reads"):
            load_object_store(reseal(frame))
        with pytest.raises(SnapshotError, match="version 2"):
            load_object_store(reseal(frame + bytes(64)))

    def test_v3_snapshot_is_refused_loudly(self):
        """The layout that held derived ``preproc/`` blobs: named."""
        frame = bytearray(dump_object_store(sample_store())[:-4])
        frame[4] = 3
        with pytest.raises(SnapshotError,
                           match="version 3 \\(derived preproc/ blobs held\\)"):
            load_object_store(reseal(frame))

    def test_unknown_version_is_refused(self):
        frame = bytearray(dump_object_store(sample_store())[:-4])
        frame[4] = 9
        with pytest.raises(SnapshotError, match="version 9"):
            load_object_store(reseal(frame))

    def test_resealed_garbage_stream_is_a_snapshot_error(self):
        """CRC-valid frame whose squeezed deflate stream is damaged: the
        typed error, never a raw ``zlib.error``."""
        blob = dump_object_store(sample_store())
        frame = bytearray(blob[:-4])
        squeezed_at = HEAD.size + HEAD.unpack_from(blob)[4]
        for pos in range(squeezed_at + 4 + 2, len(frame)):  # past NDPZ + zlib
            frame[pos] ^= 0xA5
        with pytest.raises(SnapshotError, match="corrupt"):
            load_object_store(reseal(frame))
        frame[squeezed_at] ^= 0xFF  # and the segment's own magic
        with pytest.raises(SnapshotError, match="corrupt"):
            load_object_store(reseal(frame))

    def test_resealed_payload_longer_than_nominal_is_refused(self):
        blob = dump_object_store(sample_store())
        head_at, _payload_at, payload_len = verbatim_records(blob)["raw/a"]
        frame = bytearray(blob[:-4])
        struct.pack_into(">I", frame, head_at + 6, payload_len - 1)  # nominal
        with pytest.raises(SnapshotError, match="nominal"):
            load_object_store(reseal(frame))

    @pytest.mark.parametrize("shift, message", [
        (1 << 40, "overruns"),  # ends past the end of the frame
        (-9, "truncated"),      # ends inside the last record's payload
        (-151, "corrupt"),      # ends one record early: its head is no NDPZ
    ])
    def test_resealed_wrong_verbatim_length_is_refused(self, shift, message):
        blob = dump_object_store(sample_store())
        frame = bytearray(blob[:-4])
        struct.pack_into(">Q", frame, 17, HEAD.unpack_from(blob)[4] + shift)
        with pytest.raises(SnapshotError, match=message):
            load_object_store(reseal(frame))

    def test_resealed_record_overrunning_its_segment_is_refused(self):
        blob = dump_object_store(sample_store())
        head_at, _payload_at, _len = verbatim_records(blob)["raw/b"]
        frame = bytearray(blob[:-4])
        struct.pack_into(">II", frame, head_at + 6, 1 << 20, 1 << 19)
        with pytest.raises(SnapshotError, match="truncated"):
            load_object_store(reseal(frame))

    def test_resealed_wrong_count_is_refused(self):
        frame = bytearray(dump_object_store(sample_store())[:-4])
        struct.pack_into(">I", frame, 13, 5)
        with pytest.raises(SnapshotError, match="promises 5"):
            load_object_store(reseal(frame))

    def test_resealed_small_capacity_is_a_snapshot_error(self):
        """Not a ``StorageFullError`` escaping the loader."""
        frame = bytearray(dump_object_store(sample_store())[:-4])
        struct.pack_into(">Q", frame, 5, 600)  # raw/a alone is 512
        with pytest.raises(SnapshotError, match="volume full"):
            load_object_store(reseal(frame))

    def test_resealed_empty_key_is_a_snapshot_error(self):
        """Not the bare ``ValueError("empty key")`` of the restore seam."""
        blob = dump_object_store(sample_store())
        head_at, payload_at, _len = verbatim_records(blob)["raw/b"]
        frame = bytearray(blob[:-4])
        struct.pack_into(">H", frame, head_at, 0)
        del frame[head_at + RECORD.size:payload_at]
        struct.pack_into(">Q", frame, 17, HEAD.unpack_from(blob)[4] - 5)
        with pytest.raises(SnapshotError, match="empty key"):
            load_object_store(reseal(frame))

    def test_resealed_duplicate_key_is_refused(self):
        """Two records under one key (the header count still matching the
        records) must not silently overwrite."""
        blob = dump_object_store(sample_store())
        head_at, _payload_at, _len = verbatim_records(blob)["raw/b"]
        frame = bytearray(blob[:-4])
        frame[head_at + RECORD.size + 4] = ord("a")  # raw/b -> raw/a
        with pytest.raises(SnapshotError, match="duplicate key 'raw/a'"):
            load_object_store(reseal(frame))

    def test_resealed_payload_tamper_is_found_by_scrub(self):
        """The trailer accepts a resealed frame and no structural check
        can see one changed payload byte — but the stored CRC is restored,
        never recomputed, so the first scrub after the restore finds it."""
        blob = dump_object_store(sample_store())
        _head_at, payload_at, _len = verbatim_records(blob)["raw/a"]
        frame = bytearray(blob[:-4])
        frame[payload_at + 11] ^= 0x40
        restored = PipeStore("s0")
        restored.objects = load_object_store(reseal(frame), name="s0")
        assert restored.scrub().corrupt_keys == ["raw/a"]

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
        with pytest.raises(SnapshotError, match="corrupt"):
            load_photo_database(reseal(frame))

    def test_v1_payload_is_refused_loudly(self):
        import json

        from repro.storage.compression import deflate

        payload = {"version": 1, "history": {}}
        frame = b"NDPD" + deflate(json.dumps(payload).encode())
        with pytest.raises(SnapshotError, match="version 1"):
            load_photo_database(reseal(frame))
