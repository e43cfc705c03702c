"""The NDCP frame: compress once, deduplicate blobs, manifest-only inspect.

``NDCP | 3 | len | deflate(manifest) | blob table | CRC32`` — the frame
seals, it does not compress: blobs are laid down as their producers made
them, identical blobs share one table slot, and readers slice views out
of the verified frame without inflating anything but the manifest.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.durability.checkpoint import (
    CHECKPOINT_MAGIC,
    ArrayReader,
    BlobTable,
    CheckpointError,
    inspect_checkpoint,
    pack_arrays,
    pack_tuner_state,
    read_frame,
    unpack_tuner_state,
    write_frame,
)
from repro.models.registry import tiny_model
from repro.storage.compression import deflate

MANIFEST = {
    "cluster": {"ingest_counter": 7, "replication": 2},
    "tuner": {"version": 3},
    "stores": [{"store_id": "pipestore-0"}, {"store_id": "pipestore-1"}],
    "ftdmp": None,
}
BLOBS = [b"first payload " * 9, b"", bytes(range(256)) * 3]
FRAME = write_frame(MANIFEST, BLOBS)
HEAD = len(CHECKPOINT_MAGIC) + 1
(MANIFEST_LEN,) = struct.unpack_from(">I", FRAME, HEAD)
TABLE = HEAD + 4 + MANIFEST_LEN
PAYLOAD = TABLE + 4 + 8  # first byte of the first blob
#: name -> (first offset, one past the last) of every region of FRAME
REGIONS = {
    "magic": (0, len(CHECKPOINT_MAGIC)),
    "version": (len(CHECKPOINT_MAGIC), HEAD),
    "manifest_len": (HEAD, HEAD + 4),
    "manifest": (HEAD + 4, TABLE),
    "table": (TABLE, TABLE + 4 + 8),
    "payload": (PAYLOAD, PAYLOAD + len(BLOBS[0])),
    "last_blob": (len(FRAME) - 4 - len(BLOBS[2]), len(FRAME) - 4),
    "trailer": (len(FRAME) - 4, len(FRAME)),
}


def reseal(frame: bytes) -> bytes:
    return frame + struct.pack(">I", zlib.crc32(frame))


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=5)


def fleet(small_world, num_stores=8):
    cluster = NDPipeCluster(factory, ClusterConfig(
        num_stores=num_stores, nominal_raw_bytes=2048, replication=2))
    x, y = small_world.sample(24, 0, rng=np.random.default_rng(3))
    cluster.ingest(x, train_labels=y)
    return cluster


class TestLayout:
    def test_roundtrip_hands_out_views_of_the_frame(self):
        manifest, blobs = read_frame(FRAME)
        assert manifest == MANIFEST
        assert blobs == BLOBS
        assert all(isinstance(b, memoryview) and b.readonly for b in blobs)
        assert blobs[2].obj is FRAME  # sliced, not copied

    def test_blobs_are_stored_verbatim(self):
        """The frame does not deflate what it is given a second time."""
        sealed = deflate(b"\x00" * 4096)
        frame = write_frame({}, [sealed])
        assert sealed in frame
        assert FRAME[PAYLOAD:PAYLOAD + len(BLOBS[0])] == BLOBS[0]

    def test_layout_is_the_documented_one(self):
        assert FRAME[:HEAD] == CHECKPOINT_MAGIC + b"\x04"
        assert struct.unpack_from(">I", FRAME, TABLE) == (len(BLOBS),)
        assert struct.unpack_from(">Q", FRAME, TABLE + 4) == (len(BLOBS[0]),)
        assert FRAME[-4:] == struct.pack(">I", zlib.crc32(FRAME[:-4]))

    def test_v1_frame_is_refused_by_name(self):
        """The whole-body-deflate layout this release replaced."""
        body = json.dumps(MANIFEST).encode()
        body = (struct.pack(">I", len(body)) + body
                + struct.pack(">I", 1) + struct.pack(">Q", 3) + b"abc")
        v1 = reseal(CHECKPOINT_MAGIC + b"\x01" + deflate(body))
        for reader in (read_frame, inspect_checkpoint, unpack_tuner_state):
            with pytest.raises(CheckpointError, match="version 1"):
                reader(v1)

    def test_v2_frame_is_refused_by_name(self):
        """The per-entry journal pixel table this release replaced: the
        v2 layout is the v3 one, so only the version byte tells them
        apart."""
        v2 = bytearray(FRAME[:-4])
        v2[len(CHECKPOINT_MAGIC)] = 2
        for reader in (read_frame, inspect_checkpoint, unpack_tuner_state):
            with pytest.raises(CheckpointError, match="version 2"):
                reader(reseal(bytes(v2)))

    def test_v3_frame_is_refused_by_name(self):
        """The float journal pixels this release replaced with 8-bit
        codes: the v3 layout is the v4 one, so only the version byte
        tells them apart."""
        v3 = bytearray(FRAME[:-4])
        v3[len(CHECKPOINT_MAGIC)] = 3
        for reader in (read_frame, inspect_checkpoint, unpack_tuner_state):
            with pytest.raises(CheckpointError,
                               match="version 3 \\(float journal pixels\\)"):
                reader(reseal(bytes(v3)))

    def test_unknown_version_is_refused(self):
        frame = bytearray(FRAME[:-4])
        frame[len(CHECKPOINT_MAGIC)] = 9
        with pytest.raises(CheckpointError, match="version 9"):
            read_frame(reseal(bytes(frame)))

    def test_resealed_garbage_manifest_is_a_checkpoint_error(self):
        """CRC-valid frame, damaged deflate stream: the typed error, not
        a raw ``zlib.error``."""
        frame = bytearray(FRAME[:-4])
        for pos in range(HEAD + 4 + 6, TABLE):
            frame[pos] ^= 0xA5
        for reader in (read_frame, inspect_checkpoint):
            with pytest.raises(CheckpointError):
                reader(reseal(bytes(frame)))

    def test_resealed_garbage_array_blob_is_a_checkpoint_error(self):
        table = BlobTable()
        index = table.add_arrays({"w": np.arange(64.0)})
        damaged = bytearray(table.blobs[index])
        damaged[10:20] = b"\xff" * 10
        _manifest, blobs = read_frame(write_frame({}, [bytes(damaged)]))
        with pytest.raises(CheckpointError, match="array blob"):
            ArrayReader(blobs)(0)

    def test_lying_lengths_are_rejected(self):
        frame = bytearray(FRAME[:-4])
        struct.pack_into(">Q", frame, TABLE + 4, len(BLOBS[0]) + 1)
        with pytest.raises(CheckpointError):
            read_frame(reseal(bytes(frame)))
        with pytest.raises(CheckpointError, match="trailing"):
            read_frame(reseal(FRAME[:-4] + b"x"))


class TestDamageSweep:
    @given(region=st.sampled_from(sorted(REGIONS)),
           where=st.integers(0, 10_000), bit=st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_any_single_bit_flip_is_rejected(self, region, where, bit):
        start, stop = REGIONS[region]
        damaged = bytearray(FRAME)
        damaged[start + where % (stop - start)] ^= 1 << bit
        for reader in (read_frame, inspect_checkpoint):
            with pytest.raises(CheckpointError):
                reader(bytes(damaged))

    @given(cut=st.integers(0, len(FRAME) - 1))
    @settings(max_examples=200, deadline=None)
    def test_any_truncation_is_rejected(self, cut):
        for reader in (read_frame, inspect_checkpoint):
            with pytest.raises(CheckpointError):
                reader(FRAME[:cut])

    def test_inspect_rejects_a_payload_byte_it_never_parses(self):
        damaged = bytearray(FRAME)
        damaged[PAYLOAD + 5] ^= 0x10
        with pytest.raises(CheckpointError, match="CRC32"):
            inspect_checkpoint(bytes(damaged))


class TestInspect:
    def test_reads_the_manifest_only(self, monkeypatch):
        """Blob sizes come from walking the table: nothing but the
        manifest is inflated, even when the blobs are deflate frames."""
        frame = write_frame(MANIFEST, [deflate(b"a" * 999), deflate(b"b")])
        inflated = []
        real = zlib.decompressobj
        monkeypatch.setattr(
            "repro.storage.compression.zlib.decompressobj",
            lambda *a: inflated.append(a) or real(*a))
        info = inspect_checkpoint(frame)
        assert len(inflated) == 1
        assert info["blob_bytes"] == len(deflate(b"a" * 999)) + len(
            deflate(b"b"))
        assert info["store_ids"] == ["pipestore-0", "pipestore-1"]
        assert (info["photos"], info["tuner_version"]) == (7, 3)


class TestDedupe:
    def test_table_interns_by_content(self):
        table = BlobTable()
        arrays = {"w": np.arange(12.0).reshape(3, 4)}
        first = table.add_arrays(arrays)
        assert table.add_arrays({"w": arrays["w"].copy()}) == first
        assert table.add_arrays({"w": arrays["w"] + 1}) == first + 1
        sealed = table.add(b"sealed snapshot")
        assert table.add(b"sealed snapshot") == sealed
        assert len(table.blobs) == 3
        assert table.blobs[sealed] == b"sealed snapshot"  # verbatim

    def test_reader_shares_one_read_only_unpack_per_blob(self):
        table = BlobTable()
        index = table.add_arrays({"w": np.arange(6.0)})
        frame = write_frame({}, table.blobs)
        _manifest, blobs = read_frame(frame)
        arrays = ArrayReader(blobs)
        first, second = arrays(index), arrays(index)
        assert first is not second  # a dict per call ...
        one, two = first["w"], second["w"]
        assert one is two  # ... of the arrays unpacked once
        assert not np.shares_memory(one, np.frombuffer(frame, np.uint8))
        assert one.flags.owndata and one.flags.aligned
        with pytest.raises(ValueError, match="read-only"):
            one[0] = 99.0
        assert two[0] == 0.0

    def test_fleet_at_one_version_writes_one_store_model_blob(
            self, small_world):
        cluster = fleet(small_world)
        cluster.finetune(epochs=1)
        blob = cluster.checkpoint()
        manifest, blobs = read_frame(blob)
        slots = {entry["model_blob"] for entry in manifest["stores"]}
        # the stores hold the published state; the master is written as
        # an overlay of the classifier tensors it holds apart from it, and
        # never under the key a reader takes for a full master
        assert slots == {manifest["tuner"]["last_distributed_blob"]}
        assert "model_blob" not in manifest["tuner"]
        overlay = manifest["tuner"]["master_overlay_blob"]
        assert overlay not in slots
        master_part = ArrayReader(blobs)(overlay)
        assert sorted(master_part) == ["stage_FC.bias", "stage_FC.weight"]
        # 8 object snapshots + database + journal + published + master's
        # classifier + Adam m, v
        assert len(blobs) == 8 + 2 + 2 + 2

        clone = NDPipeCluster(factory, ClusterConfig(
            num_stores=8, nominal_raw_bytes=2048, replication=2))
        clone.restore(blob)
        params = [dict(s.model.named_parameters()) for s in clone.stores]
        expected = cluster.tuner.published
        classifier = clone.tuner.model.classifier_prefix
        for key, reference in params[0].items():
            for other in params[1:]:
                assert np.array_equal(reference.data, other[key].data)
                # frozen arrays are shared, the classifier is private
                assert np.shares_memory(reference.data, other[key].data) \
                    is not key.startswith(classifier)
            assert np.array_equal(reference.data, expected[key])
        frozen = next(iter(params[0]))
        assert not frozen.startswith(classifier)
        assert params[0][frozen].data is clone.tuner.published[frozen]
        with pytest.raises(ValueError, match="read-only"):
            params[0][frozen].data[...] = -7.0
        key = f"{classifier}weight"
        params[0][key].data[...] = -7.0
        assert all(np.array_equal(p[key].data, expected[key])
                   for p in params[1:])
        assert np.array_equal(
            clone.tuner.model.state_dict()[key],
            cluster.tuner.model.state_dict()[key])
        assert np.array_equal(clone.tuner.published[key], expected[key])
        for key, value in cluster.tuner.model.state_dict().items():
            assert np.array_equal(clone.tuner.model.state_dict()[key], value)

    def test_store_left_a_version_behind_keeps_its_own_blob(
            self, small_world):
        cluster = fleet(small_world, num_stores=4)
        cluster.finetune(epochs=1)
        laggard = cluster.stores[2]
        laggard.fail()
        cluster.finetune(epochs=1)
        laggard.repair()
        assert laggard.model_version == cluster.tuner.version - 1
        blob = cluster.checkpoint()
        manifest, _blobs = read_frame(blob)
        slots = [entry["model_blob"] for entry in manifest["stores"]]
        assert slots[0] == slots[1] == slots[3] \
            == manifest["tuner"]["last_distributed_blob"]
        assert slots[2] not in (slots[0], None)

        clone = NDPipeCluster(factory, ClusterConfig(
            num_stores=4, nominal_raw_bytes=2048, replication=2))
        clone.restore(blob)
        for orig, rest in zip(cluster.stores, clone.stores):
            assert rest.model_version == orig.model_version
            for key, value in orig.model.state_dict().items():
                assert np.array_equal(rest.model.state_dict()[key], value)

    def test_restore_then_checkpoint_is_byte_identical(self, small_world):
        cluster = fleet(small_world, num_stores=4)
        cluster.finetune(epochs=1, num_runs=2)
        cluster.offline_relabel()
        blob = cluster.checkpoint()
        clone = NDPipeCluster(factory, ClusterConfig(
            num_stores=4, nominal_raw_bytes=2048, replication=2))
        clone.restore(blob)
        assert clone.checkpoint() == blob


class TestTunerFrameOnTheWire:
    """``tests/ha`` fixture (3 stores, 18 photos, ResNet50-tiny seed 7)."""

    #: v1 (whole-body deflate) sizes of the same frames on the parent
    V1_SEED_FRAME = 501_762
    V1_MID_RUN_FRAMES = (515_594, 516_392, 516_736)
    V1_FINAL_FRAME = 516_454

    def test_frames_are_no_larger_than_v1(self):
        from tests.ha.test_failover import build_cluster

        cluster, _ids = build_cluster()
        ha = cluster.enable_ha()
        sizes = [len(ha.failover.last_frame)]
        ship = ha.failover.ship_checkpoint
        ha.failover.ship_checkpoint = lambda progress=None: (
            sizes.append(ship(progress)) or sizes[-1])
        cluster.finetune(epochs=1, num_runs=3)
        seed, *mid, final = sizes
        # seed: model == last_distributed, one blob instead of two.  The
        # seed frame holds an untrained fixed state and is byte-stable; the
        # later ones hold a classifier trained on the compiled (float32)
        # front's features, re-pinned when the frozen graph landed
        # (265_627 and 515_430 / 516_210 / 516_569 before it).  The frozen
        # front's masters are float32 since the half-width front landed:
        # seed 250_912 -> 126_861, final 265_616 -> 141_560, mid-run
        # (515_440, 516_213, 516_561) -> (267_334, 268_102, 268_454).
        # Since live deltas are quantised the master and the published
        # state differ after a round too, and a frame holds the published
        # state whole plus the master's classifier tensors: final
        # 141_560 -> 149_537, mid-run (267_334, 268_102, 268_454) ->
        # (148_674, 149_441, 149_784); naming that part
        # ``master_overlay_blob`` adds 5 B to each: final 149_542, mid-run
        # (148_680, 149_447, 149_789).  Since the tail trains on 8-bit
        # feature rows (what the channel delivers) the trained tensors
        # deflate differently: final 149_542 -> 149_562, mid-run
        # (148_680, 149_447, 149_789) -> (148_684, 149_425, 149_807).
        # A mid-run frame's progress report carries ``rows_held`` since
        # the Tuner holds feature rows: (148_684, 149_425, 149_807) ->
        # (148_694, 149_435, 149_815), every blob unchanged.  Since the
        # tail trains on features of each upload's 8-bit codes the
        # mid-run tensors deflate differently: (148_694, 149_435,
        # 149_815) -> (148_675, 149_444, 149_809); seed and final stay
        assert seed == 126_861 <= self.V1_SEED_FRAME
        assert final == 149_562 <= self.V1_FINAL_FRAME
        assert tuple(mid) == (148_675, 149_444, 149_809)
        assert all(now <= was
                   for now, was in zip(mid, self.V1_MID_RUN_FRAMES))

    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        model = {"w": rng.normal(size=(5, 3)), "b": rng.normal(size=3)}
        state = {
            "version": 4, "split": 2, "lr": 0.01,
            "rng": {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2},
                    "has_uint32": 0, "uinteger": 0},
            "model": model, "last_distributed": dict(model),
            "optimizer": {"t": 3, "m": {"0": rng.normal(size=3)},
                          "v": {"0": rng.normal(size=3)}},
        }
        frame = pack_tuner_state(state, epoch=5)
        manifest, blobs = read_frame(frame)
        assert len(blobs) == 3  # model shared with last_distributed
        assert "master_overlay_blob" not in manifest["tuner"]
        out, epoch, progress = unpack_tuner_state(frame)
        assert (epoch, out["epoch"], progress) == (5, 5, None)
        for key in model:
            assert np.array_equal(out["model"][key], model[key])
            # one blob, unpacked once: read-only arrays both sides share
            # (import_training_state copies what trains)
            assert out["model"][key] is out["last_distributed"][key]
            assert not out["model"][key].flags.writeable
        assert pack_arrays(out["optimizer"]["m"]) == pack_arrays(
            state["optimizer"]["m"])


class TestMasterOverlay:
    """A master apart from the published state travels as an overlay
    under its own key; ``model_blob`` only ever holds a full master."""

    @staticmethod
    def state(master, published):
        return {
            "version": 2, "split": 1, "lr": 0.01,
            "rng": {"bit_generator": "PCG64",
                    "state": {"state": 1, "inc": 2},
                    "has_uint32": 0, "uinteger": 0},
            "model": master, "last_distributed": published,
            "optimizer": None,
        }

    def test_a_master_apart_from_the_published_state_restores_bit_exact(
            self):
        rng = np.random.default_rng(3)
        published = {
            "front.w": rng.normal(size=(6, 4)).astype(np.float32),
            "fc.w": rng.normal(size=(4, 3)).astype(np.float32),
            "fc.b": np.zeros(3, dtype=np.float32),
            "steps": np.arange(3, dtype=np.int64),
        }
        master = dict(published)
        master["fc.w"] = published["fc.w"] + np.float32(1e-3)
        # bit patterns np.array_equal cannot tell apart, or from themselves
        master["fc.b"] = np.array([-0.0, np.nan, 1.0], dtype=np.float32)
        master["steps"] = np.array([1, 500, 991], dtype=np.int64)
        frame = pack_tuner_state(self.state(master, published), epoch=1)
        manifest, blobs = read_frame(frame)
        section = manifest["tuner"]
        assert "model_blob" not in section
        overlay = ArrayReader(blobs)(section["master_overlay_blob"])
        assert sorted(overlay) == ["fc.b", "fc.w", "steps"]
        out, _epoch, _progress = unpack_tuner_state(frame)
        for name, want in (("model", master),
                           ("last_distributed", published)):
            got = out[name]
            assert sorted(got) == sorted(want)
            for key, value in want.items():
                assert got[key].dtype == value.dtype
                assert got[key].tobytes() == value.tobytes(), (name, key)
