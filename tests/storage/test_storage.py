"""Storage substrate tests: compression, codec, object store, photo DB."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.compression import (
    compress_array,
    compression_ratio,
    decompress_array,
    deflate,
    inflate,
)
from repro.storage.imageformat import (
    CodecError,
    PhotoSizes,
    decode_photo,
    decode_preprocessed,
    decode_preprocessed_into,
    encode_photo,
    encode_preprocessed,
    preprocess,
)
from repro.storage.objectstore import (
    MissingObjectError,
    ObjectStore,
    StorageFullError,
    Volume,
)
from repro.storage.photodb import LabelRecord, PhotoDatabase


class TestCompression:
    def test_roundtrip(self):
        raw = b"hello " * 100
        assert inflate(deflate(raw)) == raw

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            inflate(b"nope" + b"x" * 10)

    def test_ratio(self):
        raw = b"a" * 1000
        blob = deflate(raw)
        assert compression_ratio(raw, blob) > 10

    def test_ratio_empty_compressed(self):
        with pytest.raises(ValueError):
            compression_ratio(b"x", b"")

    @settings(max_examples=20, deadline=None)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
           seed=st.integers(0, 2**31 - 1))
    def test_property_array_roundtrip(self, shape, seed):
        arr = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        out = decompress_array(compress_array(arr))
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)

    def test_scalar_array_roundtrip(self):
        arr = np.array(3.5)
        assert decompress_array(compress_array(arr)) == arr

    def test_int_array_roundtrip(self):
        arr = np.arange(10, dtype=np.int64)
        assert np.array_equal(decompress_array(compress_array(arr)), arr)

    @pytest.mark.parametrize("dtype", ["u1", "i1", "?", "S4", "S300"])
    def test_byte_order_free_dtypes_roundtrip(self, dtype):
        """Their ``dtype.str`` opens with ``|``, the header's separator."""
        arr = np.arange(12).reshape(3, 4).astype(dtype)
        assert arr.dtype.str.startswith("|")
        out = decompress_array(compress_array(arr))
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)


    def test_damaged_stream_raises_value_error(self):
        """``zlib.error`` is not a ``ValueError``; loaders catch the latter."""
        blob = bytearray(deflate(b"preprocessed binary " * 50))
        for pos in range(8, len(blob)):
            blob[pos] ^= 0x5A
        with pytest.raises(ValueError, match="corrupt deflate stream"):
            inflate(bytes(blob))
        with pytest.raises(ValueError, match="corrupt deflate stream"):
            inflate(deflate(b"x" * 500)[:-3])

    def test_inflates_a_memoryview(self):
        raw = b"abc" * 100
        assert inflate(memoryview(b"__" + deflate(raw))[2:]) == raw


class TestPhotoCodec:
    def test_roundtrip_quantised(self, rng):
        pixels = rng.random((3, 8, 8))
        decoded = decode_photo(encode_photo(pixels))
        assert decoded.shape == pixels.shape
        assert np.abs(decoded - pixels).max() <= 1 / 255 + 1e-9

    def test_padding_to_nominal_size(self, rng):
        blob = encode_photo(rng.random((3, 4, 4)), pad_to_bytes=5000)
        assert len(blob) == 5000
        # padded blob still decodes
        decode_photo(blob)

    def test_clipping_out_of_range(self):
        pixels = np.full((1, 2, 2), 2.0)
        assert decode_photo(encode_photo(pixels)).max() <= 1.0

    def test_bad_shape_rejected(self):
        with pytest.raises(CodecError):
            encode_photo(np.zeros((4, 4)))

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            decode_photo(b"garbage-bytes-here-not-a-photo")

    def test_truncated_blob_rejected(self):
        with pytest.raises(CodecError):
            decode_photo(b"x")

    def test_preprocess_normalises(self, rng):
        pixels = rng.random((3, 4, 4))
        out = preprocess(pixels)
        assert out.dtype == np.float32
        assert abs(out.mean()) < 2.0

    def test_preprocessed_roundtrip(self, rng):
        tensor = preprocess(rng.random((3, 5, 5)))
        assert np.allclose(decode_preprocessed(encode_preprocessed(tensor)),
                           tensor)

    def test_preprocessed_bad_magic(self):
        with pytest.raises(CodecError):
            decode_preprocessed(b"AAAA" + b"0" * 20)

    # every undecodable blob is a CodecError — never struct.error, a bare
    # numpy ValueError, or a raw zlib.error
    _PHOTO = encode_photo(np.linspace(0, 1, 48).reshape(3, 4, 4))
    _PREPROCESSED = encode_preprocessed(
        preprocess(np.linspace(0, 1, 48).reshape(3, 4, 4)))

    @pytest.mark.parametrize("blob", [
        pytest.param(_PHOTO[:10], id="short-header"),
        pytest.param(_PHOTO[:-3], id="truncated"),
        pytest.param(_PHOTO[:-1] + b"\0", id="damaged-checksum"),
        pytest.param(_PHOTO[:20] + b"\xff\xff" + _PHOTO[22:],
                     id="damaged-stream"),
    ])
    def test_decode_photo_rejects_with_codec_error(self, blob):
        with pytest.raises(CodecError) as caught:
            decode_photo(blob)
        assert type(caught.value) is CodecError

    _BAD_PREPROCESSED = [
        pytest.param(_PREPROCESSED[:5], id="short-header"),
        pytest.param(_PREPROCESSED[:-3], id="truncated"),
        pytest.param(_PREPROCESSED + b"\0\0\0\0", id="trailing-bytes"),
        pytest.param(b"NDPP\x03\x00\x04\x00\x05" + _PREPROCESSED[9:],
                     id="header-payload-mismatch"),
    ]

    @pytest.mark.parametrize("blob", _BAD_PREPROCESSED)
    def test_decode_preprocessed_rejects_with_codec_error(self, blob):
        with pytest.raises(CodecError) as caught:
            decode_preprocessed(blob)
        assert type(caught.value) is CodecError

    @pytest.mark.parametrize("blob", _BAD_PREPROCESSED)
    def test_decode_preprocessed_into_rejects_with_codec_error(self, blob):
        out = np.full((3, 4, 4), 7.0, dtype=np.float32)
        with pytest.raises(CodecError) as caught:
            decode_preprocessed_into(blob, out)
        assert type(caught.value) is CodecError
        assert (out == 7.0).all()  # nothing landed

    def test_photo_sizes_fraction(self):
        sizes = PhotoSizes()
        assert sizes.preprocessed_fraction == pytest.approx(0.179, abs=0.01)


class TestVolume:
    def test_reserve_and_release(self):
        vol = Volume(capacity_bytes=100)
        vol.reserve(60)
        assert vol.free_bytes == 40
        vol.release(10)
        assert vol.used_bytes == 50

    def test_full_volume_raises(self):
        vol = Volume(capacity_bytes=10)
        with pytest.raises(StorageFullError):
            vol.reserve(11)

    def test_release_too_much(self):
        vol = Volume(capacity_bytes=10)
        with pytest.raises(ValueError):
            vol.release(1)

    def test_negative_reserve(self):
        with pytest.raises(ValueError):
            Volume(10).reserve(-1)

    def test_negative_release(self):
        # regression: release(-n) used to *grow* used_bytes silently
        vol = Volume(capacity_bytes=100)
        vol.reserve(50)
        with pytest.raises(ValueError, match="negative"):
            vol.release(-10)
        assert vol.used_bytes == 50

    def test_fill_fraction(self):
        vol = Volume(capacity_bytes=100)
        vol.reserve(25)
        assert vol.fill_fraction == 0.25
        assert Volume(0).fill_fraction == 1.0


class TestObjectStore:
    def test_put_get_roundtrip(self):
        store = ObjectStore()
        store.put("k", b"data")
        assert store.get("k") == b"data"

    def test_missing_key(self):
        with pytest.raises(MissingObjectError):
            ObjectStore().get("nope")
        with pytest.raises(MissingObjectError):
            ObjectStore().delete("nope")
        with pytest.raises(MissingObjectError):
            ObjectStore().size_of("nope")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            ObjectStore().put("", b"x")

    def test_overwrite_adjusts_volume(self):
        store = ObjectStore(Volume(100))
        store.put("k", b"aaaa")
        store.put("k", b"aa")
        assert store.volume.used_bytes == 2
        store.put("k", b"aaaaaaaa")
        assert store.volume.used_bytes == 8

    def test_delete_frees_space(self):
        store = ObjectStore(Volume(10))
        store.put("k", b"12345")
        store.delete("k")
        assert store.volume.used_bytes == 0
        assert not store.exists("k")

    def test_capacity_enforced(self):
        store = ObjectStore(Volume(4))
        with pytest.raises(StorageFullError):
            store.put("k", b"12345")

    def test_keys_prefix_sorted(self):
        store = ObjectStore()
        store.put("raw/b", b"1")
        store.put("raw/a", b"1")
        store.put("preproc/a", b"1")
        assert store.keys("raw/") == ["raw/a", "raw/b"]
        assert store.photo_ids() == ["a", "b"]

    def test_io_accounting(self):
        store = ObjectStore()
        store.put("k", b"abcd")
        store.get("k")
        store.get("k")
        assert store.bytes_written == 4
        assert store.bytes_read == 8

    def test_restore_object_reinstates_without_workload_accounting(self):
        store = ObjectStore(Volume(16))
        store.restore_object("k", b"abcd", crc=123)
        assert store.peek("k") == b"abcd"
        assert store.stored_crc("k") == 123 and not store.verify("k")
        assert (store.bytes_written, store.volume.used_bytes) == (0, 4)
        store.restore_object("k", b"ab", crc=zlib.crc32(b"ab"))
        assert store.verify("k") and store.volume.used_bytes == 2
        with pytest.raises(StorageFullError):
            store.restore_object("big", b"x" * 15, crc=0)
        with pytest.raises(ValueError):
            store.restore_object("", b"x", crc=0)

    def test_preprocessed_overhead(self):
        store = ObjectStore()
        store.put(store.raw_key("p"), b"x" * 82)
        store.put(store.preproc_key("p"), b"y" * 18)
        assert store.preprocessed_overhead() == pytest.approx(0.18)
        assert ObjectStore().preprocessed_overhead() == 0.0

    @settings(max_examples=20, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=0, max_size=64), max_size=10))
    def test_property_volume_usage_equals_sum_of_sizes(self, payloads):
        store = ObjectStore()
        for i, blob in enumerate(payloads):
            store.put(f"k{i}", blob)
        assert store.volume.used_bytes == sum(len(b) for b in payloads)


class TestPhotoDatabase:
    def _record(self, pid="p1", label=3, version=0, location="s0"):
        return LabelRecord(photo_id=pid, label=label, model_version=version,
                           location=location)

    def test_upsert_and_lookup(self):
        db = PhotoDatabase()
        assert db.upsert(self._record()) is True
        assert db.lookup("p1").label == 3
        assert "p1" in db and len(db) == 1

    def test_upsert_same_label_returns_false(self):
        db = PhotoDatabase()
        db.upsert(self._record())
        assert db.upsert(self._record(version=1)) is False

    def test_stale_write_rejected(self):
        db = PhotoDatabase()
        db.upsert(self._record(version=2))
        with pytest.raises(ValueError, match="stale"):
            db.upsert(self._record(version=1))

    def test_search_index_follows_updates(self):
        db = PhotoDatabase()
        db.upsert(self._record(label=3))
        db.upsert(self._record(label=5, version=1))
        assert db.search(3) == []
        assert db.search(5) == ["p1"]

    def test_history_grows(self):
        db = PhotoDatabase()
        db.upsert(self._record(label=1))
        db.upsert(self._record(label=2, version=1))
        assert [r.label for r in db.history("p1")] == [1, 2]

    def test_outdated_ids(self):
        db = PhotoDatabase()
        db.upsert(self._record(pid="a", version=0))
        db.upsert(self._record(pid="b", version=2))
        assert db.outdated_ids(2) == ["a"]

    def test_ids_at_location(self):
        db = PhotoDatabase()
        db.upsert(self._record(pid="a", location="s0"))
        db.upsert(self._record(pid="b", location="s1"))
        assert db.ids_at("s1") == ["b"]

    def test_version_counts(self):
        db = PhotoDatabase()
        db.upsert(self._record(pid="a", version=0))
        db.upsert(self._record(pid="b", version=1))
        assert db.version_counts() == {0: 1, 1: 1}

    def test_fraction_changed_since(self):
        db = PhotoDatabase()
        db.upsert(self._record(pid="a", label=1))
        db.upsert(self._record(pid="b", label=2))
        baseline = db.snapshot_labels()
        db.upsert(self._record(pid="a", label=9, version=1))
        assert db.fraction_changed_since(baseline) == 0.5
        with pytest.raises(ValueError):
            db.fraction_changed_since({})

    def test_missing_lookup(self):
        with pytest.raises(KeyError):
            PhotoDatabase().lookup("ghost")
