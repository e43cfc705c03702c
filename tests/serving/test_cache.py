"""Content-addressed tensor cache: hits, LRU eviction, determinism."""

import numpy as np
import pytest

from repro.serving.cache import TensorCache, content_key


def _pixels(seed, shape=(3, 8, 8)):
    return np.random.default_rng(seed).random(shape).astype(np.float64)


def test_content_key_depends_on_bytes_dtype_shape():
    a = _pixels(0)
    assert content_key(a) == content_key(a.copy())
    assert content_key(a) != content_key(_pixels(1))
    assert content_key(a) != content_key(a.astype(np.float32))
    assert content_key(a) != content_key(a.reshape(3, 4, 16))
    # content addressing ignores memory layout
    assert content_key(a) == content_key(
        np.asfortranarray(a).copy(order="F"))


def test_hit_round_trip_is_bit_exact():
    cache = TensorCache(capacity_bytes=1 << 20)
    pixels = _pixels(0)
    tensor = np.random.default_rng(1).random((3, 8, 8)).astype(np.float32)
    key, missed, blob_bytes = cache.lookup(pixels)
    assert missed is None and blob_bytes == 0
    inserted_bytes = cache.insert(key, tensor)
    assert inserted_bytes > 0 and key in cache
    key2, hit, hit_bytes = cache.lookup(pixels)
    assert key2 == key and hit_bytes == inserted_bytes
    np.testing.assert_array_equal(hit, tensor)
    assert hit.dtype == tensor.dtype
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["resident_bytes"] == inserted_bytes


def test_lru_evicts_oldest_first():
    tensors = {i: np.random.default_rng(i).random((3, 8, 8))
               .astype(np.float32) for i in range(3)}
    keys = {}
    probe = TensorCache(capacity_bytes=1 << 20)
    for i, t in tensors.items():
        keys[i] = content_key(_pixels(i))
        probe.insert(keys[i], t)
    blob_size = probe.resident_bytes // 3

    cache = TensorCache(capacity_bytes=2 * blob_size + blob_size // 2)
    cache.insert(keys[0], tensors[0])
    cache.insert(keys[1], tensors[1])
    cache.insert(keys[2], tensors[2])  # evicts 0, the oldest
    assert keys[0] not in cache
    assert keys[1] in cache and keys[2] in cache
    assert cache.stats()["evictions"] == 1


def test_hit_renews_lru_position():
    tensors = {i: np.random.default_rng(i).random((3, 8, 8))
               .astype(np.float32) for i in range(3)}
    probe = TensorCache(capacity_bytes=1 << 20)
    for i, t in tensors.items():
        probe.insert(content_key(_pixels(i)), t)
    blob_size = probe.resident_bytes // 3

    cache = TensorCache(capacity_bytes=2 * blob_size + blob_size // 2)
    cache.insert(content_key(_pixels(0)), tensors[0])
    cache.insert(content_key(_pixels(1)), tensors[1])
    cache.lookup(_pixels(0))  # renew 0; now 1 is the LRU victim
    cache.insert(content_key(_pixels(2)), tensors[2])
    assert content_key(_pixels(0)) in cache
    assert content_key(_pixels(1)) not in cache


def test_oversized_blob_is_not_inserted():
    cache = TensorCache(capacity_bytes=8)
    tensor = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
    blob_bytes = cache.insert("key", tensor)
    assert blob_bytes > 8
    assert "key" not in cache and len(cache) == 0
    assert cache.resident_bytes == 0


def test_reinsert_same_key_does_not_double_count():
    cache = TensorCache(capacity_bytes=1 << 20)
    tensor = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
    size = cache.insert("key", tensor)
    assert cache.insert("key", tensor) == size
    assert cache.resident_bytes == size and len(cache) == 1


@pytest.mark.parametrize("kwargs", [
    {"capacity_bytes": -1},
    {"capacity_bytes": 10, "compression_level": 10},
])
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        TensorCache(**kwargs)


def test_oversize_insert_is_rejected_and_counted():
    cache = TensorCache(capacity_bytes=8)
    tensor = np.random.default_rng(1).random((3, 8, 8)).astype(np.float32)
    key, missed, _ = cache.lookup(_pixels(0))
    assert missed is None
    blob_bytes = cache.insert(key, tensor)
    assert blob_bytes > 8       # the caller still learns the wire size
    assert key not in cache     # ...but nothing was cached
    stats = cache.stats()
    assert stats["rejected_oversize"] == 1
    assert stats["entries"] == 0 and stats["resident_bytes"] == 0
    assert stats["evictions"] == 0  # rejection never evicts residents
    # the next lookup of the same pixels is an honest miss again
    _, again, _ = cache.lookup(_pixels(0))
    assert again is None
    assert cache.stats()["misses"] == 2


def test_content_key_digests_are_pinned():
    """Keys decide the hit/miss sequence of every trace, so hashing the
    buffer in place must not move them — contiguous or not."""
    a = np.arange(60, dtype=np.float64).reshape(3, 4, 5)
    assert content_key(a) == "5b2a7a310386a787d76ca148d19cc01e57cfc4ab"
    view = a[:, ::2, :]
    assert not view.flags.c_contiguous
    assert content_key(view) == "d4edbd3d4c9b70141a688a9e5973e56908a0f32b"
    assert content_key(view) == content_key(view.copy())
    assert content_key(a.T) == "8ca1dadf582c62d0bda537303d30aa018eed1baf"


def test_hit_is_a_read_only_view_of_the_inflated_bytes():
    cache = TensorCache(capacity_bytes=1 << 20)
    tensor = np.random.default_rng(1).random((3, 8, 8)).astype(np.float32)
    key, _missed, _ = cache.lookup(_pixels(0))
    cache.insert(key, tensor)
    _key, hit, _bytes = cache.lookup(_pixels(0))
    assert hit.shape == tensor.shape and not hit.flags.writeable
    assert not hit.flags.owndata      # no payload copy on the hit path
