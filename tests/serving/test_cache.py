"""Content-addressed feature-row cache: hits, LRU eviction, determinism."""

import numpy as np
import pytest

from repro.serving.cache import TensorCache, content_key


DIGEST = b"front-a"


def _pixels(seed, shape=(3, 8, 8)):
    return np.random.default_rng(seed).random(shape).astype(np.float64)


def _row(seed, width=64):
    """A split-point feature row: (width,) float64, width * 8 bytes."""
    return np.random.default_rng(seed).random(width)


def _key(seed, digest=DIGEST):
    return (content_key(_pixels(seed)), digest)


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
    row = _row(1)
    keys, missed = cache.lookup([pixels], DIGEST)
    assert missed == [0] and keys == [_key(0)]
    cache.insert(keys, row[None])
    assert keys[0] in cache
    keys2, hit = cache.lookup([pixels], DIGEST)
    assert keys2 == keys
    np.testing.assert_array_equal(hit[0], row)
    assert hit[0].dtype == row.dtype
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["resident_bytes"] == row.nbytes


def test_key_is_content_plus_front_digest():
    """The same pixels under another front are a different entry."""
    cache = TensorCache(capacity_bytes=1 << 20)
    keys, _ = cache.lookup([_pixels(0)], DIGEST)
    cache.insert(keys, _row(0)[None])
    _, other_front = cache.lookup([_pixels(0)], b"front-b")
    assert other_front == [0]
    _, same_front = cache.lookup([_pixels(0)], DIGEST)
    np.testing.assert_array_equal(same_front[0], _row(0))
    assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 1


def test_repeat_of_a_miss_in_one_batch_is_one_miss():
    """Every photo is one probe; a repeat of a key that missed earlier
    in the batch shares that miss's index and is a hit (the batch
    computes that row once)."""
    cache = TensorCache(capacity_bytes=1 << 20)
    photos = [_pixels(0), _pixels(1), _pixels(0), _pixels(0)]
    keys, rows = cache.lookup(photos, DIGEST)
    assert rows == [0, 1, 0, 0] and keys[0] == keys[2] == keys[3]
    assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 2


def test_lru_evicts_oldest_first():
    size = _row(0).nbytes
    cache = TensorCache(capacity_bytes=2 * size + size // 2)
    for i in range(3):
        cache.insert([_key(i)], _row(i)[None])  # the third evicts 0
    assert _key(0) not in cache
    assert _key(1) in cache and _key(2) in cache
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["resident_bytes"] == 2 * size == cache.resident_bytes


def test_hit_renews_lru_position():
    size = _row(0).nbytes
    cache = TensorCache(capacity_bytes=2 * size + size // 2)
    cache.insert([_key(0), _key(1)], np.stack([_row(0), _row(1)]))
    cache.lookup([_pixels(0)], DIGEST)  # renew 0; now 1 is the LRU victim
    cache.insert([_key(2)], _row(2)[None])
    assert _key(0) in cache
    assert _key(1) not in cache


def test_byte_budget_balances_against_row_bytes():
    """Resident bytes are the sum of the resident rows' bytes, whatever
    mix of inserts, renewals and evictions got them there."""
    rng = np.random.default_rng(5)
    cache = TensorCache(capacity_bytes=10 * _row(0).nbytes)
    for step in range(200):
        seeds = rng.integers(0, 30, size=rng.integers(1, 6))
        keys, _rows = cache.lookup([_pixels(int(s)) for s in seeds], DIGEST)
        cache.insert(keys, np.stack([_row(int(s)) for s in seeds]))
        stats = cache.stats()
        assert stats["resident_bytes"] == stats["entries"] * _row(0).nbytes
        assert stats["resident_bytes"] <= cache.capacity_bytes
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] > 0
    assert stats["entries"] == 10 and stats["evictions"] > 0


def test_oversized_blob_is_not_inserted():
    cache = TensorCache(capacity_bytes=8)
    cache.insert(["key"], _row(0)[None])
    assert "key" not in cache and len(cache) == 0
    assert cache.resident_bytes == 0


def test_reinsert_same_key_does_not_double_count():
    cache = TensorCache(capacity_bytes=1 << 20)
    cache.insert(["key"], _row(0)[None])
    cache.insert(["key"], _row(0)[None])
    assert cache.resident_bytes == _row(0).nbytes and len(cache) == 1


@pytest.mark.parametrize("kwargs", [
    {"capacity_bytes": -1},
])
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        TensorCache(**kwargs)


def test_oversize_insert_is_rejected_and_counted():
    cache = TensorCache(capacity_bytes=8)
    keys, missed = cache.lookup([_pixels(0)], DIGEST)
    assert missed == [0]
    cache.insert(keys, _row(1)[None])
    assert keys[0] not in cache     # nothing was cached
    stats = cache.stats()
    assert stats["rejected_oversize"] == 1
    assert stats["entries"] == 0 and stats["resident_bytes"] == 0
    assert stats["evictions"] == 0  # rejection never evicts residents
    # the next lookup of the same pixels is an honest miss again
    _, again = cache.lookup([_pixels(0)], DIGEST)
    assert again == [0]
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


def test_hit_is_a_read_only_copy_of_the_inserted_row():
    """The cache keeps its own copy (a resident row must not pin the
    batch it came from) and hands it out read-only, without copying."""
    cache = TensorCache(capacity_bytes=1 << 20)
    batch = np.stack([_row(1), _row(2)])
    keys, _ = cache.lookup([_pixels(0), _pixels(1)], DIGEST)
    cache.insert(keys, batch)
    _, first = cache.lookup([_pixels(0)], DIGEST)
    _, again = cache.lookup([_pixels(0)], DIGEST)
    assert first[0].base is None and not first[0].flags.writeable
    assert again[0] is first[0]
    batch[0] = 0.0
    np.testing.assert_array_equal(first[0], _row(1))
