"""Content-addressed cache of split-point feature rows (§5.3–§5.4, one
stage later).

The paper keeps preprocessed binaries so the expensive per-photo CPU
step runs once.  Serving pushes that one stage further, as the PipeStore
``feat/`` rows already do: an entry is the photo's row at the serving
cut — ``forward_until(split)`` with ``split = model.num_stages - 1``,
everything before the classifier — so a hit skips the preprocess *and*
the frozen front, and its request costs only the classifier tail.

A key is the content hash (bytes + dtype + shape) of the photo's 8-bit
codes — what the batch's front door
(:func:`~repro.storage.imageformat.quantise`) made of its pixels, so two
uploads that round to the same codes share one entry — together with
the digest of the serving replica's front value (``InferenceServer.
front_digest``, computed once when the :class:`~repro.models.split.
FrozenFront` was made): identical codes through an identical front
always map to the same entry, whatever the arrival order, and a replica
rebound to another front (``sync_model`` with new front weights) has
another digest, so every old entry misses.  A classifier-only delta
leaves the value — and every entry — valid.  The key holds the digest's
bytes, not the value, so a cache never pins a dead front.

Rows are held as plain read-only fp32 arrays, nothing is deflated or
narrowed (an 8-bit row would change the tail's answers); eviction is LRU
by row bytes against a fixed budget.  A row a replica's pooled front has
not computed yet is held as its promise
(:class:`~repro.core.dataplane.PendingRow`), charged the probed row
size, so the books move exactly as if the row were there.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from ..core.dataplane import PendingRow

__all__ = ["TensorCache", "content_key"]

#: an entry's key: (content hash of the codes, front digest)
CacheKey = Tuple[str, bytes]


@functools.lru_cache(maxsize=64)
def _key_suffix(dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """``str(dtype) + str(shape)``, encoded once per (dtype, shape):
    numpy's ``str(dtype)`` is Python-level and cost half a key."""
    return f"{dtype}{shape}".encode()


def content_key(photo: np.ndarray) -> str:
    """Content address of one photo's array (its 8-bit codes, when the
    serving batch probes): hash of bytes, dtype, and shape."""
    digest = hashlib.sha1()
    # hashed in place (buffer protocol): a contiguous array is not copied
    digest.update(np.ascontiguousarray(photo))
    digest.update(_key_suffix(photo.dtype, photo.shape))
    return digest.hexdigest()


class TensorCache:
    """LRU cache of split-point feature rows under a byte budget."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        #: key -> read-only feature row (or a front's promise of one)
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected_oversize = 0

    def lookup(self, photos: Sequence[np.ndarray], digest: bytes,
               ) -> Tuple[List[CacheKey], List[Union[np.ndarray, int]]]:
        """Probe one batch of photos — each its 8-bit codes, or a stacked
        (N, C, H, W) array of them — against the front named by ``digest``.

        Returns ``(keys, rows)``: ``rows[i]`` is photo ``i``'s cached row
        (a read-only array, or the promise of one a front still owes; the
        hit renews its LRU position) or, on a miss, the index of its row
        among the batch's distinct misses.
        Every photo is one probe.  A photo repeating a key that missed
        earlier in the same batch gets that miss's index and counts as a
        hit — the batch computes the row once and the repeat reuses it.
        """
        keys = [(content_key(photo), digest) for photo in photos]
        rows: List[Union[np.ndarray, "PendingRow", int]] = []
        missed: Dict[CacheKey, int] = {}
        for key in keys:
            row = self._entries.get(key)
            if row is not None:
                if not isinstance(row, np.ndarray) and (
                        row.computed() is not None):
                    # a promise whose front has run is its row now
                    row = self._entries[key] = row.computed()
                self._entries.move_to_end(key)
                self._hits += 1
            elif key in missed:
                row = missed[key]
                self._hits += 1
            else:
                row = missed[key] = len(missed)
                self._misses += 1
            rows.append(row)
        return keys, rows

    def insert(self, keys: Sequence[CacheKey],
               rows: Sequence[Union[np.ndarray, "PendingRow"]]) -> None:
        """Keep fresh rows, ``rows[i]`` under ``keys[i]``.

        A row is an array or a :class:`~repro.core.dataplane.PendingRow`
        its replica's pooled front still owes: the entry is charged the
        promise's ``nbytes`` now, and becomes the row itself on the first
        hit after the front ran.
        """
        for key, row in zip(keys, rows):
            if row.nbytes > self.capacity_bytes:
                # would evict everything and still not fit; count it so
                # a never-cacheable photo recomputed forever is visible
                self._rejected_oversize += 1
                continue
            if isinstance(row, np.ndarray):
                # a copy, not a view: a resident row must not pin its
                # batch
                row = row.copy()
                row.flags.writeable = False
            old = self._entries.pop(key, None)
            if old is not None:
                self._resident_bytes -= old.nbytes
            self._entries[key] = row
            self._resident_bytes += row.nbytes
            while self._resident_bytes > self.capacity_bytes:
                _evicted_key, evicted = self._entries.popitem(last=False)
                self._resident_bytes -= evicted.nbytes
                self._evictions += 1

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "resident_bytes": self._resident_bytes,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "rejected_oversize": self._rejected_oversize,
        }
