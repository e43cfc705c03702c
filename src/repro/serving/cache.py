"""Content-addressed preprocessed-tensor cache (§5.4 reused online).

The paper's +Offload/+Comp artifacts — preprocessed fp32 binaries,
deflate-compressed — exist because preprocessing is the expensive CPU
step and the compressed binary is the cheap one to move and keep.  The
online path gets the same artifact here: the first upload of a given
photo pays the preprocess cost and leaves a compressed tensor behind;
every re-upload of identical content (retries, shared photos, thumbnail
refreshes) is a cache hit that only pays a deflate inflate.

Keys are content hashes of the raw pixels (bytes + dtype + shape), so
hits are deterministic across arrival orders and seeds: identical pixels
always map to the same entry.  Eviction is LRU by compressed bytes
against a fixed budget.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..lint.guards import guarded_by
from ..storage.compression import compress_array, inflate

__all__ = ["TensorCache", "content_key"]


def content_key(pixels: np.ndarray) -> str:
    """Content address of one photo: hash of bytes, dtype, and shape."""
    digest = hashlib.sha1()
    # hashed in place (buffer protocol): contiguous pixels are not copied
    digest.update(np.ascontiguousarray(pixels))
    digest.update(str(pixels.dtype).encode())
    digest.update(str(pixels.shape).encode())
    return digest.hexdigest()


@guarded_by("_lock", "_entries", "_resident_bytes", "_hits", "_misses",
            "_evictions", "_rejected_oversize")
class TensorCache:
    """LRU cache of deflate-compressed preprocessed tensors."""

    def __init__(self, capacity_bytes: int, compression_level: int = 6):
        if capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}")
        if not 0 <= compression_level <= 9:
            raise ValueError(
                f"compression_level must be in [0, 9], got "
                f"{compression_level}")
        self.capacity_bytes = capacity_bytes
        self.compression_level = compression_level
        self._lock = threading.Lock()
        #: key -> (deflated blob, dtype, shape)
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected_oversize = 0

    def lookup(self, pixels: np.ndarray,
               ) -> Tuple[str, Optional[np.ndarray], int]:
        """Probe for a photo's preprocessed tensor.

        Returns ``(key, tensor_or_None, compressed_bytes)``; a hit
        inflates the stored blob (bit-exact fp32 round-trip) and renews
        the entry's LRU position.  The tensor is a read-only view of the
        inflated bytes — the batch body copies it once, into its row.
        """
        key = content_key(pixels)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return key, None, 0
            self._entries.move_to_end(key)
            self._hits += 1
        blob, dtype, shape = entry
        raw = inflate(blob)
        # compress_array frames ``dtype|shape|`` before the payload: the
        # payload is the tail, read in place (no parse, no copy)
        offset = len(raw) - math.prod(shape) * dtype.itemsize
        return (key, np.frombuffer(raw, dtype, offset=offset).reshape(shape),
                len(blob))

    def insert(self, key: str, tensor: np.ndarray) -> int:
        """Store a freshly preprocessed tensor; returns its blob size."""
        blob = compress_array(tensor, level=self.compression_level)
        with self._lock:
            if len(blob) > self.capacity_bytes:
                # would evict everything and still not fit; count it so a
                # never-cacheable photo re-preprocessed forever is visible
                self._rejected_oversize += 1
                return len(blob)
            old = self._entries.pop(key, None)
            if old is not None:
                self._resident_bytes -= len(old[0])
            self._entries[key] = (blob, tensor.dtype, tensor.shape)
            self._resident_bytes += len(blob)
            while self._resident_bytes > self.capacity_bytes:
                _evicted_key, evicted = self._entries.popitem(last=False)
                self._resident_bytes -= len(evicted[0])
                self._evictions += 1
        return len(blob)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": self._resident_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "rejected_oversize": self._rejected_oversize,
            }
