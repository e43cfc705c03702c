"""Ablation: deflate level for preprocessed binaries (§5.4 +Comp).

The paper stores preprocessed binaries deflate-compressed to cut the
17.5% storage overhead.  This ablation runs *real zlib* over realistic
preprocessed tensors (smooth image statistics, fp32) and reports the
ratio / speed trade-off across compression levels, plus the storage
overhead with and without compression.
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.storage.compression import Codec, deflate, inflate
from repro.storage.imageformat import encode_preprocessed


def make_preprocessed_binary(seed: int = 0, size: int = 96) -> bytes:
    """A realistic preprocessed tensor.

    Crucially, real preprocessed binaries are normalised *decoded pixels*:
    each float comes from one of 256 uint8 values, which is exactly the
    redundancy deflate exploits (the paper's §5.4 trick).  A tensor of
    free-floating fp32 noise would barely compress.
    """
    rng = np.random.default_rng(seed)
    # sum of low-frequency gratings + mild noise, like natural images
    y, x = np.mgrid[0:size, 0:size] / size
    channels = []
    for c in range(3):
        img = sum(
            rng.normal() * np.sin(2 * np.pi * (fx * x + fy * y))
            for fx, fy in [(1, 0), (0, 1), (2, 1), (1, 3)]
        )
        img = img + rng.normal(0, 0.05, size=img.shape)
        channels.append(img)
    tensor = np.stack(channels)
    tensor = (tensor - tensor.min()) / (tensor.max() - tensor.min() + 1e-9)
    pixels = (tensor * 255).astype(np.uint8)  # the decoded JPEG
    preprocessed = ((pixels / 255.0 - 0.485) / 0.229).astype(np.float32)
    return encode_preprocessed(preprocessed)


def run_sweep():
    blobs = [make_preprocessed_binary(seed) for seed in range(8)]
    raw_bytes = sum(len(b) for b in blobs)
    rows = []
    for level in (1, 3, 6, 9):
        start = time.perf_counter()
        compressed = [deflate(b, Codec(level)) for b in blobs]
        compress_s = time.perf_counter() - start
        start = time.perf_counter()
        for blob in compressed:
            inflate(blob)
        decompress_s = time.perf_counter() - start
        comp_bytes = sum(len(b) for b in compressed)
        rows.append({
            "level": level,
            "ratio": raw_bytes / comp_bytes,
            "compress_mbps": raw_bytes / 1e6 / compress_s,
            "decompress_mbps": comp_bytes / 1e6 / decompress_s,
        })
    return rows, raw_bytes


def test_ablation_compression(benchmark, report):
    rows, raw_bytes = benchmark.pedantic(run_sweep, iterations=1, rounds=1)

    table = format_table(
        ["deflate level", "compression ratio", "compress MB/s",
         "decompress MB/s (compressed)"],
        [[r["level"], r["ratio"], r["compress_mbps"], r["decompress_mbps"]]
         for r in rows],
        title="Ablation: deflate level on preprocessed fp32 binaries",
    )

    # storage-overhead arithmetic from §5.4
    raw, pre = 2_700_000, 590_000
    best_ratio = max(r["ratio"] for r in rows)
    uncompressed_overhead = pre / (raw + pre)
    compressed_overhead = (pre / best_ratio) / (raw + pre / best_ratio)
    table += (f"\nstorage overhead of preprocessed binaries: "
              f"{uncompressed_overhead * 100:.1f}% raw (paper: 17.5%), "
              f"{compressed_overhead * 100:.1f}% deflated")
    report("ablation_compression", table)

    ratios = [r["ratio"] for r in rows]
    # higher levels compress at least as well (tiny inversions tolerated)
    for lo, hi in zip(ratios[:-1], ratios[1:]):
        assert hi >= lo * 0.995
    # the measured ratio brackets the catalog's calibrated 2.86x
    assert ratios[0] > 2.0
    assert ratios[-1] > 2.86
    assert uncompressed_overhead == pytest.approx(0.179, abs=0.01)
    assert compressed_overhead < uncompressed_overhead
    # decompression is far cheaper than compression (why PipeStores can
    # afford it with two cores)
    assert all(r["decompress_mbps"] > r["compress_mbps"] for r in rows[2:])
