"""Ablation: deflate level for preprocessed binaries (§5.4 +Comp).

The paper stores preprocessed binaries deflate-compressed to cut the
17.5% storage overhead.  This ablation runs *real zlib* over realistic
preprocessed tensors (smooth image statistics, fp32) and reports the
ratio / speed trade-off across compression levels, plus the storage
overhead with and without compression.

A second table puts level 6 over the fp32 binary beside the 8-bit codes
the landing path stores (:data:`~repro.storage.compression.CODES`,
inflated back to that same binary), on those uint8-derived tensors and
on the world's photos through the front door.  Both repeat byte patterns
LZ77 can match, yet level 6 over the fp32 binary never gets near holding
the codes themselves.
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.data import DriftingPhotoWorld, WorldConfig
from repro.storage.compression import CODES, Codec, deflate, inflate
from repro.storage.imageformat import (encode_codes, encode_preprocessed,
                                       model_input, quantise)

PIXEL_CODECS = {
    "level 6": Codec(6),
    "8-bit codes": CODES,
}


def make_codes(seed: int = 0, size: int = 96) -> np.ndarray:
    """The 8-bit codes of a realistic decoded image.

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
    return quantise(tensor)  # the decoded JPEG


def world_codes(count: int = 256) -> list:
    """World photos through the front door."""
    x, _ = DriftingPhotoWorld(WorldConfig()).sample(
        count, 0, rng=np.random.default_rng(0))
    return list(quantise(x))


def measure(codes, codec):
    """Deflate each photo's fp32 binary with ``codec`` (for :data:`CODES`,
    its code binary) and check it inflates to that fp32 binary."""
    blobs = [encode_preprocessed(model_input(c)) for c in codes]
    inputs = [encode_codes(c) for c in codes] if codec.codes else blobs
    raw_bytes = sum(len(b) for b in blobs)
    start = time.perf_counter()
    compressed = [deflate(b, codec) for b in inputs]
    compress_s = time.perf_counter() - start
    start = time.perf_counter()
    for blob, raw in zip(compressed, blobs):
        assert inflate(blob) == raw
    decompress_s = time.perf_counter() - start
    comp_bytes = sum(len(b) for b in compressed)
    return {
        "ratio": raw_bytes / comp_bytes,
        "compress_mbps": raw_bytes / 1e6 / compress_s,
        "decompress_mbps": comp_bytes / 1e6 / decompress_s,
    }


def run_sweep():
    codes = [make_codes(seed) for seed in range(8)]
    rows = [{"level": level, **measure(codes, Codec(level))}
            for level in (1, 3, 6, 9)]
    payloads = {"uint8-derived": codes, "world codes": world_codes()}
    codec_rows = [{"payload": payload, "codec": name,
                   **measure(items, codec)}
                  for payload, items in payloads.items()
                  for name, codec in PIXEL_CODECS.items()]
    return rows, codec_rows


def test_ablation_compression(benchmark, report):
    rows, codec_rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)

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
    table += "\n\n" + format_table(
        ["payload", "codec", "compression ratio", "compress MB/s",
         "decompress MB/s (compressed)"],
        [[r["payload"], r["codec"], r["ratio"], r["compress_mbps"],
          r["decompress_mbps"]] for r in codec_rows],
        title="Pixel codecs: uint8-derived tensors and world photos",
    )
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

    ratio = {(r["payload"], r["codec"]): r["ratio"] for r in codec_rows}
    # the world's photos are noise: only the codes themselves shrink them
    # (4x less payload), and by far the most
    assert ratio["world codes", "8-bit codes"] > 1.5 * ratio[
        "world codes", "level 6"]
