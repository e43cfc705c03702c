"""The serving traces' one sampler: its draws and what a trace holds.

- the Zipf rank drawn by bisecting a CDF built once is the draw
  ``Generator.choice(n, p=p)`` makes, double for double;
- each generator's trace is pinned by a digest of every request id,
  arrival time, label and pixel byte (captured before the sampler was
  rewritten; a change here means re-blessing ``BENCH_serving*.json``
  and both serve workloads' logical metrics);
- a trace holds one array per distinct drawn rank, not the pool.
"""

import gc
import hashlib
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from repro.workloads.continuous import (
    _zipf_cdf,
    diurnal_requests,
    flash_crowd_requests,
    open_loop_requests,
)


@pytest.mark.parametrize("skew", [0.0, 1.1])
@pytest.mark.parametrize("n", [1, 5, 64, 800])
def test_the_cdf_draw_is_generator_choice(n, skew):
    weights = 1.0 / np.arange(1, n + 1) ** skew
    p = weights / weights.sum()
    cdf = _zipf_cdf(n, skew)
    ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
    got = [bisect_right(cdf, ours.random()) for _ in range(10_000)]
    want = [int(theirs.choice(n, p=p)) for _ in range(10_000)]
    assert got == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def digest(trace):
    h = hashlib.sha256()
    for r in trace:
        h.update(repr((r.request_id, r.arrival_s.hex(), r.train_label))
                 .encode())
        h.update(r.pixels.tobytes())
    return h.hexdigest()


TRACES = {
    "open_loop": lambda seed: open_loop_requests(300, 800.0, seed=seed),
    "open_loop_ladder": lambda seed: open_loop_requests(
        200, 500.0, seed=seed, pool_size=200, skew=0.0, pool_seed=seed + 9),
    "diurnal": lambda seed: diurnal_requests(
        300, 100.0, 2000.0, 0.5, seed=seed),
    "flash": lambda seed: flash_crowd_requests(
        400, 200.0, 4000.0, 0.5, 0.25, seed=seed, pool_size=32, skew=0.8),
}

GOLDEN = {
    ("open_loop", 0):
        "23e4d9462d785027368e8bcc1de6becc8899b403fe7258c03fe4591ecb54713d",
    ("open_loop", 7):
        "48b80d1010a31308bc5c67a01a6d7fef50937d95e717a7c99f0818ec396f9e85",
    ("open_loop_ladder", 0):
        "4e2ee6b9bf490b21acc2b2e1b67b7128618f1a10c2b9c85083261667b04b9a85",
    ("open_loop_ladder", 7):
        "d5e5361727d533f7a511252dc2d97e18774ff0ee12dbb338982b2384c53a0208",
    ("diurnal", 0):
        "7d0f934ebe2419926f634a9aa0ab4e94d9812056e4c1f223e19257f29a93b2f4",
    ("diurnal", 7):
        "cdead622aa787fec8ee3d6bd839c336354edce8cb4dc93daa493af11eaaf6e7b",
    ("flash", 0):
        "840ed73f3ee1eb2382ac9e195f68e88f776f54ec44a34a236578b77e1fc5f7bf",
    ("flash", 7):
        "2cccbc69e0c6eb3c215f269fef93e5840439dda887013d28af1bcc5fb96500c4",
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_each_trace_is_pinned(name, seed):
    assert digest(TRACES[name](seed)) == GOLDEN[name, seed]


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_trace_holds_only_the_rows_it_drew(no_collector):
    row_bytes = 3 * 16 * 16 * 8
    tracemalloc.start()
    try:
        trace = open_loop_requests(800, 500.0, pool_size=800, skew=0.0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    by_content = {}
    for r in trace:
        by_content.setdefault(r.pixels.tobytes(), set()).add(id(r.pixels))
    distinct = len(by_content)
    buffers = {id(r.pixels): r.pixels for r in trace}
    # skew 0 over as many rows as requests draws about 1 - 1/e of them
    assert 0.55 * 800 < distinct < 0.7 * 800
    assert all(len(ids) == 1 for ids in by_content.values())
    assert len(buffers) == distinct
    assert sum(a.nbytes for a in buffers.values()) == distinct * row_bytes
    assert all(r.pixels.base is None for r in trace)
    # the 800-row pool is gone, not merely unreferenced by the requests
    assert held < 800 * row_bytes
