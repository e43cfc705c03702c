"""The serve hop carries 8-bit codes.

A batch passes the front door once; the cache is keyed on the codes;
the distinct misses cross the frontend -> replica hop as their codes
(one byte a pixel, a quarter of the fp32 model input) and the replica
expands them through ``CODE_TABLE`` only when its pooled front runs.
Cached rows still cross as fp32 feature rows.

- each batch's ``serve`` charge is 768 B per distinct miss plus the
  bytes of the cached rows it ships;
- the pooled front's input is ``model_input`` of the codes that crossed,
  and the rows it promised are ``forward_until`` of that input, bit for
  bit;
- two float uploads that round to the same codes share one entry;
- anything but uint8 codes of the replica's input shape is refused
  before the dispatcher charges it, and by the replica itself.
"""

import numpy as np
import pytest

from repro.core.cluster import InferenceServer
from repro.models.registry import tiny_model
from repro.nn.tensor import Tensor, inference_mode
from repro.serving import ServeRequest, ServingConfig, ServingFrontend
from repro.serving.cache import content_key
from repro.storage.imageformat import model_input, quantise
from repro.workloads.continuous import open_loop_requests

SHAPE = (3, 16, 16)
#: one photo's codes on the wire: a byte a pixel
CODES_BYTES = 3 * 16 * 16


def _frontend(replicas=1, max_batch=256):
    config = ServingConfig(replicas=replicas, max_batch=max_batch)
    return ServingFrontend(
        [InferenceServer(tiny_model("ResNet50", seed=i), name=f"replica-{i}")
         for i in range(replicas)], config)


def _serve_bytes(frontend):
    return frontend.network.kinds().get("serve", 0)


def test_a_batch_is_charged_its_miss_codes_plus_its_cached_rows():
    frontend = _frontend()
    replica = frontend.dispatcher.replicas[0]
    row_bytes = replica.row_nbytes()
    assert row_bytes == 1024  # hit rows stay fp32
    trace = open_loop_requests(96, 2000.0, seed=5, pool_size=20)
    resident = set()
    for start in range(0, len(trace), 12):
        batch = trace[start:start + 12]
        keys = [content_key(quantise(r.pixels)) for r in batch]
        misses = {key for key in keys if key not in resident}
        cached = sum(key in resident for key in keys)
        before = _serve_bytes(frontend)
        frontend.batcher.run(batch, float(start))
        assert _serve_bytes(frontend) - before == (
            CODES_BYTES * len(misses) + row_bytes * cached)
        resident |= misses
    assert frontend.cache.stats()["evictions"] == 0


def test_the_pooled_input_is_the_table_read_of_the_codes_that_crossed(
        monkeypatch):
    frontend = _frontend(max_batch=256)
    replica = frontend.dispatcher.replicas[0]
    sent, promised, fed = [], [], []
    submit = replica.submit

    def spy_submit(misses, rows, flush_at):
        answers, fresh = submit(misses, rows, flush_at)
        if misses is not None:
            sent.append(misses)
            promised.extend(fresh)
        return answers, fresh

    replica.row_nbytes()  # the shape probe runs a forward of its own
    forward_until = replica.model.forward_until

    def spy_forward(x, split):
        fed.append(x.data.copy())
        return forward_until(x, split)

    monkeypatch.setattr(replica, "submit", spy_submit)
    monkeypatch.setattr(replica.model, "forward_until", spy_forward)
    trace = open_loop_requests(60, 2000.0, seed=6, pool_size=30)
    for start in range(0, len(trace), 10):
        frontend.batcher.run(trace[start:start + 10], float(start))
    assert all(m.dtype == np.uint8 and m.shape[1:] == SHAPE for m in sent)
    codes = np.concatenate(sent)
    assert len(promised) == len(codes) > 10
    replica.resolve()
    assert len(fed) == 1  # one pooled front, under max_batch
    assert fed[0].tobytes() == model_input(codes).tobytes()
    with inference_mode():
        want = forward_until(Tensor(model_input(codes)), replica.split).data
    rows = np.stack([row.value() for row in promised])
    assert rows.tobytes() == want.tobytes()


def _near(codes, offset):
    """Float pixels that round to ``codes`` from ``offset`` of a step."""
    return (codes.astype(np.float64) + offset) / 255.0


def test_two_uploads_that_round_alike_share_one_entry():
    codes = quantise(np.random.default_rng(7).random(SHAPE))
    a, b = _near(codes, 0.3), _near(codes, -0.3)
    assert a.tobytes() != b.tobytes()
    np.testing.assert_array_equal(quantise(a), quantise(b))
    frontend = _frontend()
    first = frontend.batcher.run([ServeRequest("a", 0.0, a)], 0.0)
    second = frontend.batcher.run([ServeRequest("b", 0.0, b)], 1.0)
    assert (first.hits, second.hits) == ([False], [True])
    assert len(frontend.cache) == 1
    assert second.results == first.results
    together = _frontend()
    before = _serve_bytes(together)
    batch = together.batcher.run(
        [ServeRequest("a", 0.0, a), ServeRequest("b", 0.0, b)], 0.0)
    assert batch.hits == [False, True] and len(together.cache) == 1
    assert _serve_bytes(together) - before == CODES_BYTES


# -- the contract: only codes cross -------------------------------------------
NOT_CODES = {
    "fp32 inputs": model_input(quantise(
        np.random.default_rng(8).random((2,) + SHAPE))),
    "fp64 pixels": np.random.default_rng(8).random((2,) + SHAPE),
    "codes of another shape": quantise(
        np.random.default_rng(8).random((2, 3, 8, 8))),
    "one photo, unbatched": quantise(np.random.default_rng(8).random(SHAPE)),
}


@pytest.mark.parametrize("what", sorted(NOT_CODES))
def test_dispatch_refuses_misses_that_are_not_codes(what):
    frontend = _frontend()
    dispatcher = frontend.dispatcher
    with pytest.raises(ValueError, match="uint8 codes"):
        dispatcher.dispatch(0, NOT_CODES[what], [0, 1], 0.0)
    assert (dispatcher.batches_attempted, dispatcher.busy_s) == (0, 0.0)
    assert frontend.network.total_bytes == 0
    assert dispatcher.replicas[0]._owed == []


@pytest.mark.parametrize("what", sorted(NOT_CODES))
def test_submit_refuses_misses_that_are_not_codes(what):
    replica = InferenceServer(tiny_model("ResNet50"))
    with pytest.raises(ValueError, match="uint8 codes"):
        replica.submit(NOT_CODES[what], [0, 1], 256)
    assert replica._owed == [] and replica._pool is None
