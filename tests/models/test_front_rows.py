"""A frozen front runs in bounded sub-batches only when no graph is kept.

- With no graph recorded, ``forward_until`` runs the frozen stages
  ``FRONT_ROWS`` rows at a time, so a 256-row pass holds the working set
  of 32 rows, not of 256 (its rows are pinned batch-invariant in
  ``tests/serving/test_pooled_front.py``).
- With grad enabled the batch stays whole: one graph from the output back
  to the caller's input, whose gradients are those of running the stages
  one after another over the whole batch.
"""

import gc
import tracemalloc

import numpy as np

from repro.models.registry import tiny_model
from repro.models.split import FRONT_ROWS
from repro.nn.tensor import Tensor, inference_mode
from repro.storage.imageformat import model_input, quantise

#: tracemalloc peak of one 256-row ``forward_until`` of the frozen
#: ResNet50-tiny at its serving cut when the front ran as one batch:
#: 27 825 362 B (numpy 64-bit Linux, the folds already computed)
WHOLE_BATCH_PEAK = 27_825_362


def _inputs(model, count, seed=0):
    return model_input(quantise(np.random.default_rng(seed).random(
        (count,) + model.input_shape)))


def test_a_256_row_front_pass_holds_a_quarter_of_the_whole_batch_peak():
    model = tiny_model("ResNet50").freeze_features().eval()
    inputs = Tensor(_inputs(model, 256))
    split = model.num_stages - 1
    with inference_mode():
        model.forward_until(Tensor(inputs.data[:2]), split)  # the folds
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        with inference_mode():
            rows = model.forward_until(inputs, split).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert rows.shape[0] == 256
    assert peak < WHOLE_BATCH_PEAK / 4, peak


def _stagewise(model, x, split):
    """``forward_until`` as one batch: each stage over all of ``x``."""
    for index in range(split):
        x = model.stage(index)(x)
    return x


def _gradients(model, forward, inputs, weights):
    model.zero_grad()
    x = Tensor(inputs, requires_grad=True)
    (forward(x) * Tensor(weights)).sum().backward()
    return [x.grad] + [p.grad for p in model.classifier.parameters()]


def test_with_grad_enabled_the_batch_stays_one_graph():
    model = tiny_model("ResNet50").freeze_features()
    count, split = 2 * FRONT_ROWS + 3, model.num_stages
    inputs = _inputs(model, count, seed=1).astype(np.float64)
    weights = np.random.default_rng(2).random(
        (count, model.feature_dim_after(split)[0]))
    got = _gradients(model, lambda x: model.forward_until(x, split),
                     inputs, weights)
    want = _gradients(model, lambda x: _stagewise(model, x, split),
                      inputs, weights)
    assert all(grad is not None for grad in got)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
