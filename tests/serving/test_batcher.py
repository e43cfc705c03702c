"""NPE-seeded batch sizing and the AIMD SLO controller."""

import pytest

from repro.core.cluster import InferenceServer
from repro.core.fabric import NetworkFabric
from repro.core.npe import NpeConfig, npe_task_times
from repro.faults.retry import RetryPolicy
from repro.models.catalog import model_graph
from repro.models.registry import tiny_model
from repro.serving import ReplicaDispatcher, ServingConfig
from repro.serving.batcher import (
    SERVICE_BUDGET_FRACTION,
    SloController,
    slo_batch_size,
)
from repro.sim.specs import COMPRESSED_PREPROCESSED_BYTES, TESLA_V100


def test_slo_batch_size_monotone_in_slo():
    graph = model_graph("ResNet50")
    sizes = [slo_batch_size(graph, TESLA_V100, slo)
             for slo in (0.01, 0.05, 0.1, 0.5)]
    assert sizes == sorted(sizes)
    assert all(1 <= b <= 256 for b in sizes)


def test_slo_batch_size_respects_bounds():
    graph = model_graph("ResNet50")
    assert slo_batch_size(graph, TESLA_V100, 10.0, max_batch=8) <= 8
    assert slo_batch_size(graph, TESLA_V100, 1e-6) == 1
    assert slo_batch_size(graph, TESLA_V100, 1e-6, min_batch=4) == 4


def test_slo_batch_size_validation():
    graph = model_graph("ResNet50")
    with pytest.raises(ValueError):
        slo_batch_size(graph, TESLA_V100, 0.0)
    with pytest.raises(ValueError):
        slo_batch_size(graph, TESLA_V100, 0.1, fraction=0.0)
    with pytest.raises(ValueError):
        slo_batch_size(graph, TESLA_V100, 0.1, min_batch=8, max_batch=4)


def test_controller_aimd_asymmetry():
    ctl = SloController(slo_s=0.1, min_batch=1, max_batch=256,
                        initial_batch=64)
    assert ctl.observe(0.2) == 32       # violation: halve
    assert ctl.observe(0.2) == 16
    assert ctl.observe(0.01) == 20      # comfortable: +step
    assert ctl.decreases == 2 and ctl.increases == 1
    # inside the [headroom * budget, budget] band (40-50 ms): hold
    assert ctl.observe(0.045) == 20


def test_controller_clamps_to_bounds():
    ctl = SloController(slo_s=0.1, min_batch=2, max_batch=8,
                        initial_batch=8)
    for _ in range(6):
        ctl.observe(1.0)
    assert ctl.batch_size == 2          # never below min_batch
    for _ in range(6):
        ctl.observe(0.0)
    assert ctl.batch_size == 8          # never above max_batch


def test_controller_converges_to_slo_feasible_batch():
    """Against a linear latency model, AIMD settles in a narrow band."""
    per_item_s = 0.05 / 42              # 42 items fill the budget exactly
    ctl = SloController(slo_s=0.1, min_batch=1, max_batch=256,
                        initial_batch=256)
    trajectory = []
    for _ in range(200):
        trajectory.append(ctl.observe(ctl.batch_size * per_item_s))
    tail = trajectory[-50:]
    # multiplicative decreases pull the oversized start under the
    # 42-item ceiling fast; additive increases then climb back into the
    # [headroom * budget, budget] comfort band and hold there
    assert max(tail) <= 42
    assert min(tail) >= 21
    assert ctl.decreases > 0 and ctl.increases > 0


def test_controller_validation():
    with pytest.raises(ValueError):
        SloController(slo_s=0.0, min_batch=1, max_batch=8, initial_batch=4)
    with pytest.raises(ValueError):
        SloController(slo_s=0.1, min_batch=4, max_batch=8, initial_batch=2)
    ctl = SloController(slo_s=0.1, min_batch=1, max_batch=8, initial_batch=4)
    with pytest.raises(ValueError):
        ctl.observe(-1.0)


def test_controller_counters_do_not_drift_when_clamped():
    """At min_batch a violation cannot shrink and must not count as a
    decrease; at max_batch headroom cannot grow and must not count as an
    increase — the counters record *actions*, not intents."""
    ctl = SloController(slo_s=0.1, min_batch=4, max_batch=64,
                        initial_batch=4)
    for _ in range(5):
        assert ctl.observe(1.0) == 4
    assert ctl.decreases == 0 and ctl.increases == 0

    ctl = SloController(slo_s=0.1, min_batch=1, max_batch=8,
                        initial_batch=8)
    for _ in range(5):
        assert ctl.observe(0.001) == 8
    assert ctl.increases == 0 and ctl.decreases == 0

    # one step off the clamp and the counters move again
    ctl = SloController(slo_s=0.1, min_batch=4, max_batch=64,
                        initial_batch=8)
    assert ctl.observe(1.0) == 4 and ctl.decreases == 1
    assert ctl.observe(0.001) == 8 and ctl.increases == 1


def test_controller_law_is_against_the_service_budget():
    """Grow under budget * headroom, halve over budget, hold between —
    where budget = slo * SERVICE_BUDGET_FRACTION, not the SLO itself."""
    ctl = SloController(slo_s=0.2, min_batch=1, max_batch=256,
                        initial_batch=32)
    budget = 0.2 * SERVICE_BUDGET_FRACTION
    assert ctl.budget_s == budget
    assert ctl.observe(0.79 * budget) == 36     # under budget * headroom
    assert ctl.observe(0.81 * budget) == 36     # in the band: hold
    assert ctl.observe(budget) == 36            # exactly on budget: hold
    assert ctl.observe(1.01 * budget) == 18     # over budget: halve
    # a sojourn-sized sample (several SLOs of queueing) is just "over
    # budget" — one halving per batch, never a function of the backlog
    assert ctl.observe(50 * 0.2) == 9


def test_seed_and_controller_agree_by_construction():
    """The seed is the largest batch whose FE&Cl time fits the budget, so
    feeding the controller that very time never shrinks it."""
    graph = model_graph("ResNet50")
    slo_s = 0.1
    seed = slo_batch_size(graph, TESLA_V100, slo_s)
    profile = NpeConfig(
        level="serve", read_bytes_inference=COMPRESSED_PREPROCESSED_BYTES,
        read_bytes_finetune=COMPRESSED_PREPROCESSED_BYTES,
        preprocess_on_store=False, decompress=True, batch_size=seed)
    costed_s = seed * npe_task_times(
        graph, profile, "inference", TESLA_V100)["FE&Cl"] / 1e3
    ctl = SloController(slo_s=slo_s, min_batch=1, max_batch=256,
                        initial_batch=seed)
    assert costed_s <= ctl.budget_s
    assert ctl.observe(costed_s) >= seed and ctl.decreases == 0

    # The dispatcher's service_s adds what FE&Cl leaves out (0.2 ms of
    # database upsert per request), so the seed's first *real* full
    # batch — 256 cache hits, tail only, ~54 ms — is over the 50 ms
    # budget and halves once to 128 (~29 ms), which is under budget *
    # headroom and grows again.
    config = ServingConfig()
    dispatcher = ReplicaDispatcher(
        [InferenceServer(tiny_model("ResNet50", seed=0), name="r0")],
        config, NetworkFabric(), RetryPolicy())
    assert seed == 256
    full = dispatcher.service_s(seed, num_misses=0)
    assert ctl.observe(full) == 128 and ctl.decreases == 1
    half = dispatcher.service_s(128, num_misses=0)
    assert ctl.observe(half) == 132
    # an all-miss batch pays the whole-model forward, a hit only the tail
    assert dispatcher.service_s(1, num_misses=1) == pytest.approx(
        dispatcher.min_service_s())
    assert (dispatcher.service_s(128, num_misses=128)
            > 10 * dispatcher.service_s(128, num_misses=0))
