"""Analytic pipeline model vs DES cross-validation."""

from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulation, Store
from repro.sim.pipeline import (
    Stage,
    makespan,
    pipelined_throughput,
    sequential_throughput,
)


def simulate_pipeline(stages: Sequence[Stage], num_items: int,
                      buffer_depth: int = 4,
                      batch: int = 1) -> float:
    """Run the stage network on the DES kernel; returns the makespan.

    Items flow through bounded buffers between stages, so the simulation
    exhibits genuine pipeline fill/drain and back-pressure behaviour rather
    than assuming steady state.
    """
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    if batch <= 0:
        raise ValueError("batch must be positive")
    sim = Simulation()
    num_batches = (num_items + batch - 1) // batch

    queues: List[Store] = [Store(sim, capacity=buffer_depth) for _ in stages]
    done = Store(sim)

    def source():
        for item in range(num_batches):
            yield queues[0].put(item)

    def worker(index: int, stage: Stage):
        out = queues[index + 1] if index + 1 < len(stages) else done
        service = batch * stage.time_per_item
        while True:
            item = yield queues[index].get()
            if service:
                yield sim.timeout(service)
            yield out.put(item)

    def sink():
        for _ in range(num_batches):
            yield done.get()

    sim.process(source())
    for i, stage in enumerate(stages):
        sim.process(worker(i, stage))
    finish = sim.process(sink())
    sim.run_until_complete(finish)
    return sim.now


class TestAnalytic:
    def test_pipelined_is_bottleneck(self):
        stages = [Stage("a", 100.0), Stage("b", 20.0), Stage("c", 50.0)]
        rate, name = pipelined_throughput(stages)
        assert rate == 20.0
        assert name == "b"

    def test_sequential_is_harmonic(self):
        stages = [Stage("a", 10.0), Stage("b", 10.0)]
        assert sequential_throughput(stages) == pytest.approx(5.0)

    def test_sequential_leq_pipelined(self):
        stages = [Stage("a", 7.0), Stage("b", 13.0), Stage("c", 29.0)]
        assert sequential_throughput(stages) <= pipelined_throughput(stages)[0]

    def test_infinite_rate_stage_free(self):
        stages = [Stage("a", float("inf")), Stage("b", 10.0)]
        assert sequential_throughput(stages) == pytest.approx(10.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            Stage("bad", 0.0).time_per_item

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ValueError):
            pipelined_throughput([])
        with pytest.raises(ValueError):
            sequential_throughput([])

    def test_makespan(self):
        assert makespan(100, 10.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            makespan(-1, 10.0)
        with pytest.raises(ValueError):
            makespan(1, 0.0)


class TestDesCrossCheck:
    def test_des_converges_to_bottleneck_rate(self):
        stages = [Stage("read", 100.0), Stage("cpu", 40.0), Stage("gpu", 250.0)]
        items = 800
        time = simulate_pipeline(stages, items)
        assert items / time == pytest.approx(40.0, rel=0.03)

    def test_des_single_stage_exact(self):
        time = simulate_pipeline([Stage("only", 10.0)], 50)
        assert time == pytest.approx(5.0)

    def test_des_batching_preserves_rate(self):
        stages = [Stage("a", 100.0), Stage("b", 50.0)]
        t1 = simulate_pipeline(stages, 400, batch=1)
        t8 = simulate_pipeline(stages, 400, batch=8)
        assert 400 / t1 == pytest.approx(400 / t8, rel=0.1)

    def test_des_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simulate_pipeline([Stage("a", 1.0)], 0)
        with pytest.raises(ValueError):
            simulate_pipeline([Stage("a", 1.0)], 10, batch=0)

    @settings(max_examples=12, deadline=None)
    @given(rates=st.lists(st.floats(5.0, 200.0), min_size=1, max_size=4),
           buffer_depth=st.integers(1, 8))
    def test_property_des_matches_analytic_steady_state(self, rates, buffer_depth):
        stages = [Stage(f"s{i}", r) for i, r in enumerate(rates)]
        items = 600
        time = simulate_pipeline(stages, items, buffer_depth=buffer_depth)
        analytic, _ = pipelined_throughput(stages)
        # DES includes fill/drain, so it is never faster, and converges
        assert items / time <= analytic * 1.001
        assert items / time >= analytic * 0.85

    @settings(max_examples=10, deadline=None)
    @given(rates=st.lists(st.floats(5.0, 100.0), min_size=2, max_size=4))
    def test_property_pipeline_never_beats_best_stage(self, rates):
        stages = [Stage(f"s{i}", r) for i, r in enumerate(rates)]
        assert pipelined_throughput(stages)[0] <= max(rates)
        assert sequential_throughput(stages) <= min(rates)
