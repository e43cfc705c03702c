"""Tests for the drift-scenario workload runner."""

import numpy as np
import pytest

from repro.models.registry import tiny_model
from repro.workloads.scenarios import (
    DriftScenarioConfig,
    evaluate_model,
    run_drift_scenario,
    train_base_model,
)

CONFIG = DriftScenarioConfig(horizon_days=4, eval_every_days=2, train_size=160,
                             test_size=120, base_epochs=2, finetune_epochs=2,
                             finetune_size=100)


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=0)


class TestScenario:
    def test_unknown_strategy(self, small_world):
        with pytest.raises(ValueError):
            run_drift_scenario(small_world, factory, "hope", CONFIG)

    def test_outdated_strategy_never_trains_after_base(self, small_world):
        base = train_base_model(small_world, factory, CONFIG)
        snapshot = base.state_dict()
        result = run_drift_scenario(small_world, factory, "outdated", CONFIG,
                                    base_model=base)
        after = base.state_dict()
        assert all(np.array_equal(snapshot[k], after[k]) for k in snapshot)
        assert [p.day for p in result.points] == [0, 2, 4]

    def test_finetune_strategy_records_points(self, small_world):
        result = run_drift_scenario(small_world, factory, "finetune", CONFIG)
        assert result.strategy == "finetune"
        assert all(0.0 <= p.top1 <= p.top5 <= 1.0 for p in result.points)

    def test_shared_base_model_gives_same_day0(self, small_world):
        base = train_base_model(small_world, factory, CONFIG)
        a = run_drift_scenario(small_world, factory, "outdated", CONFIG,
                               base_model=base)

        base2 = train_base_model(small_world, factory, CONFIG)
        b = run_drift_scenario(small_world, factory, "finetune", CONFIG,
                               base_model=base2)
        assert a.points[0].top1 == pytest.approx(b.points[0].top1)


class TestHelpers:
    def test_evaluate_model_range(self, small_world):
        model = factory().eval()
        x, y = small_world.sample(64, 0)
        top1, top5 = evaluate_model(model, x, y)
        assert 0.0 <= top1 <= top5 <= 1.0
