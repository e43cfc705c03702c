"""``repro.workloads`` — evaluation-scenario generators."""

from .continuous import DayRecord, OperationLog, run_continuous_operation
from .scenarios import (
    DriftPoint,
    DriftScenarioConfig,
    DriftScenarioResult,
    evaluate_model,
    run_drift_scenario,
    train_base_model,
)

__all__ = [
    "run_continuous_operation", "OperationLog", "DayRecord",
    "DriftScenarioConfig", "DriftScenarioResult", "DriftPoint",
    "run_drift_scenario", "train_base_model", "evaluate_model",
]
