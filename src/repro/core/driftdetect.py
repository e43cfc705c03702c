"""Maintenance policies: when to fine-tune under drift (§2.2).

The paper surveys how production systems decide *when* to retrain:
regularly scheduled updates versus detection-triggered ones (citing the
early-drift-detection literature).  NDPipe makes fine-tuning cheap enough
for aggressive schedules; the :class:`MaintenancePolicy` implementations
here decide, day by day, whether to fine-tune, so the reproduction can
compare the policies quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class MaintenanceLog:
    """What a policy did over a drift horizon."""

    policy: str
    triggered_days: List[int] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def num_updates(self) -> int:
        return len(self.triggered_days)

    @property
    def mean_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("no accuracies recorded")
        return float(sum(self.accuracies) / len(self.accuracies))


class MaintenancePolicy:
    """Decides each day whether to run a fine-tuning round."""

    name = "base"

    def should_update(self, day: int, accuracy: float) -> bool:
        raise NotImplementedError

    def notify_updated(self, day: int) -> None:
        """Called after an update actually ran."""


class ScheduledPolicy(MaintenancePolicy):
    """Fine-tune every ``period_days`` regardless of observed quality."""

    def __init__(self, period_days: int = 2):
        if period_days < 1:
            raise ValueError("period must be >= 1 day")
        self.name = f"scheduled-every-{period_days}d"
        self.period_days = period_days
        self._last_update = 0

    def should_update(self, day: int, accuracy: float) -> bool:
        return day > 0 and day - self._last_update >= self.period_days

    def notify_updated(self, day: int) -> None:
        self._last_update = day


class DetectionPolicy(MaintenancePolicy):
    """Fine-tune only when the accuracy detector fires (§2.2 alternative)."""

    def __init__(self, tolerance: float = 0.04, window: int = 1):
        self.name = f"detect-drop-{tolerance:.2f}"
        self.tolerance = tolerance
        self._baseline: Optional[float] = None

    def should_update(self, day: int, accuracy: float) -> bool:
        if self._baseline is None:
            self._baseline = accuracy
            return False
        return accuracy < self._baseline - self.tolerance

    def notify_updated(self, day: int) -> None:
        self._baseline = None  # re-baseline on the refreshed model


class NeverPolicy(MaintenancePolicy):
    """The outdated-model strawman."""

    name = "never"

    def should_update(self, day: int, accuracy: float) -> bool:
        return False
