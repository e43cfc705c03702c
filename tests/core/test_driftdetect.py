"""Tests for the maintenance policies."""

import pytest

from repro.core.driftdetect import (
    DetectionPolicy,
    MaintenanceLog,
    NeverPolicy,
    ScheduledPolicy,
)


class TestPolicies:
    def test_scheduled_fires_on_period(self):
        policy = ScheduledPolicy(period_days=2)
        fired = []
        for day in range(7):
            if policy.should_update(day, 0.7):
                policy.notify_updated(day)
                fired.append(day)
        assert fired == [2, 4, 6]

    def test_detection_fires_only_on_drop(self):
        policy = DetectionPolicy(tolerance=0.05)
        assert not policy.should_update(0, 0.70)  # baseline set
        assert not policy.should_update(1, 0.68)
        assert policy.should_update(2, 0.60)
        policy.notify_updated(2)
        assert not policy.should_update(3, 0.66)  # re-baselined

    def test_never_policy(self):
        policy = NeverPolicy()
        assert not policy.should_update(10, 0.0)

    def test_scheduled_validation(self):
        with pytest.raises(ValueError):
            ScheduledPolicy(period_days=0)

    def test_maintenance_log(self):
        log = MaintenanceLog(policy="x", triggered_days=[2, 4],
                             accuracies=[0.7, 0.6])
        assert log.num_updates == 2
        assert log.mean_accuracy == pytest.approx(0.65)
        with pytest.raises(ValueError):
            MaintenanceLog(policy="y").mean_accuracy
