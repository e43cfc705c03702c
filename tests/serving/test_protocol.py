"""Serving protocol pieces: credits, outcomes, the report, configs."""

import numpy as np
import pytest

from repro.serving import ServeRequest, StreamConfig
from repro.serving.protocol import (
    CANCELLED,
    COMPLETED,
    DISPATCH_FAILED,
    EXPIRED,
    QUEUE_FULL,
    TERMINAL_STATUSES,
    CreditWindow,
    ServeOutcome,
    ServingReport,
    exact_percentile,
)


class TestCreditWindow:
    def test_acquire_release_round_trip(self):
        window = CreditWindow(2)
        assert window.acquire() and window.acquire()
        assert window.available == 0 and window.in_flight == 2
        assert not window.acquire()  # exhausted, no side effect
        assert window.in_flight == 2
        window.release()
        assert window.available == 1 and window.in_flight == 1
        assert window.acquire()

    def test_invariant_holds_through_any_sequence(self):
        window = CreditWindow(3)
        for step in (1, 1, -1, 1, 1, -1, -1, -1):
            if step > 0:
                window.acquire()
            else:
                window.release()
            assert window.granted == window.in_flight + window.available

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError, match="without a matching acquire"):
            CreditWindow(1).release()

    def test_corrupted_books_are_caught(self):
        window = CreditWindow(2)
        window.available = 5  # simulate a lost-credit bug
        with pytest.raises(RuntimeError,
                           match="CreditWindow conservation violated"):
            window.check()

    def test_zero_credits_rejected(self):
        with pytest.raises(ValueError, match="credits"):
            CreditWindow(0)


class TestOutcomesAndReport:
    def test_terminal_statuses_are_closed(self):
        assert set(TERMINAL_STATUSES) == {COMPLETED, CANCELLED, EXPIRED,
                                          QUEUE_FULL, DISPATCH_FAILED}
        request = ServeRequest("r-0", 0.0, np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="terminal status"):
            ServeOutcome(request, "shed", 0.0)
        assert ServeOutcome(request, EXPIRED, 0.0).request_id == "r-0"

    def test_report_conservation_property(self):
        report = ServingReport(offered=12, completed=7, cancelled=2,
                               expired=1, queue_full=1, dispatch_failed=1)
        assert report.conserved
        assert report.shed == {"queue_full": 1, "deadline": 1,
                               "dispatch_failed": 1}
        assert report.shed_total == 3
        report.expired = 0
        assert not report.conserved

    def test_throughput_guards_zero_makespan(self):
        assert ServingReport(offered=0).throughput_rps == 0.0

    def test_to_dict_round_trips_counts(self):
        report = ServingReport(offered=3, completed=3,
                                 latencies_s=[0.01, 0.02, 0.03],
                                 makespan_s=0.5)
        d = report.to_dict()
        assert d["offered"] == 3 and d["conserved"]
        assert d["throughput_rps"] == pytest.approx(6.0)
        assert d["p99_latency_s"] == 0.03

    def test_exact_percentile_is_order_statistic(self):
        values = [0.4, 0.1, 0.3, 0.2]
        assert exact_percentile(values, 50) == 0.2
        assert exact_percentile(values, 99) == 0.4
        assert exact_percentile([], 99) == 0.0


class TestStreamConfig:
    def test_defaults_validate(self):
        config = StreamConfig().validated()
        assert config.credits >= 1
        assert config.min_replicas <= config.max_replicas

    @pytest.mark.parametrize("bad", [
        {"credits": 0},
        {"min_replicas": 0},
        {"min_replicas": 4, "max_replicas": 2},
        {"max_replicas": 0},
        {"credits": -8},
        {"window": 0},
        {"cooldown": -1},
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ValueError):
            StreamConfig(**bad).validated()
