"""Failure detector: deadlines and one-shot transitions."""

import pytest

from repro.ha import ALIVE, SUSPECT, UNKNOWN, FailureDetector, HAConfig


def make(**overrides):
    return FailureDetector(HAConfig(**overrides))


class TestDeadline:
    def test_silence_past_deadline_suspects(self):
        det = make(suspect_after_ticks=3)
        det.heartbeat("m", 1)
        assert not det.check("m", 2)
        assert not det.check("m", 3)
        assert det.check("m", 4)  # elapsed 3 >= 3
        assert det.is_suspect("m")

    def test_transition_fires_exactly_once(self):
        det = make(suspect_after_ticks=2)
        det.heartbeat("m", 1)
        assert det.check("m", 5)
        assert not det.check("m", 6)  # already suspected
        assert det.suspects() == ["m"]

    def test_unknown_member_never_suspected(self):
        det = make()
        assert not det.check("ghost", 100)
        assert det.state("ghost") == UNKNOWN

    def test_rejoin_returns_true_and_clears_suspicion(self):
        det = make(suspect_after_ticks=2)
        det.heartbeat("m", 1)
        assert det.check("m", 4)
        assert det.state("m") == SUSPECT
        assert det.heartbeat("m", 5) is True
        assert det.state("m") == ALIVE
        assert det.heartbeat("m", 6) is False  # plain beat, not a rejoin


class TestPhi:
    def test_last_heard(self):
        det = make()
        assert det.last_heard("m") is None
        det.heartbeat("m", 9)
        assert det.last_heard("m") == 9


class TestConfig:
    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            HAConfig(suspect_after_ticks=0).validated()
