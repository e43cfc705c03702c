"""Failure detector: deadlines, phi scores, one-shot transitions."""

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
    def test_phi_grows_with_silence(self):
        det = make()
        for t in (1, 2, 3, 4):
            det.heartbeat("m", t)
        assert det.phi("m", 4) == 0.0
        assert det.phi("m", 6) == pytest.approx(2.0)  # mean interval 1

    def test_phi_adapts_to_slow_cadence(self):
        """A member beating every 5 ticks is not suspected at elapsed 5."""
        det = make(suspect_after_ticks=100, phi_threshold=3.0)
        for t in (5, 10, 15, 20):
            det.heartbeat("m", t)
        assert not det.check("m", 25)  # phi = 5/5 = 1
        assert not det.check("m", 34)  # phi = 14/5 = 2.8
        assert det.check("m", 35)      # phi = 15/5 = 3.0

    def test_phi_crossing_suspects_before_deadline(self):
        det = make(suspect_after_ticks=50, phi_threshold=4.0)
        for t in (1, 2, 3, 4):
            det.heartbeat("m", t)
        assert det.check("m", 8)  # elapsed 4 over mean 1 -> phi 4

    def test_last_heard(self):
        det = make()
        assert det.last_heard("m") is None
        det.heartbeat("m", 9)
        assert det.last_heard("m") == 9


class TestConfig:
    def test_validation_rejects_bad_knobs(self):
        for bad in (dict(suspect_after_ticks=0),
                    dict(phi_threshold=0.0)):
            with pytest.raises(ValueError):
                HAConfig(**bad).validated()
