"""ElasticityController: line-drain replica-count policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import ElasticityController

#: slo_s * SERVICE_BUDGET_FRACTION for the default 100 ms SLO
BUDGET_S = 0.05


def _controller(**kwargs):
    defaults = dict(slo_s=0.1, min_replicas=1, max_replicas=4,
                    window=4, cooldown=0)
    defaults.update(kwargs)
    return ElasticityController(**defaults)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"slo_s": 0.0},
        {"slo_s": float("inf")},
        {"min_replicas": 0},
        {"min_replicas": 3, "max_replicas": 2},
        {"slo_s": float("nan")},
        {"max_replicas": 0},
        {"window": 0},
        {"cooldown": -1},
    ])
    def test_constructor_rejects(self, bad):
        with pytest.raises(ValueError):
            _controller(**bad)

    def test_observe_rejects_bad_inputs(self):
        controller = _controller()
        with pytest.raises(ValueError, match="worst_latency_s"):
            controller.observe(-0.1, 1, 0.0)
        with pytest.raises(ValueError, match="replicas"):
            controller.observe(0.1, 0, 0.0)
        with pytest.raises(ValueError, match="line_s"):
            controller.observe(0.1, 1, -1.0)
        with pytest.raises(ValueError, match="line_s"):
            controller.observe_line(-1.0, 1)
        with pytest.raises(ValueError, match="replicas"):
            controller.observe_line(0.0, 0)

    def test_budget_is_the_batch_controllers(self):
        assert _controller().budget_s == pytest.approx(BUDGET_S)


class TestPolicy:
    """The scale-up cases read sojourns before the line signal: a
    scale-up then needed a full window whose median worst latency
    exceeded the SLO, so one replica held the whole of a burst until its
    requests were already late."""

    def test_silent_until_window_fills(self):
        # a scale-down needs a full window of comfortable sojourns
        controller = _controller(window=4)
        for _ in range(3):
            assert controller.observe(0.001, 2, 0.0) == 0
        assert controller.observe(0.001, 2, 0.0) == -1

    def test_scale_up_when_the_line_outgrows_the_fleet(self):
        controller = _controller()
        # one replica drains a budget's worth of line: no action
        assert controller.observe_line(BUDGET_S, 1) == 0
        # a leading signal: no sojourn has been seen, the window is empty
        assert controller.observe_line(BUDGET_S * 1.01, 1) == 1
        assert controller.scale_ups == 1

    def test_the_line_is_shared_by_every_replica(self):
        controller = _controller()
        assert controller.observe_line(BUDGET_S * 2.5, 3) == 0
        assert controller.observe_line(BUDGET_S * 2.5, 2) == 1

    def test_late_sojourns_alone_do_not_scale_up(self):
        # the signal the sojourn rule read: every batch a second late,
        # but nothing waits behind them
        controller = _controller(window=4)
        for _ in range(8):
            assert controller.observe(1.0, 1, 0.0) == 0
            assert controller.observe_line(0.0, 1) == 0
        assert controller.scale_ups == 0

    def test_scale_down_needs_whole_window_comfortable(self):
        controller = _controller(window=4)
        # slo*down_headroom = 0.04; a single 0.05 blocks the shrink
        for worst in (0.01, 0.01, 0.05, 0.01):
            delta = controller.observe(worst, 2, 0.0)
        assert delta == 0
        controller2 = _controller(window=4)
        for worst in (0.01, 0.01, 0.03, 0.01):
            delta = controller2.observe(worst, 2, 0.0)
        assert delta == -1 and controller2.scale_downs == 1

    def test_scale_down_refused_while_one_fewer_could_not_drain(self):
        controller = _controller(window=4)
        # two replicas drain the line, one could not: a comfortable
        # window is not enough
        for _ in range(4):
            delta = controller.observe(0.01, 2, BUDGET_S * 1.5)
        assert delta == 0 and controller.scale_downs == 0
        # the same window once one replica could drain what is left
        assert controller.observe(0.01, 2, BUDGET_S) == -1

    def test_bounds_respected(self):
        controller = _controller(max_replicas=2)
        for _ in range(4):
            delta = controller.observe_line(1.0, 2)  # already at max
        assert delta == 0 and controller.scale_ups == 0
        controller = _controller(min_replicas=1)
        for _ in range(4):
            delta = controller.observe(0.001, 1, 0.0)  # already at min
        assert delta == 0 and controller.scale_downs == 0

    def test_window_resets_after_action(self):
        controller = _controller(window=4)
        assert controller.observe_line(1.0, 1) == 1
        for _ in range(3):
            assert controller.observe(0.01, 2, 0.0) == 0
        assert controller.observe(0.01, 2, 0.0) == -1

    def test_cooldown_separates_actions(self):
        controller = _controller(window=2, cooldown=6)
        assert controller.observe_line(1.0, 1) == 1  # the first may act
        deltas = []
        for _ in range(5):
            controller.observe(0.5, 2, 1.0)
            deltas.append(controller.observe_line(1.0, 2))
        assert deltas == [0, 0, 0, 0, 0]  # line too long but cooling down
        controller.observe(0.5, 2, 1.0)
        assert controller.observe_line(1.0, 2) == 1
        assert controller.scale_ups == 2


@settings(max_examples=60, deadline=None)
@given(bounds=st.tuples(st.integers(1, 4), st.integers(0, 4)),
       window=st.integers(1, 6), cooldown=st.integers(0, 8),
       steps=st.lists(st.tuples(st.booleans(),
                                st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
                      max_size=80))
def test_bounds_and_cooldown_hold(bounds, window, cooldown, steps):
    """Any interleaving of dispatched (line) and delivered (sojourn)
    signals: the replica count stays inside its bounds, every action
    moves it by one, and ``cooldown`` deliveries separate two actions."""
    low, spread = bounds
    controller = _controller(min_replicas=low, max_replicas=low + spread,
                             window=window, cooldown=cooldown)
    replicas, since, acted = low, 0, False
    for delivered, worst_s, line_s in steps:
        if delivered:
            delta = controller.observe(worst_s, replicas, line_s)
            since += 1
        else:
            delta = controller.observe_line(line_s, replicas)
        if delta:
            assert not acted or since >= cooldown
            acted, since = True, 0
        if delta > 0:
            assert line_s > replicas * BUDGET_S
        if delta < 0:
            assert line_s <= (replicas - 1) * BUDGET_S
        replicas += delta
        assert low <= replicas <= low + spread
    assert controller.scale_ups - controller.scale_downs == replicas - low
