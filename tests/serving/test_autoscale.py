"""ElasticityController: SLO-headroom replica-count policy."""

import pytest

from repro.serving import ElasticityController


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
            controller.observe(-0.1, 1)
        with pytest.raises(ValueError, match="replicas"):
            controller.observe(0.1, 0)


class TestPolicy:
    def test_silent_until_window_fills(self):
        controller = _controller(window=4)
        for _ in range(3):
            assert controller.observe(1.0, 1) == 0
        assert controller.observe(1.0, 1) == 1

    def test_scale_up_needs_violated_median_not_one_spike(self):
        controller = _controller(window=4)
        # one bad batch among comfortable ones: the batcher's problem
        for worst in (0.01, 0.01, 5.0, 0.01):
            delta = controller.observe(worst, 1)
        assert delta == 0 and controller.scale_ups == 0

    def test_scale_down_needs_whole_window_comfortable(self):
        controller = _controller(window=4)
        # slo*down_headroom = 0.04; a single 0.05 blocks the shrink
        for worst in (0.01, 0.01, 0.05, 0.01):
            delta = controller.observe(worst, 2)
        assert delta == 0
        controller2 = _controller(window=4)
        for worst in (0.01, 0.01, 0.03, 0.01):
            delta = controller2.observe(worst, 2)
        assert delta == -1 and controller2.scale_downs == 1

    def test_bounds_respected(self):
        controller = _controller(max_replicas=2)
        for _ in range(4):
            delta = controller.observe(1.0, 2)  # already at max
        assert delta == 0 and controller.scale_ups == 0
        controller = _controller(min_replicas=1)
        for _ in range(4):
            delta = controller.observe(0.001, 1)  # already at min
        assert delta == 0 and controller.scale_downs == 0

    def test_window_resets_after_action(self):
        controller = _controller(window=4)
        for _ in range(4):
            controller.observe(1.0, 1)
        assert controller.scale_ups == 1
        # the burst that triggered the action cannot staircase: a fresh
        # window must fill before the next decision
        for _ in range(3):
            assert controller.observe(1.0, 2) == 0
        assert controller.observe(1.0, 2) == 1

    def test_cooldown_separates_actions(self):
        controller = _controller(window=2, cooldown=6)
        assert controller.observe(1.0, 1) == 0
        assert controller.observe(1.0, 1) == 1  # first window may act
        deltas = [controller.observe(1.0, 2) for _ in range(5)]
        assert deltas == [0, 0, 0, 0, 0]  # window full but cooling down
        assert controller.observe(1.0, 2) == 1
        assert controller.scale_ups == 2
