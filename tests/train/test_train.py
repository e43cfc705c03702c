"""Tests for the full-training engine."""

import numpy as np
import pytest

from repro.data.loader import normalize_images
from repro.models.registry import tiny_model
from repro.train.fulltrain import full_train


class TestFullTrain:
    def test_loss_decreases(self, small_world):
        model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
        x, y = small_world.sample(128, 0)
        history = full_train(model, normalize_images(x), y, epochs=3, seed=0)
        assert history.losses[-1] < history.losses[0]
        assert history.epochs == 3
        assert history.images_seen == 3 * 128

    def test_all_layers_update(self, small_world):
        model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
        before = model.state_dict()
        x, y = small_world.sample(64, 0)
        full_train(model, normalize_images(x), y, epochs=1, seed=0)
        after = model.state_dict()
        changed = sum(1 for k in before if not np.array_equal(before[k],
                                                              after[k]))
        assert changed > len(before) // 2

    def test_validation(self, small_world):
        model = tiny_model("ResNet50", num_classes=8)
        x, y = small_world.sample(8, 0)
        with pytest.raises(ValueError):
            full_train(model, x, y, epochs=0)

    def test_final_loss_requires_history(self):
        from repro.train.fulltrain import TrainHistory

        with pytest.raises(ValueError):
            TrainHistory().final_loss

