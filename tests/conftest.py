"""Shared fixtures for the NDPipe reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.drift import DriftingPhotoWorld, WorldConfig
from repro.models.registry import tiny_model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_world():
    """A tiny drifting photo world (6-8 classes, 16x16 images)."""
    return DriftingPhotoWorld(WorldConfig(
        initial_classes=6, max_classes=8, image_size=16, noise=0.3, seed=0,
    ))


@pytest.fixture
def tiny_resnet():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=1)


@pytest.fixture
def images16(rng):
    """A small batch of (N, 3, 16, 16) images in [0, 1]."""
    return rng.random((6, 3, 16, 16))
