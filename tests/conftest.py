"""Shared fixtures for the NDPipe reproduction test suite."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

from repro.cli import main
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


@pytest.fixture(scope="session")
def shipped_lint(tmp_path_factory):
    """One ``repro lint --check-manifests --format json --out <tmp>`` pass
    over the package, shared by every test that asserts on the shipped
    tree: (exit code, the JSON report, what it wrote to stderr)."""
    out = tmp_path_factory.mktemp("lint") / "lint-report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["lint", "--check-manifests", "--format", "json",
                     "--out", str(out)])
    return code, json.loads(out.read_text()), err.getvalue()
