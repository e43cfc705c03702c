"""Tests for the drifting photo world, dataset profiles, and loaders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.datasets import PROFILES, profile
from repro.data.drift import (
    DAILY_GROWTH_RATE,
    NEW_CLASS_FRACTION,
    DriftingPhotoWorld,
    WorldConfig,
)
from repro.data.loader import batch_iter, normalize_images, split_rounds


class TestWorldConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(initial_classes=1)
        with pytest.raises(ValueError):
            WorldConfig(initial_classes=10, max_classes=5)


class TestDriftingWorld:
    def test_sample_shapes_and_ranges(self, small_world):
        x, y = small_world.sample(32, 0)
        assert x.shape == (32, 3, 16, 16)
        assert x.dtype == np.float32
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert y.dtype == np.int64

    def test_labels_only_from_available_classes(self, small_world):
        _, y = small_world.sample(64, 0)
        assert set(np.unique(y)) <= set(small_world.classes_at(0))

    def test_new_classes_appear_over_time(self, small_world):
        assert len(small_world.classes_at(0)) == 6
        assert len(small_world.classes_at(30)) == 8

    def test_negative_day_rejected(self, small_world):
        with pytest.raises(ValueError):
            small_world.classes_at(-1)

    def test_prototypes_drift_monotonically(self, small_world):
        p0 = small_world.prototypes_at(0)
        p5 = small_world.prototypes_at(5)
        p10 = small_world.prototypes_at(10)
        d5 = np.linalg.norm(p5 - p0)
        d10 = np.linalg.norm(p10 - p0)
        assert 0 < d5 < d10

    def test_same_seed_same_samples(self):
        cfg = WorldConfig(seed=7)
        a = DriftingPhotoWorld(cfg).sample(8, 3)
        b = DriftingPhotoWorld(cfg).sample(8, 3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_distribution_shift_is_detectable(self, small_world):
        """Same classes, different days -> visibly different image stats."""
        x0, _ = small_world.sample(128, 0, rng=np.random.default_rng(1))
        x20, _ = small_world.sample(128, 20, rng=np.random.default_rng(1))
        assert np.abs(x0.mean(axis=0) - x20.mean(axis=0)).mean() > 1e-3

    def test_growth_model(self, small_world):
        assert small_world.dataset_size_at(0, 1000) == 1000
        one_day = small_world.dataset_size_at(1, 1000)
        assert one_day == pytest.approx(1000 * (1 + DAILY_GROWTH_RATE), abs=1)
        assert small_world.dataset_size_at(14, 1000) > one_day

    def test_sample_validation(self, small_world):
        with pytest.raises(ValueError):
            small_world.sample(0, 0)
        with pytest.raises(ValueError):
            small_world.sample(4, 0, classes=[])

    def test_class_restriction(self, small_world):
        _, y = small_world.sample(32, 0, classes=[0, 1])
        assert set(np.unique(y)) <= {0, 1}

    def test_new_class_fraction_roughly_5pct(self):
        world = DriftingPhotoWorld(WorldConfig(
            initial_classes=6, max_classes=12, new_class_interval_days=1,
        ))
        # day 3: classes 6..8 are 'recent'
        _, y = world.sample(4000, 3, rng=np.random.default_rng(0))
        recent = np.isin(y, [6, 7, 8]).mean()
        assert recent == pytest.approx(NEW_CLASS_FRACTION, abs=0.02)

    @settings(max_examples=10, deadline=None)
    @given(day=st.integers(0, 40), n=st.integers(1, 64))
    def test_property_samples_always_valid(self, day, n):
        world = DriftingPhotoWorld(WorldConfig(
            initial_classes=6, max_classes=8, image_size=16, noise=0.3,
        ))
        x, y = world.sample(n, day)
        assert len(x) == len(y) == n
        assert np.isfinite(x).all()


class TestProfiles:
    def test_three_paper_datasets(self):
        assert set(PROFILES) == {"CIFAR100", "ImageNet-1K", "ImageNet-21K"}

    def test_difficulty_ordering(self):
        assert (PROFILES["CIFAR100"].noise < PROFILES["ImageNet-1K"].noise
                < PROFILES["ImageNet-21K"].noise)
        assert (PROFILES["CIFAR100"].max_classes
                < PROFILES["ImageNet-21K"].max_classes)

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile("MNIST")


class TestLoader:
    def test_batch_iter_covers_dataset_once(self, rng):
        x = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        seen = []
        for xb, yb in batch_iter(x, y, 3, rng):
            assert len(xb) == len(yb)
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_batch_iter_respects_order_without_shuffle(self):
        x = np.arange(6).reshape(6, 1)
        y = np.arange(6)
        batches = list(batch_iter(x, y, 4, shuffle=False))
        assert batches[0][1].tolist() == [0, 1, 2, 3]

    def test_batch_iter_validation(self, rng):
        with pytest.raises(ValueError):
            list(batch_iter(np.zeros(3), np.zeros(2), 1, rng))
        with pytest.raises(ValueError):
            list(batch_iter(np.zeros(3), np.zeros(3), 0, rng))

    def test_split_rounds_partitions_in_order(self):
        x = np.arange(10)
        y = np.arange(10)
        rounds = split_rounds(x, y, 3)
        assert len(rounds) == 3
        assert np.concatenate([r[0] for r in rounds]).tolist() == list(range(10))

    def test_split_rounds_validation(self):
        with pytest.raises(ValueError):
            split_rounds(np.zeros(2), np.zeros(2), 0)
        with pytest.raises(ValueError):
            split_rounds(np.zeros(2), np.zeros(2), 3)

    def test_normalize_images_centres(self):
        x = np.full((2, 3, 2, 2), 0.5, dtype=np.float32)
        assert np.allclose(normalize_images(x), 0.0)
