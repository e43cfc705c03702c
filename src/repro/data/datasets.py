"""Dataset profiles standing in for CIFAR-100 / ImageNet-1K / ImageNet-21K.

The paper's three benchmarks differ mainly in class count and difficulty
(Table 2: CIFAR100 ~77 % top-1 for ResNet50, ImageNet-1K ~74 %,
ImageNet-21K ~36 %).  The profiles reproduce that ordering by scaling class
count and within-class noise of the synthetic world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .drift import DriftingPhotoWorld, WorldConfig


@dataclass(frozen=True)
class DatasetProfile:
    """A named benchmark scale for the accuracy experiments."""

    name: str
    initial_classes: int
    max_classes: int
    noise: float
    train_size: int
    test_size: int
    image_size: int = 16

    def world(self, seed: int = 0) -> DriftingPhotoWorld:
        return DriftingPhotoWorld(WorldConfig(
            initial_classes=self.initial_classes,
            max_classes=self.max_classes,
            image_size=self.image_size,
            noise=self.noise,
            seed=seed,
        ))


CIFAR100_LIKE = DatasetProfile(
    name="CIFAR100", initial_classes=8, max_classes=12, noise=0.30,
    train_size=1600, test_size=800,
)
IMAGENET1K_LIKE = DatasetProfile(
    name="ImageNet-1K", initial_classes=10, max_classes=14, noise=0.36,
    train_size=2000, test_size=1000,
)
IMAGENET21K_LIKE = DatasetProfile(
    name="ImageNet-21K", initial_classes=16, max_classes=22, noise=0.52,
    train_size=2400, test_size=1200,
)

PROFILES: Dict[str, DatasetProfile] = {
    p.name: p for p in (CIFAR100_LIKE, IMAGENET1K_LIKE, IMAGENET21K_LIKE)
}


def profile(name: str) -> DatasetProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(PROFILES)}"
        ) from None
