"""``repro.data`` — synthetic drifting photo datasets.

The drift generator reproduces the paper's data-evolution scenario: 1.78 %
daily upload growth with 5.3 % of new images in new categories, plus
gradual input-distribution drift of existing classes.
"""

from .datasets import (
    CIFAR100_LIKE,
    IMAGENET1K_LIKE,
    IMAGENET21K_LIKE,
    PROFILES,
    DatasetProfile,
    profile,
)
from .drift import (
    DAILY_GROWTH_RATE,
    NEW_CLASS_FRACTION,
    DriftingPhotoWorld,
    WorldConfig,
)
from .loader import batch_iter, normalize_images, split_rounds

__all__ = [
    "DriftingPhotoWorld", "WorldConfig", "DAILY_GROWTH_RATE",
    "NEW_CLASS_FRACTION",
    "DatasetProfile", "profile", "PROFILES",
    "CIFAR100_LIKE", "IMAGENET1K_LIKE", "IMAGENET21K_LIKE",
    "batch_iter", "split_rounds", "normalize_images",
]
