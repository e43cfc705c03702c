"""Synthetic drifting photo world.

Substitute for the paper's evolving photo uploads (§3.2): each class is a
prototype in a latent space, rendered to small RGB images through a fixed
random nonlinear map.  Drift has the two ingredients the paper studies:

* prototype motion — the input distribution of existing classes shifts a
  little every day (concept drift), and
* category growth — new classes appear over time; 5.3 % of newly uploaded
  images belong to new categories, with a 1.78 % daily upload growth rate
  (the paper's measured rates, §3.2).

A model trained at day 0 therefore genuinely loses accuracy on day-``d``
test sets, fine-tuning the classifier recovers most of it, and full
retraining recovers almost all — the phenomena behind Fig. 4 and Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

#: the paper's measured daily image-volume growth rate
DAILY_GROWTH_RATE = 0.0178
#: fraction of newly uploaded images in brand-new categories
NEW_CLASS_FRACTION = 0.053


@dataclass(frozen=True)
class WorldConfig:
    """Shape and difficulty of a drifting photo world."""

    initial_classes: int = 10
    max_classes: int = 16
    image_size: int = 16
    latent_dim: int = 24
    #: within-class latent noise; higher = harder dataset (lower accuracy)
    noise: float = 0.35
    #: per-day prototype displacement as a fraction of prototype norm
    drift_rate: float = 0.02
    #: days between new-class introductions once the world starts growing
    new_class_interval_days: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.initial_classes < 2:
            raise ValueError("need at least two initial classes")
        if self.max_classes < self.initial_classes:
            raise ValueError("max_classes must be >= initial_classes")


class DriftingPhotoWorld:
    """Generates (image, label) samples whose distribution evolves by day."""

    def __init__(self, config: WorldConfig = WorldConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c, d = config.max_classes, config.latent_dim
        # well-separated prototypes: random directions scaled up
        self._prototypes = rng.normal(0.0, 1.0, size=(c, d))
        self._prototypes *= 3.0 / np.linalg.norm(self._prototypes, axis=1,
                                                 keepdims=True)
        # each class drifts along its own fixed unit direction
        drift = rng.normal(size=(c, d))
        self._drift_dirs = drift / np.linalg.norm(drift, axis=1, keepdims=True)
        # fixed nonlinear renderer latent -> pixels
        out_dim = 3 * config.image_size ** 2
        self._render_w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, 2 * d))
        self._render_w2 = rng.normal(0.0, 1.0 / np.sqrt(2 * d), size=(2 * d, out_dim))
        # day each class first appears
        self._appear_day = np.zeros(c, dtype=int)
        for i in range(config.initial_classes, c):
            self._appear_day[i] = (
                (i - config.initial_classes + 1) * config.new_class_interval_days
            )

    # -- world state -------------------------------------------------------
    def classes_at(self, day: int) -> np.ndarray:
        """Class ids available on ``day``."""
        if day < 0:
            raise ValueError("day must be non-negative")
        return np.flatnonzero(self._appear_day <= day)

    def prototypes_at(self, day: int) -> np.ndarray:
        """Prototype latents after ``day`` days of drift."""
        drift = self.config.drift_rate * day
        return self._prototypes + drift * self._drift_dirs * 3.0

    def dataset_size_at(self, day: int, initial_size: int) -> int:
        """Cumulative image count under 1.78 %/day growth."""
        return int(round(initial_size * (1.0 + DAILY_GROWTH_RATE) ** day))

    # -- sampling ---------------------------------------------------------
    def sample(self, n: int, day: int,
               rng: Optional[np.random.Generator] = None,
               classes: Optional[Sequence[int]] = None,
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` photos from the day-``day`` distribution.

        Returns ``(images, labels)`` with images float32 (n, 3, s, s) in
        [0, 1].  New classes are sampled at :data:`NEW_CLASS_FRACTION` of
        the mix (they are a small share of uploads) and established classes
        uniformly otherwise.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        rng = rng or np.random.default_rng(self.config.seed + 1000 + day)
        available = np.asarray(classes if classes is not None
                               else self.classes_at(day))
        if available.size == 0:
            raise ValueError("no classes available")
        recent = available[self._appear_day[available] > max(0, day - 7)]
        established = available[self._appear_day[available] <= max(0, day - 7)]
        if recent.size and established.size:
            n_new = rng.binomial(n, NEW_CLASS_FRACTION)
            labels = np.concatenate([
                rng.choice(recent, size=n_new),
                rng.choice(established, size=n - n_new),
            ])
            rng.shuffle(labels)
        else:
            labels = rng.choice(available, size=n)

        protos = self.prototypes_at(day)
        latents = protos[labels] + rng.normal(
            0.0, self.config.noise * 3.0, size=(n, self.config.latent_dim)
        )
        images = self._render(latents)
        return images, labels.astype(np.int64)

    def _render(self, latents: np.ndarray) -> np.ndarray:
        hidden = np.tanh(latents @ self._render_w1)
        flat = np.tanh(hidden @ self._render_w2)
        pixels = 0.5 + 0.5 * flat
        s = self.config.image_size
        return pixels.reshape(len(latents), 3, s, s).astype(np.float32)
