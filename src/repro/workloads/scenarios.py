"""Workload generators for the paper's evaluation scenarios.

The central one is the two-week drift scenario of §3.2 / §6.3: a base
model is trained on day 0; images accumulate at 1.78 %/day with 5.3 % of
new uploads in new categories; the model is evaluated every other day
against fresh test sets, optionally fine-tuned or fully retrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.ftdmp import FTDMPTrainer
from ..data.drift import DriftingPhotoWorld
from ..data.loader import normalize_images
from ..models.split import SplitModel
from ..nn.losses import accuracy, topk_accuracy
from ..nn.tensor import Tensor
from ..train.fulltrain import full_train


@dataclass
class DriftPoint:
    """Model quality measured on one evaluation day."""

    day: int
    top1: float
    top5: float


@dataclass
class DriftScenarioResult:
    """Accuracy trajectories of the §3.2 strategies over two weeks."""

    strategy: str
    points: List[DriftPoint] = field(default_factory=list)

    @property
    def final_top1(self) -> float:
        return self.points[-1].top1


def evaluate_model(model: SplitModel, x: np.ndarray, y: np.ndarray,
                   batch_size: int = 256) -> Tuple[float, float]:
    """(top-1, top-5) of a model on raw [0, 1] images."""
    was_training = model.training
    model.eval()
    logits = []
    normed = normalize_images(x)
    for start in range(0, len(x), batch_size):
        logits.append(model(Tensor(normed[start:start + batch_size])).data)
    model.train(was_training)
    stacked = np.concatenate(logits, axis=0)
    return accuracy(stacked, y), topk_accuracy(stacked, y, k=5)


@dataclass(frozen=True)
class DriftScenarioConfig:
    """Scale knobs for the two-week drift study."""

    horizon_days: int = 14
    eval_every_days: int = 2
    train_size: int = 1200
    test_size: int = 600
    base_epochs: int = 6
    finetune_epochs: int = 3
    finetune_size: int = 600
    lr: float = 3e-3
    seed: int = 0


def run_drift_scenario(world: DriftingPhotoWorld,
                       model_factory: Callable[[], SplitModel],
                       strategy: str,
                       config: DriftScenarioConfig = DriftScenarioConfig(),
                       base_model: Optional[SplitModel] = None,
                       ) -> DriftScenarioResult:
    """Run one maintenance strategy over the drift horizon.

    ``strategy``:

    * ``"outdated"`` — train once on day 0, never update;
    * ``"finetune"`` — fine-tune the classifier on recent images at every
      evaluation day (the NDPipe strategy);
    * ``"full"`` — retrain from scratch on the latest data at every
      evaluation day (the infeasible gold standard).
    """
    if strategy not in ("outdated", "finetune", "full"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng(config.seed)

    model = base_model if base_model is not None else train_base_model(
        world, model_factory, config
    )
    trainer: Optional[FTDMPTrainer] = None
    if strategy == "finetune":
        trainer = FTDMPTrainer(model, lr=config.lr, seed=config.seed)

    result = DriftScenarioResult(strategy=strategy)
    for day in range(0, config.horizon_days + 1, config.eval_every_days):
        if day > 0 and strategy == "finetune":
            x_new, y_new = world.sample(config.finetune_size, day, rng=rng)
            trainer.finetune(normalize_images(x_new), y_new,
                             epochs=config.finetune_epochs)
        elif day > 0 and strategy == "full":
            model = model_factory()
            # cumulative historical + recent data (§2.2): the expensive
            # gold standard trains on everything accumulated so far
            xs, ys = [], []
            sample_days = np.unique(np.linspace(0, day, 3).astype(int))
            per_day = max(int(config.train_size * 1.5) // len(sample_days),
                          16)
            for offset, d in enumerate(sample_days):
                x_d, y_d = world.sample(
                    per_day, int(d),
                    rng=np.random.default_rng(config.seed + 500 + day + offset),
                )
                xs.append(x_d)
                ys.append(y_d)
            full_train(model, normalize_images(np.concatenate(xs)),
                       np.concatenate(ys), epochs=config.base_epochs + 2,
                       lr=config.lr, seed=config.seed)
        x_test, y_test = world.sample(
            config.test_size, day, rng=np.random.default_rng(config.seed + day)
        )
        top1, top5 = evaluate_model(model, x_test, y_test)
        result.points.append(DriftPoint(day=day, top1=top1, top5=top5))
    return result


def train_base_model(world: DriftingPhotoWorld,
                     model_factory: Callable[[], SplitModel],
                     config: DriftScenarioConfig = DriftScenarioConfig(),
                     ) -> SplitModel:
    """Train the day-0 base model (only the initially available classes)."""
    model = model_factory()
    x, y = world.sample(config.train_size, 0,
                        rng=np.random.default_rng(config.seed + 77))
    full_train(model, normalize_images(x), y, epochs=config.base_epochs,
               lr=config.lr, seed=config.seed)
    return model
