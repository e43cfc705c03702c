"""Full training (every layer, from scratch) on the numpy substrate.

Used to create base models for the drift studies and as the 'Full'
comparison row of Table 2 / Fig. 4.  Contrast with
:class:`repro.core.ftdmp.FTDMPTrainer`, which freezes the feature
extractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..data.loader import batch_iter
from ..models.split import SplitModel
from ..nn.losses import cross_entropy
from ..nn.optim import Adam
from ..nn.tensor import Tensor

#: images per optimiser step
BATCH_SIZE = 64


@dataclass
class TrainHistory:
    """Loss trajectory of one full-training job."""

    losses: List[float] = field(default_factory=list)
    epochs: int = 0
    images_seen: int = 0


def full_train(model: SplitModel, x: np.ndarray, y: np.ndarray,
               epochs: int = 5, lr: float = 3e-3, seed: int = 0,
               ) -> TrainHistory:
    """Train every layer of ``model`` on (x, y) with Adam at learning rate
    ``lr``, ``epochs`` passes over the data in shuffled batches of
    :data:`BATCH_SIZE` (``seed`` fixes the order); returns the loss
    history, one mean loss per epoch."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    model.unfreeze()
    model.train()
    opt = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    history = TrainHistory()
    for _ in range(epochs):
        losses = []
        for xb, yb in batch_iter(x, y, BATCH_SIZE, rng):
            logits = model(Tensor(xb))
            loss = cross_entropy(logits, yb)
            model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        history.losses.append(float(np.mean(losses)))
        history.epochs += 1
        history.images_seen += len(x)
    return history
