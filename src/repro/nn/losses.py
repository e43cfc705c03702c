"""Loss functions and classification metrics."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, log_softmax


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``labels``."""
    labels = np.asarray(labels)
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), labels]
    return -picked.mean()


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of raw logits / probabilities."""
    return float((logits.argmax(axis=-1) == labels).mean())


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
    """Top-k accuracy: fraction of rows whose label is among the k largest logits."""
    if k >= logits.shape[-1]:
        return 1.0
    topk = np.argpartition(logits, -k, axis=-1)[:, -k:]
    return float((topk == labels[:, None]).any(axis=-1).mean())
