"""Convergence check for pipelined FT-DMP (§5.2, Lemma 5.2).

The paper guarantees each pipeline run converges given (A) hidden dims at
least min(input, output) dims, (B) delta-balanced starting weights, and (C)
an initial loss bounded via the previous run's final loss plus a Hoeffding
inter-run gap.  These helpers compute Lemma 5.2's gap and audit an
observed run trajectory against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


def inter_run_loss_gap(num_weights: int, num_samples: int,
                       confidence: float = 0.05) -> float:
    """Lemma 5.2's Delta: Hoeffding bound on |l2(0) - l1(T1)|.

    ``Delta = sqrt(log(2P / theta) / (2m))`` with ``P`` total weights,
    ``m`` training samples, ``theta`` the union-bound confidence.
    """
    if num_weights <= 0 or num_samples <= 0:
        raise ValueError("weights and samples must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return math.sqrt(math.log(2.0 * num_weights / confidence) / (2.0 * num_samples))


@dataclass(frozen=True)
class RunConvergence:
    """Per-run verdict: does a run's start loss obey the Lemma 5.2 bound?"""

    run: int
    start_loss: float
    end_loss: float
    #: upper bound on the run's starting loss (prev run's final loss + Delta);
    #: infinity for the first run, which has no predecessor
    start_bound: float

    @property
    def satisfies_lemma(self) -> bool:
        return self.start_loss <= self.start_bound


def check_pipelined_losses(run_losses: Sequence[Sequence[float]],
                           num_weights: int, samples_per_run: int,
                           confidence: float = 0.05) -> List[RunConvergence]:
    """Audit an observed pipelined training trajectory against Lemma 5.2.

    For each run k >= 1, the starting loss should not exceed the previous
    run's final loss plus the Hoeffding inter-run gap
    ``Delta(num_weights, samples_per_run, confidence)``.
    """
    if samples_per_run <= 0:
        raise ValueError("samples_per_run must be positive")
    gap = inter_run_loss_gap(num_weights, samples_per_run, confidence)
    verdicts: List[RunConvergence] = []
    prev_final = float("inf")
    for k, losses in enumerate(run_losses):
        if not losses:
            raise ValueError(f"run {k} recorded no losses")
        start, end = float(losses[0]), float(losses[-1])
        bound = float("inf") if k == 0 else prev_final + gap
        verdicts.append(RunConvergence(run=k, start_loss=start, end_loss=end,
                                       start_bound=bound))
        prev_final = end
    return verdicts
