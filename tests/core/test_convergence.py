"""Tests for the Lemma 5.2 convergence check."""

import math

import numpy as np
import pytest

from repro.core.convergence import (
    check_pipelined_losses,
    inter_run_loss_gap,
)


class TestLossGap:
    def test_gap_shrinks_with_more_samples(self):
        small = inter_run_loss_gap(10_000, 100)
        large = inter_run_loss_gap(10_000, 100_000)
        assert large < small

    def test_gap_grows_with_model_size(self):
        assert inter_run_loss_gap(10**8, 1000) > inter_run_loss_gap(10**4, 1000)

    def test_gap_grows_with_confidence(self):
        assert (inter_run_loss_gap(1000, 1000, confidence=0.01)
                > inter_run_loss_gap(1000, 1000, confidence=0.2))

    def test_closed_form(self):
        gap = inter_run_loss_gap(500, 2000, confidence=0.05)
        assert gap == pytest.approx(math.sqrt(math.log(2 * 500 / 0.05) / 4000))

    def test_validation(self):
        with pytest.raises(ValueError):
            inter_run_loss_gap(0, 10)
        with pytest.raises(ValueError):
            inter_run_loss_gap(10, 0)
        with pytest.raises(ValueError):
            inter_run_loss_gap(10, 10, confidence=1.5)


class TestPipelinedAudit:
    def test_wellbehaved_runs_satisfy_lemma(self):
        losses = [[1.0, 0.6, 0.4], [0.45, 0.3], [0.32, 0.25]]
        verdicts = check_pipelined_losses(losses, num_weights=1000,
                                          samples_per_run=500)
        assert all(v.satisfies_lemma for v in verdicts)

    def test_big_jump_violates_lemma(self):
        losses = [[1.0, 0.2], [2.5, 0.3]]
        verdicts = check_pipelined_losses(losses, num_weights=100,
                                          samples_per_run=10_000)
        assert not verdicts[1].satisfies_lemma

    def test_first_run_always_passes(self):
        verdicts = check_pipelined_losses([[99.0, 1.0]], 100, 100)
        assert verdicts[0].satisfies_lemma

    def test_validation(self):
        with pytest.raises(ValueError):
            check_pipelined_losses([[1.0], []], 10, 10)
        with pytest.raises(ValueError):
            check_pipelined_losses([[1.0]], 10, 0)

    def test_real_pipelined_training_obeys_lemma(self, small_world):
        """Audit an actual pipelined FT-DMP job against Lemma 5.2."""
        from repro.core.ftdmp import FTDMPTrainer
        from repro.data.loader import normalize_images
        from repro.models.registry import tiny_model
        from repro.train.fulltrain import full_train

        model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
        x, y = small_world.sample(180, 0, rng=np.random.default_rng(1))
        full_train(model, normalize_images(x), y, epochs=2, seed=0)
        trainer = FTDMPTrainer(model, lr=3e-3)
        x_ft, y_ft = small_world.sample(180, 4, rng=np.random.default_rng(2))
        report = trainer.finetune(normalize_images(x_ft), y_ft, epochs=2,
                                  num_runs=3)
        by_run = {}
        for rec in report.epochs:
            by_run.setdefault(rec.run, []).append(rec.loss)
        runs = [by_run[k] for k in sorted(by_run)]
        clf_params = sum(p.size for p in model.classifier.parameters())
        verdicts = check_pipelined_losses(runs, clf_params, 60)
        assert all(v.satisfies_lemma for v in verdicts)
