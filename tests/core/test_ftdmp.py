"""Tests for the runnable FT-DMP trainer: split equivalence & fine-tuning."""

import numpy as np
import pytest

from repro.core.ftdmp import FTDMPTrainer
from repro.data.loader import normalize_images
from repro.models.registry import tiny_model
from repro.nn.losses import accuracy
from repro.nn.tensor import Tensor, inference_mode
from repro.train.fulltrain import full_train
from tests.nn.reference_ops import assert_frozen_graph_close


@pytest.fixture
def trained_setup(small_world):
    """A base-trained tiny ResNet plus train/test data."""
    model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
    x, y = small_world.sample(160, 0, rng=np.random.default_rng(3))
    full_train(model, normalize_images(x), y, epochs=2, lr=3e-3, seed=0)
    x_ft, y_ft = small_world.sample(120, 6, rng=np.random.default_rng(4))
    return model, normalize_images(x_ft), y_ft


class TestFeatureExtraction:
    def test_features_equal_unsplit_forward(self, trained_setup):
        model, x, _ = trained_setup
        trainer = FTDMPTrainer(model, batch_size=32)
        feats = trainer.extract_features(x)
        model.eval()
        split = model.num_stages - 1
        with inference_mode():
            np.testing.assert_array_equal(
                feats, model.forward_until(Tensor(x), split).data)
        assert_frozen_graph_close(
            model.forward_until(Tensor(x), split).data, feats)

    def test_extraction_restores_training_mode(self, trained_setup):
        model, x, _ = trained_setup
        trainer = FTDMPTrainer(model)
        model.train()
        trainer.extract_features(x[:8])
        assert model.training

    def test_extraction_batched_consistently(self, trained_setup):
        model, x, _ = trained_setup
        small = FTDMPTrainer(model, batch_size=16).extract_features(x)
        large = FTDMPTrainer(model, batch_size=64).extract_features(x)
        assert np.allclose(small, large)


class TestFinetune:
    def test_loss_decreases(self, trained_setup):
        model, x, y = trained_setup
        trainer = FTDMPTrainer(model, lr=5e-3)
        report = trainer.finetune(x, y, epochs=4)
        assert report.epochs[-1].loss < report.epochs[0].loss

    def test_frozen_layers_untouched(self, trained_setup):
        """Snapshot after freezing: freezing itself rounds the front's
        masters to float32 once; training must not move them after."""
        model, x, y = trained_setup
        model.freeze_features()
        before = {
            name: param.data.copy()
            for i in range(model.num_stages - 1)
            for name, param in model.stage(i).named_parameters(f"s{i}.")
        }
        FTDMPTrainer(model, lr=5e-3).finetune(x, y, epochs=2)
        for i in range(model.num_stages - 1):
            for name, param in model.stage(i).named_parameters(f"s{i}."):
                assert np.array_equal(param.data, before[name]), name

    def test_classifier_changes(self, trained_setup):
        model, x, y = trained_setup
        before = model.classifier.state_dict()
        FTDMPTrainer(model, lr=5e-3).finetune(x, y, epochs=1)
        after = model.classifier.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_finetune_improves_drifted_accuracy(self, small_world):
        # deterministic medium-scale run: base on day 0, drift to day 10
        model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
        x, y = small_world.sample(240, 0, rng=np.random.default_rng(3))
        full_train(model, normalize_images(x), y, epochs=3, lr=3e-3, seed=0)
        x_ft, y_ft = small_world.sample(240, 10, rng=np.random.default_rng(4))
        x_test, y_test = small_world.sample(240, 10,
                                            rng=np.random.default_rng(9))
        x_test = normalize_images(x_test)
        model.eval()
        before = accuracy(model(Tensor(x_test)).data, y_test)
        FTDMPTrainer(model, lr=5e-3).finetune(normalize_images(x_ft), y_ft,
                                              epochs=5)
        model.eval()
        after = accuracy(model(Tensor(x_test)).data, y_test)
        assert after >= before

    def test_feature_bytes_accounted(self, trained_setup):
        """Billed at the wire size: a byte per element plus a float32
        (low, step) per row (was ``feat_dim * 4`` a row, float32)."""
        model, x, y = trained_setup
        report = FTDMPTrainer(model).finetune(x, y, epochs=1)
        feat_dim = model.feature_dim_after(model.num_stages - 1)[0]
        assert report.feature_bytes == len(x) * (feat_dim + 8)
        assert report.images_extracted == len(x)

    def test_eval_trace_recorded(self, trained_setup):
        model, x, y = trained_setup
        trainer = FTDMPTrainer(model)
        calls = []
        report = trainer.finetune(x, y, epochs=2, num_runs=2,
                                  eval_fn=lambda: len(calls) or calls.append(1) or 0.5)
        assert len(report.accuracy_trace) == 4  # 2 runs x 2 epochs


class TestPipelinedRuns:
    def test_run_count_respected(self, trained_setup):
        model, x, y = trained_setup
        report = FTDMPTrainer(model).finetune(x, y, epochs=1, num_runs=3)
        assert report.num_runs == 3
        assert {e.run for e in report.epochs} == {0, 1, 2}

    def test_runs_partition_the_dataset(self, trained_setup):
        model, x, y = trained_setup
        report = FTDMPTrainer(model).finetune(x, y, epochs=1, num_runs=4)
        assert report.images_extracted == len(x)

    def test_invalid_split(self):
        model = tiny_model("ResNet50", num_classes=4)
        with pytest.raises(ValueError):
            FTDMPTrainer(model, split=model.num_stages)  # nothing on Tuner

    def test_earlier_split_still_trains(self, trained_setup):
        model, x, y = trained_setup
        trainer = FTDMPTrainer(model, split=2, lr=5e-3)
        report = trainer.finetune(x[:64], y[:64], epochs=2)
        assert report.epochs[-1].loss < report.epochs[0].loss
        trainer.verify_frozen_unchanged()

    @pytest.mark.parametrize("split", [1, 2, 3, 4, 5])
    def test_frozen_buffers_stay_put_at_every_split(self, small_world, split):
        """The Tuner runs the frozen stages past an early split in eval
        mode: no BatchNorm running statistic moves, on the single-host
        trainer (``verify_frozen_unchanged`` checks buffers too) and on
        a cluster's Tuner, whose front stays the stores' one value."""
        from repro.core import ClusterConfig, NDPipeCluster

        x, y = small_world.sample(24, 0, rng=np.random.default_rng(3))
        model = tiny_model("ResNet50", num_classes=8, width=8, seed=0)
        trainer = FTDMPTrainer(model, split=split)
        front = dict(model.front.arrays)
        trainer.finetune(normalize_images(x), y, epochs=1)
        trainer.verify_frozen_unchanged()
        assert dict(model.front.arrays) == front
        cluster = NDPipeCluster(
            lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
            ClusterConfig(num_stores=2, split=split, nominal_raw_bytes=2048))
        cluster.ingest(x, train_labels=y)
        tuner = cluster.tuner
        before = {key: value.copy()
                  for key, value in tuner.model.front.arrays.items()}
        cluster.finetune(epochs=1)
        for key, value in tuner.model.front.arrays.items():
            np.testing.assert_array_equal(value, before[key], err_msg=key)
        assert all(store.model.front is tuner.model.front
                   for store in cluster.stores)

    def test_mismatched_xy_rejected(self, trained_setup):
        model, x, y = trained_setup
        with pytest.raises(ValueError):
            FTDMPTrainer(model).finetune(x, y[:-1])

    def test_bad_optimizer_name(self):
        model = tiny_model("ResNet50", num_classes=4)
        with pytest.raises(ValueError, match="optimizer"):
            FTDMPTrainer(model, optimizer="lion").finetune(
                np.zeros((4, 3, 16, 16)), np.zeros(4, dtype=int))

    def test_sgd_optimizer_works(self, trained_setup):
        model, x, y = trained_setup
        report = FTDMPTrainer(model, optimizer="sgd", lr=1e-2).finetune(
            x[:64], y[:64], epochs=2)
        assert np.isfinite(report.final_loss)

    def test_bad_batch_size(self):
        model = tiny_model("ResNet50", num_classes=4)
        with pytest.raises(ValueError):
            FTDMPTrainer(model, batch_size=0)
