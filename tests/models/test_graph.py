"""Unit & property tests for model stage graphs and partition points."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.catalog import ALL_MODELS, model_graph
from repro.models.graph import (
    FEATURE_DTYPE_BYTES,
    INPUT_DTYPE_BYTES,
    ModelGraph,
    StageSpec,
)


def simple_graph():
    stages = [
        StageSpec("A", 1e9, 100, 1000),
        StageSpec("B", 2e9, 200, 500),
        StageSpec("FC", 1e7, 50, 10, trainable=True),
    ]
    return ModelGraph("toy", stages, input_elems=3000, raw_image_bytes=8192)


class TestModelGraph:
    def test_requires_trainable_last(self):
        with pytest.raises(ValueError, match="trainable"):
            ModelGraph("bad", [StageSpec("A", 1.0, 1, 1)], 10, 10)

    def test_trainable_must_be_last(self):
        stages = [StageSpec("FC", 1.0, 1, 1, trainable=True),
                  StageSpec("B", 1.0, 1, 1)]
        with pytest.raises(ValueError, match="last"):
            ModelGraph("bad", stages, 10, 10)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph("bad", [], 10, 10)

    def test_totals(self):
        g = simple_graph()
        assert g.total_flops == pytest.approx(3.01e9)
        assert g.total_params == 350
        assert g.input_bytes == 3000 * INPUT_DTYPE_BYTES
        assert g.classifier_params == 50

    def test_partition_point_labels(self):
        g = simple_graph()
        labels = [g.partition_point(i).label for i in range(4)]
        assert labels == ["None", "+A", "+B", "+FC"]

    def test_partition_point_zero_ships_inputs(self):
        point = simple_graph().partition_point(0)
        assert point.feature_bytes == 3000 * INPUT_DTYPE_BYTES
        assert point.front_flops == 0
        assert point.sync_bytes == 0

    def test_partition_point_full_offload_has_sync(self):
        g = simple_graph()
        point = g.partition_point(3)
        assert point.sync_bytes == 50 * 4
        assert point.feature_bytes < 100  # labels only

    def test_partition_flops_conservation(self):
        g = simple_graph()
        for i in range(g.num_partition_points()):
            point = g.partition_point(i)
            fwd_back = sum(
                s.flops_fwd for s in g.stages[i:] if not s.trainable
            ) + sum(3 * s.flops_fwd for s in g.stages[i:] if s.trainable)
            assert point.front_flops + sum(
                s.flops_fwd for s in g.stages[i:]
            ) == pytest.approx(g.total_flops)
            assert point.back_flops_train == pytest.approx(fwd_back)

    def test_partition_out_of_range(self):
        with pytest.raises(ValueError):
            simple_graph().partition_point(9)

    def test_feature_bytes_match_activation_elems(self):
        g = simple_graph()
        assert g.partition_point(1).feature_bytes == 1000 * FEATURE_DTYPE_BYTES

    def test_stage_flops_train_triples_trainable(self):
        s = StageSpec("FC", 10.0, 1, 1, trainable=True)
        assert s.flops_train == 30.0
        assert StageSpec("A", 10.0, 1, 1).flops_train == 10.0


class TestCatalog:
    def test_all_five_models_present(self):
        assert [model_graph(name).name for name in ALL_MODELS] == ALL_MODELS

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            model_graph("AlexNet")

    @pytest.mark.parametrize("name,gflops,params_m", [
        ("ResNet50", 4.2, 25.6),
        ("InceptionV3", 5.7, 23.9),
        ("ShuffleNetV2", 0.3, 2.2),
        ("ResNeXt101", 16.4, 88.7),
        ("ViT", 17.6, 86.7),
    ])
    def test_published_scales(self, name, gflops, params_m):
        g = model_graph(name)
        assert g.total_flops / 1e9 == pytest.approx(gflops, rel=0.05)
        assert g.total_params / 1e6 == pytest.approx(params_m, rel=0.05)

    def test_every_graph_ends_with_trainable_classifier(self):
        for g in map(model_graph, ALL_MODELS):
            assert g.stages[-1].trainable
            assert not any(s.trainable for s in g.stages[:-1])

    def test_resnet50_conv5_feature_bytes(self):
        """The Fig. 9 calibration: +Conv5 ships 2048 fp32 floats per image."""
        g = model_graph("ResNet50")
        point = g.partition_point(5)
        assert point.label == "+Conv5"
        assert point.feature_bytes == 2048 * FEATURE_DTYPE_BYTES

    def test_raw_image_size_is_paper_average(self):
        assert model_graph("ResNet50").raw_image_bytes == 2_700_000

    def test_preprocessed_binary_is_0_59_mb(self):
        g = model_graph("ResNet50")
        assert g.input_bytes == pytest.approx(590_000, rel=0.03)

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(ALL_MODELS), idx=st.integers(0, 6))
    def test_partition_points_always_valid(self, name, idx):
        g = model_graph(name)
        idx = idx % g.num_partition_points()
        point = g.partition_point(idx)
        assert point.front_flops >= 0
        assert point.feature_bytes > 0
        assert point.back_flops_train >= 0
