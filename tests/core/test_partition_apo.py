"""Tests for FindBestPoint / partition evaluation / APO (Algorithm 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.apo import plan_organization
from repro.core.partition import (
    FinetunePlanConfig,
    evaluate_all_points,
    evaluate_partition,
    find_best_point,
    pipelined_time,
    store_stage_rate,
)
from repro.models.catalog import model_graph
from repro.sim.specs import (
    NEURONCORE_V1,
    NetworkSpec,
    TEN_GBE,
    TESLA_T4,
    TESLA_V100,
)


@pytest.fixture(scope="module")
def resnet():
    return model_graph("ResNet50")


class TestPipelinedTime:
    def test_single_run_is_serial_sum(self):
        assert pipelined_time(100.0, 50.0, 1) == pytest.approx(150.0)

    def test_more_runs_never_slower(self):
        times = [pipelined_time(100.0, 100.0, r) for r in (1, 2, 3, 4, 6)]
        assert times == sorted(times, reverse=True)

    def test_balanced_stage_reductions_match_paper(self):
        """Balanced stages: ~25% and ~33% reduction for N_run 2 and 3.

        The paper measures 23% / 32% (Fig. 17).
        """
        base = pipelined_time(1.0, 1.0, 1)
        assert 1 - pipelined_time(1.0, 1.0, 2) / base == pytest.approx(0.25)
        assert 1 - pipelined_time(1.0, 1.0, 3) / base == pytest.approx(1 / 3)

    def test_asymptote_is_bottleneck_stage(self):
        limit = pipelined_time(90.0, 30.0, 1000)
        assert limit == pytest.approx(90.0, rel=0.05)

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            pipelined_time(1.0, 1.0, 0)

    @settings(max_examples=20, deadline=None)
    @given(store=st.floats(1.0, 1e4), tuner=st.floats(1.0, 1e4),
           runs=st.integers(1, 16))
    def test_property_bounds(self, store, tuner, runs):
        total = pipelined_time(store, tuner, runs)
        assert total <= store + tuner + 1e-9            # never worse than serial
        assert total >= max(store, tuner) - 1e-9        # never beats bottleneck


class TestStoreStageRate:
    def test_accelerator_bound_for_resnet(self, resnet):
        rate = store_stage_rate(resnet, 5, TESLA_T4, FinetunePlanConfig())
        fe = TESLA_T4.fe_ips(resnet, 5, 512)
        assert rate == pytest.approx(fe)

    def test_weaker_accelerator_lowers_rate(self, resnet):
        t4 = store_stage_rate(resnet, 5, TESLA_T4, FinetunePlanConfig())
        nc = store_stage_rate(resnet, 5, NEURONCORE_V1, FinetunePlanConfig())
        assert nc < t4


class TestEvaluatePartition:
    def test_requires_positive_stores(self, resnet):
        with pytest.raises(ValueError):
            evaluate_partition(resnet, 5, 0, TESLA_T4, TESLA_V100, TEN_GBE)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FinetunePlanConfig(dataset_images=0)
        with pytest.raises(ValueError):
            FinetunePlanConfig(num_runs=0)
        with pytest.raises(ValueError):
            FinetunePlanConfig(dataset_images=2, num_runs=5)

    def test_feature_traffic_matches_cut_size(self, resnet):
        config = FinetunePlanConfig(dataset_images=1000)
        ev = evaluate_partition(resnet, 5, 4, TESLA_T4, TESLA_V100, TEN_GBE,
                                config)
        assert ev.feature_traffic_bytes == 1000 * resnet.partition_point(5).feature_bytes

    def test_conv5_cut_is_9_16_gb_scale(self, resnet):
        """Fig. 9 calibration: +Conv5 ships ~9.8 GB for 1.2M images."""
        ev = evaluate_partition(resnet, 5, 4, TESLA_T4, TESLA_V100, TEN_GBE)
        assert ev.feature_traffic_bytes == pytest.approx(9.8e9, rel=0.05)

    def test_sync_only_when_trainable_offloaded(self, resnet):
        for split in range(resnet.num_partition_points() - 1):
            ev = evaluate_partition(resnet, split, 4, TESLA_T4, TESLA_V100,
                                    TEN_GBE)
            assert ev.sync_traffic_bytes == 0
        full = evaluate_partition(resnet, resnet.num_partition_points() - 1,
                                  4, TESLA_T4, TESLA_V100, TEN_GBE)
        assert full.sync_traffic_bytes > 0
        assert full.sync_time_s > 0

    def test_sync_traffic_linear_in_stores(self, resnet):
        """§4.1: synchronisation cost grows linearly with storage servers."""
        last = resnet.num_partition_points() - 1
        ev4 = evaluate_partition(resnet, last, 4, TESLA_T4, TESLA_V100, TEN_GBE)
        ev8 = evaluate_partition(resnet, last, 8, TESLA_T4, TESLA_V100, TEN_GBE)
        assert ev8.sync_traffic_bytes == pytest.approx(
            2 * ev4.sync_traffic_bytes)

    def test_more_stores_faster_until_tuner_bound(self, resnet):
        t2 = evaluate_partition(resnet, 5, 2, TESLA_T4, TESLA_V100, TEN_GBE)
        t8 = evaluate_partition(resnet, 5, 8, TESLA_T4, TESLA_V100, TEN_GBE)
        assert t8.training_time_s < t2.training_time_s


class TestFindBestPoint:
    def test_resnet50_best_cut_is_conv5(self, resnet):
        """Fig. 9: shortest training time after offloading +Conv5."""
        best = find_best_point(resnet, 4, TESLA_T4, TESLA_V100, TEN_GBE)
        assert best.point.label == "+Conv5"

    def test_fc_offload_never_wins(self, resnet):
        """Trainable layers stay on the Tuner across store counts."""
        for stores in (1, 4, 8, 16, 20):
            best = find_best_point(resnet, stores, TESLA_T4, TESLA_V100,
                                   TEN_GBE)
            assert best.point.sync_bytes == 0

    def test_traffic_surges_at_fc(self, resnet):
        """Fig. 9: data traffic surges once the FC layer is offloaded."""
        evs = evaluate_all_points(resnet, 4, TESLA_T4, TESLA_V100, TEN_GBE)
        by_label = {e.point.label: e for e in evs}
        def traffic(label):
            return (by_label[label].feature_traffic_bytes
                    + by_label[label].sync_traffic_bytes)

        assert traffic("+FC") > 5 * traffic("+Conv5")

    @pytest.mark.parametrize("model", ["InceptionV3", "ResNeXt101", "ViT",
                                       "ShuffleNetV2"])
    def test_best_point_is_deep_cut_for_all_models(self, model):
        graph = model_graph(model)
        best = find_best_point(graph, 4, TESLA_T4, TESLA_V100, TEN_GBE)
        # the winning cut keeps only the trainable tail on the Tuner
        assert best.point.index == graph.num_partition_points() - 2


class TestApo:
    def test_apo_picks_eight_stores_for_resnet50(self, resnet):
        """Fig. 11: APO chooses 8 PipeStores for ResNet50 + V100 Tuner."""
        plan = plan_organization(resnet)
        assert plan.num_pipestores == 8
        assert plan.split_label == "+Conv5"

    def test_sweep_has_every_store_count(self, resnet):
        plan = plan_organization(resnet, max_pipestores=12)
        assert [c.num_pipestores for c in plan.candidates] == list(range(1, 13))

    def test_imbalance_minimised_at_pick(self, resnet):
        plan = plan_organization(resnet)
        best_imbalance = plan.best.stage_imbalance_s
        assert all(c.stage_imbalance_s >= best_imbalance - 1e-9
                   for c in plan.candidates)

    def test_training_time_flattens_past_pick(self, resnet):
        """Fig. 11a: adding stores beyond APO's pick is marginal."""
        plan = plan_organization(resnet)
        t_pick = next(c.training_time_s for c in plan.candidates
                      if c.num_pipestores == plan.num_pipestores)
        t_max = plan.candidates[-1].training_time_s
        assert t_pick / t_max < 1.25

    def test_energy_efficiency_declines_when_overprovisioned(self, resnet):
        """Fig. 11b: IPS/kJ decreases as extra PipeStores idle."""
        plan = plan_organization(resnet)
        best_e = plan.most_energy_efficient()
        tail = [c.ips_per_kj for c in plan.candidates
                if c.num_pipestores >= max(best_e.num_pipestores, 10)]
        assert tail == sorted(tail, reverse=True)

    def test_validation(self, resnet):
        with pytest.raises(ValueError):
            plan_organization(resnet, max_pipestores=0)
        from repro.sim.specs import G4DN_4XLARGE_NOGPU

        with pytest.raises(ValueError, match="accelerator"):
            plan_organization(resnet, store_server=G4DN_4XLARGE_NOGPU)

    def test_slower_network_shifts_best_cut_shallower_or_equal(self, resnet):
        fast = find_best_point(resnet, 4, TESLA_T4, TESLA_V100,
                               NetworkSpec(gbps=40))
        slow = find_best_point(resnet, 4, TESLA_T4, TESLA_V100,
                               NetworkSpec(gbps=0.5))
        assert slow.point.index >= fast.point.index - 1
