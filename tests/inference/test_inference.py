"""Tests for the online latency model and offline campaign estimates."""

import pytest

from repro.inference.offline import (
    campaign_comparison,
    ndpipe_campaign,
    srv_campaign,
)
from repro.inference.online import online_latency
from repro.models.catalog import model_graph


@pytest.fixture(scope="module")
def resnet():
    return model_graph("ResNet50")


class TestCampaigns:
    def test_ndpipe_network_bytes_are_labels_only(self, resnet):
        est = ndpipe_campaign(resnet, 1_000_000, 8)
        assert est.network_bytes == 1_000_000 * 16
        assert est.throughput_ips == pytest.approx(8 * 2129, rel=0.02)

    def test_srv_campaign_ships_binaries(self, resnet):
        est = srv_campaign(resnet, 1000, "SRV-C")
        assert est.network_bytes == 1000 * 206_293
        assert srv_campaign(resnet, 1000, "SRV-I").network_bytes == 0

    def test_comparison_contains_all_systems(self, resnet):
        out = campaign_comparison(resnet, 10_000, 6)
        assert set(out) == {"SRV-I", "SRV-P", "SRV-C", "NDPipe"}

    def test_ndpipe_moves_orders_of_magnitude_fewer_bytes(self, resnet):
        out = campaign_comparison(resnet, 100_000, 6)
        assert out["NDPipe"].network_bytes < out["SRV-C"].network_bytes / 1000

    def test_duration_scales_with_photos(self, resnet):
        small = ndpipe_campaign(resnet, 1000, 4)
        big = ndpipe_campaign(resnet, 10_000, 4)
        assert big.duration_s == pytest.approx(10 * small.duration_s)


class TestOnlineLatency:
    def test_components_positive(self, resnet):
        model = online_latency(resnet)
        assert model.preprocess_s > 0
        assert model.inference_s > 0
        assert model.total_s > model.preprocess_s

    def test_preprocessing_dominates_single_image(self, resnet):
        """At batch 1 on a V100, JPEG preprocessing dwarfs the forward."""
        model = online_latency(resnet)
        assert model.preprocess_s > model.inference_s

