"""Tests for the offline relabel-campaign estimates: a ``SystemPoint``'s
``time_for``, ``energy_kj_for`` and per-image ``wire_bytes``, as
``examples/offline_relabel.py`` reads them."""

import pytest

from repro.models.catalog import model_graph
from repro.sim.specs import PREPROCESSED_BYTES
from repro.train.baselines import ndpipe_inference, srv_inference


@pytest.fixture(scope="module")
def resnet():
    return model_graph("ResNet50")


class TestCampaigns:
    def test_ndpipe_network_bytes_are_labels_only(self, resnet):
        point = ndpipe_inference(resnet, 8)
        assert 1_000_000 * point.wire_bytes == 1_000_000 * 16
        assert point.throughput_ips == pytest.approx(8 * 2129, rel=0.02)

    def test_srv_campaign_ships_binaries(self, resnet):
        assert 1000 * srv_inference("SRV-C", resnet).wire_bytes \
            == 1000 * 206_293
        assert srv_inference("SRV-P", resnet).wire_bytes \
            == PREPROCESSED_BYTES
        assert srv_inference("SRV-I", resnet).wire_bytes == 0

    def test_comparison_contains_all_systems(self, resnet):
        points = [srv_inference(variant, resnet)
                  for variant in ("SRV-I", "SRV-P", "SRV-C")]
        points.append(ndpipe_inference(resnet, 6))
        assert {point.name for point in points} \
            == {"SRV-I", "SRV-P", "SRV-C", "NDPipe"}

    def test_ndpipe_moves_orders_of_magnitude_fewer_bytes(self, resnet):
        photos = 100_000
        ndpipe = photos * ndpipe_inference(resnet, 6).wire_bytes
        srv_c = photos * srv_inference("SRV-C", resnet).wire_bytes
        assert ndpipe < srv_c / 1000

    def test_duration_scales_with_photos(self, resnet):
        point = ndpipe_inference(resnet, 4)
        assert point.time_for(10_000) == pytest.approx(
            10 * point.time_for(1000))
        assert point.energy_kj_for(10_000) == pytest.approx(
            10 * point.energy_kj_for(1000))
