"""Hardware-catalog tests, including the paper-calibration anchors."""

import pytest

from repro.models.catalog import model_graph
from repro.sim import specs
from repro.sim.specs import (
    COMPRESSED_PREPROCESSED_BYTES,
    HOST_CPU,
    NEURONCORE_V1,
    PREPROCESSED_BYTES,
    RAW_IMAGE_BYTES,
    ST1_RAID,
    STORAGE_CPU,
    TEN_GBE,
    TESLA_T4,
    TESLA_V100,
    NetworkSpec,
)


class TestCalibrationAnchors:
    """The measured numbers from §6 the catalog is tuned to reproduce."""

    @pytest.mark.parametrize("model,target", [
        ("ResNet50", 2129), ("InceptionV3", 2439),
        ("ResNeXt101", 449), ("ViT", 277),
    ])
    def test_t4_inference_ips_at_batch_128(self, model, target):
        graph = model_graph(model)
        assert TESLA_T4.inference_ips(graph, 128) == pytest.approx(target, rel=0.02)

    def test_t4_fe_throughput_matches_artifact(self):
        """Artifact A.6: ~1913 images/s feature extraction for ResNet50."""
        graph = model_graph("ResNet50")
        fe = TESLA_T4.fe_ips(graph, 5, batch_size=512)
        assert fe == pytest.approx(1913, rel=0.03)

    def test_v100_is_about_3x_t4(self):
        graph = model_graph("ResNet50")
        ratio = (TESLA_V100.inference_ips(graph, 128)
                 / TESLA_T4.inference_ips(graph, 128))
        assert 2.5 < ratio < 3.5

    def test_tuner_rate_balances_eight_pipestores(self):
        """Fig. 11: APO picks 8 PipeStores for ResNet50."""
        graph = model_graph("ResNet50")
        tuner = TESLA_V100.tail_train_ips(graph, 5)
        store = TESLA_T4.fe_ips(graph, 5, 512)
        assert tuner / store == pytest.approx(8.0, abs=0.5)

    def test_neuroncore_weaker_than_t4(self):
        graph = model_graph("ResNet50")
        assert (NEURONCORE_V1.inference_ips(graph, 128)
                < 0.5 * TESLA_T4.inference_ips(graph, 128))

    def test_finetune_over_300x_faster_than_full_training(self):
        """§1/§6: NDPipe fine-tuning is >300x faster than full training."""
        graph = model_graph("ResNet50")
        full_rate = 2 * TESLA_V100.full_train_ips(graph)
        full_time = 90 * 1_200_000 / full_rate
        tuner_rate = TESLA_V100.tail_train_ips(graph, 5)
        finetune_time = 1_200_000 / tuner_rate
        assert full_time / finetune_time > 300


class TestAcceleratorModel:
    def test_batch_saturation_curve_monotone(self):
        graph = model_graph("ResNet50")
        rates = [TESLA_T4.inference_ips(graph, b) for b in (1, 8, 32, 128, 512)]
        assert rates == sorted(rates)
        assert rates[0] < 0.2 * rates[-1]

    def test_flops_ips_scales_inversely(self):
        assert TESLA_T4.flops_ips("ResNet50", 1e9) == pytest.approx(
            2 * TESLA_T4.flops_ips("ResNet50", 2e9))

    def test_zero_flops_is_free(self):
        assert TESLA_T4.flops_ips("ResNet50", 0) == float("inf")

    def test_fe_ips_training_slower_than_inference_mode(self):
        graph = model_graph("ResNet50")
        assert (TESLA_T4.fe_ips(graph, 5, 512, training=True)
                < TESLA_T4.fe_ips(graph, 5, 512, training=False))

    def test_full_finetune_naive_slower(self):
        graph = model_graph("ResNet50")
        assert (TESLA_V100.full_finetune_ips(graph, naive=True)
                < TESLA_V100.full_finetune_ips(graph))

    def test_vit_ooms_at_512_but_not_128(self):
        graph = model_graph("ViT")
        assert TESLA_T4.fits_batch(graph, 128)
        assert not TESLA_T4.fits_batch(graph, 512)

    def test_resnet_fits_512(self):
        assert TESLA_T4.fits_batch(model_graph("ResNet50"), 512)

    def test_tail_train_rate_infinite_when_nothing_left(self):
        graph = model_graph("ResNet50")
        assert TESLA_V100.tail_train_ips(graph, graph.num_partition_points() - 1) \
            == float("inf") or TESLA_V100.tail_train_ips(
                graph, graph.num_partition_points() - 1) > 0


class TestCpuDiskNet:
    def test_preprocess_rate_linear_in_cores(self):
        assert HOST_CPU.preprocess_ips(8) == pytest.approx(
            8 * HOST_CPU.preprocess_ips(1))

    def test_cores_clamped_to_available(self):
        assert STORAGE_CPU.preprocess_ips(999) == STORAGE_CPU.preprocess_ips(16)

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            HOST_CPU.preprocess_ips(-1)

    def test_decompress_ips(self):
        rate = STORAGE_CPU.decompress_ips(2, COMPRESSED_PREPROCESSED_BYTES)
        assert 2440 < rate < 2700  # above every model's batch-128 GPU rate

    def test_disk_read_ips(self):
        assert ST1_RAID.read_ips(RAW_IMAGE_BYTES) == pytest.approx(
            560e6 / RAW_IMAGE_BYTES)

    def test_network_transfer(self):
        assert TEN_GBE.transfer_ips(PREPROCESSED_BYTES) == pytest.approx(
            TEN_GBE.bytes_per_s / PREPROCESSED_BYTES)
        assert TEN_GBE.transfer_time(TEN_GBE.bytes_per_s) == pytest.approx(1.0)

    def test_network_zero_bytes_free(self):
        assert NetworkSpec(10).transfer_ips(0) == float("inf")

    @pytest.mark.parametrize("gbps", [0.0, -1.0, float("inf"),
                                      float("nan")])
    def test_network_refuses_a_link_speed_that_is_not_positive(self, gbps):
        with pytest.raises(ValueError, match="gbps must be positive and "
                                             "finite"):
            NetworkSpec(gbps=gbps)

    def test_typical_ideal_anchor(self):
        """Fig. 5b: Typical ~94 IPS, Ideal ~123 IPS (sequential stages)."""
        from repro.train.baselines import (
            ideal_offline_inference,
            typical_offline_inference,
        )

        graph = model_graph("ResNet50")
        typical = typical_offline_inference(graph).throughput_ips
        ideal = ideal_offline_inference(graph).throughput_ips
        assert 75 < typical < 115
        assert 110 < ideal < 135
        assert ideal / typical == pytest.approx(123 / 94, rel=0.15)


class TestServers:
    def test_catalog_contains_paper_instances(self):
        for name in ("p3.8xlarge", "p3.2xlarge", "g4dn.4xlarge",
                     "inf1.2xlarge"):
            assert name in specs.SERVERS

    def test_nogpu_variant_has_no_accelerator(self):
        assert not specs.G4DN_4XLARGE_NOGPU.has_accelerator
        assert specs.G4DN_4XLARGE.has_accelerator

    def test_deflate_ratio_consistency(self):
        assert COMPRESSED_PREPROCESSED_BYTES == pytest.approx(
            PREPROCESSED_BYTES / specs.PREPROCESSED_DEFLATE_RATIO, rel=0.01)

    def test_preprocessed_storage_overhead_is_17_5_pct(self):
        """§5.4: preprocessed binaries are 17.5% of storage when raw."""
        frac = PREPROCESSED_BYTES / (PREPROCESSED_BYTES + RAW_IMAGE_BYTES)
        assert frac == pytest.approx(0.179, abs=0.01)
