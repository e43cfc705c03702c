"""ClusterConfig validation; the removed legacy spellings stay removed."""

import warnings

import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.models.registry import tiny_model


def _factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


class TestValidation:
    def test_defaults_valid(self):
        assert ClusterConfig().validated() is not None

    @pytest.mark.parametrize("field,value,match", [
        ("num_stores", 0, "at least one PipeStore"),
        ("split", 0, "split must be >= 1"),
        ("nominal_raw_bytes", 0, "nominal_raw_bytes must be >= 1"),
        ("lr", 0.0, "lr must be a positive finite float"),
        ("lr", -1e-3, "lr must be a positive finite float"),
        ("lr", float("nan"), "lr must be a positive finite float"),
        ("lr", float("inf"), "lr must be a positive finite float"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("batch_size", -4, "batch_size must be >= 1"),
        ("journal_max_entries", 0, "journal_max_entries must be >= 1"),
        ("replication", 0, "must be in"),
        ("replication", 9, "must be in"),
    ])
    def test_bad_field_rejected(self, field, value, match):
        config = ClusterConfig(**{field: value})
        with pytest.raises(ValueError, match=match):
            config.validated()

    def test_batch_size_zero_fails_at_construction(self):
        # regression: used to sail through __init__ and crash deep in
        # the Tuner's batching loop
        with pytest.raises(ValueError, match="batch_size"):
            NDPipeCluster(_factory, ClusterConfig(batch_size=0))
        with pytest.raises(ValueError, match="lr"):
            NDPipeCluster(_factory, ClusterConfig(lr=0.0))

    def test_roundtrip(self):
        config = ClusterConfig(num_stores=6, replication=2, seed=11)
        assert ClusterConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ClusterConfig fields"):
            ClusterConfig.from_dict({"num_stores": 2, "stores": 2})

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match="batch_size"):
            ClusterConfig.from_dict({"batch_size": 0})


class TestLegacyShim:
    """The loose-kwargs constructor shim is gone: ``ClusterConfig`` is
    the only spelling, and the old one fails loudly."""

    @pytest.mark.parametrize("kwargs", [
        {"num_stores": 3, "nominal_raw_bytes": 2048},
        {"num_stores": 0},  # never reaches config validation either
    ])
    def test_legacy_kwargs_are_type_error(self, kwargs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            NDPipeCluster(_factory, **kwargs)

    def test_config_path_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            NDPipeCluster(_factory, ClusterConfig(num_stores=3))
        assert caught == []

    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            NDPipeCluster(_factory, stores=3)

    def test_config_plus_kwargs_is_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            NDPipeCluster(_factory, ClusterConfig(), num_stores=3)


def test_top_level_removed_alias_raises():
    import repro

    with pytest.raises(AttributeError):
        repro.OnlineInferencePath
    with pytest.raises(AttributeError):
        repro.NoSuchSymbol
    assert "OnlineInferencePath" not in dir(repro)
