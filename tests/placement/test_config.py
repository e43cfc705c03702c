"""ShardConfig / TenantConfig: frozen and validated (their round trips
and strict keys are ``tests/core/test_config.py::TestEveryConfig``)."""

import dataclasses

import pytest

from repro.placement import ShardConfig, TenantConfig


class TestShardConfig:
    def test_defaults_valid(self):
        assert ShardConfig().validated() is not None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ShardConfig().num_shards = 4

    @pytest.mark.parametrize("field,value,match", [
        ("num_shards", 0, "at least one shard"),
        ("vnodes", 0, "vnodes must be >= 1"),
        ("replication", 0, "replication 0 must be in"),
        ("replication", 9, "replication 9 must be in"),
        ("fanout", 0, "fanout must be >= 1"),
    ])
    def test_bad_field_rejected(self, field, value, match):
        config = ShardConfig(**{field: value})
        with pytest.raises(ValueError, match=match):
            config.validated()

    def test_field_names(self):
        assert "num_shards" in ShardConfig.field_names()
        assert "vnodes" in ShardConfig.field_names()


class TestTenantConfig:
    def test_defaults_valid(self):
        assert TenantConfig().validated().name == "default"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TenantConfig().weight = 2.0

    @pytest.mark.parametrize("field,value,match", [
        ("name", "", "tenant name"),
        ("name", "a/b", "tenant name"),
        ("name", " padded", "tenant name"),
        ("byte_quota", 0, "byte_quota"),
        ("weight", 0.0, "weight"),
        ("weight", -1.0, "weight"),
        ("weight", float("nan"), "weight"),
    ])
    def test_bad_field_rejected(self, field, value, match):
        config = TenantConfig(**{field: value})
        with pytest.raises(ValueError, match=match):
            config.validated()

    def test_unmetered_quotas_are_none(self):
        config = TenantConfig(name="acme").validated()
        assert config.byte_quota is None

