"""The config classes' shared (de)serialisation, one parametrized class
for all six; ClusterConfig validation; the removed legacy spellings stay
removed."""

import re
import warnings
from typing import NamedTuple

import pytest

from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.ha import HAConfig
from repro.models.registry import tiny_model
from repro.placement import ShardConfig, TenantConfig
from repro.serving import ServingConfig, StreamConfig


def _factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


class Case(NamedTuple):
    """One config class's parameters for :class:`TestEveryConfig`."""

    #: valid non-default instances, each round-tripped
    instances: tuple
    #: dicts naming a field the class lacks (beside valid ones), each
    #: refused with the unknown names
    unknown: tuple
    #: ``(dict, match)``: a value ``from_dict`` validates and refuses
    invalid: tuple
    #: fields that became module constants (their values are a constant
    #: of the design, not a knob) or went with the only code that read
    #: them
    removed: tuple


NO_SUCH_KNOB = {"no_such_knob": 1}

CONFIGS = {
    ClusterConfig: Case(
        (ClusterConfig(num_stores=6, replication=2, seed=11,
                       journal_max_entries=32),
         ClusterConfig(num_stores=6, replication=2, seed=11)),
        (NO_SUCH_KNOB, {"num_stores": 2, "stores": 2}),
        ({"batch_size": 0}, "batch_size"),
        ("journal_uploads",)),
    ServingConfig: Case(
        (ServingConfig(replicas=3, slo_s=0.05, deadline_s=0.2,
                       cache_capacity_bytes=0),),
        (NO_SUCH_KNOB,),
        ({"min_batch": 8, "max_batch": 4}, "batch"),
        ("accelerator", "model", "additive_step", "slo_headroom",
         "db_update_s", "preprocess_cores", "seed")),
    StreamConfig: Case(
        (StreamConfig(credits=32, min_replicas=2, max_replicas=4,
                      autoscale=False),
         StreamConfig(credits=32, min_replicas=2, max_replicas=4)),
        (NO_SUCH_KNOB, {"credits": 8, "queue_capacity": 4}),
        ({"credits": 0}, "credits"),
        ("scale_up_headroom", "scale_down_headroom")),
    HAConfig: Case(
        (HAConfig(suspect_after_ticks=7, standby=False),),
        (NO_SUCH_KNOB, {"nope": 1}),
        ({"suspect_after_ticks": 0}, "suspect_after_ticks"),
        ("account_heartbeats", "heartbeat_bytes",
         "heartbeat_interval_ticks", "window", "phi_threshold")),
    ShardConfig: Case(
        (ShardConfig(num_shards=4, replication=2, ring_seed=9),),
        (NO_SUCH_KNOB, {"num_shards": 4, "shards": 4}),
        ({"fanout": 0}, "fanout"),
        ("load_factor", "rebalance_batch")),
    TenantConfig: Case(
        (TenantConfig(name="acme", byte_quota=1 << 20),),
        (NO_SUCH_KNOB, {"name": "acme", "quota": 1}),
        ({"byte_quota": 0}, "byte_quota"),
        ("request_quota", "weight")),
}

REMOVED = [(cls, name) for cls, case in CONFIGS.items()
           for name in case.removed]


def _name(value):
    return value.__name__ if isinstance(value, type) else str(value)


@pytest.mark.parametrize("cls", CONFIGS, ids=_name)
class TestEveryConfig:
    def test_round_trip(self, cls):
        for config in CONFIGS[cls].instances:
            assert config != cls()
            assert cls.from_dict(config.to_dict()) == config
            assert set(config.to_dict()) == cls.field_names()

    def test_unknown_key_is_refused_by_name(self, cls):
        for data in CONFIGS[cls].unknown:
            names = sorted(set(data) - cls.field_names())
            with pytest.raises(ValueError,
                               match=re.escape(f"unknown {cls.__name__} "
                                               f"fields {names}")):
                cls.from_dict(data)

    def test_from_dict_validates(self, cls):
        data, match = CONFIGS[cls].invalid
        with pytest.raises(ValueError, match=match):
            cls.from_dict(data)


@pytest.mark.parametrize("cls,name", REMOVED, ids=_name)
def test_constant_is_not_a_field(cls, name):
    assert name not in cls.field_names()
    with pytest.raises(ValueError,
                       match=rf"unknown {cls.__name__} fields \['{name}'\]"):
        cls.from_dict({name: 1})


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
