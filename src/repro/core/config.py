"""Typed, validated construction configs for the runnable cluster.

:class:`NDPipeCluster` used to take eleven positional/keyword parameters
and validated only some of them — ``batch_size=0`` sailed through
``__init__`` and crashed deep inside the Tuner's batching loop.  All the
plain-value knobs now live in one frozen :class:`ClusterConfig`:

.. code-block:: python

    from repro import ClusterConfig, NDPipeCluster

    cluster = NDPipeCluster(factory, ClusterConfig(num_stores=8,
                                                   replication=2))

Every config class of the package (this one, ``ServingConfig``,
``StreamConfig``, ``HAConfig``, ``ShardConfig``, ``TenantConfig``) is a
frozen dataclass on :class:`Config`: its ``validated()`` is the single
validation choke point, raising a ``ValueError`` that names the field,
and :class:`Config` gives all of them the same strict ``from_dict``
(which always validates), ``to_dict`` and ``field_names``.

Collaborator objects (the model factory, a shared
:class:`~repro.faults.retry.RetryPolicy`, metrics registry, tracer) are
deliberately *not* config: they are live objects, not values, and stay
keyword-only arguments on ``NDPipeCluster``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Type, TypeVar

__all__ = ["ClusterConfig", "Config"]

C = TypeVar("C", bound="Config")


class Config:
    """Strict-key (de)serialisation of a frozen config dataclass."""

    def validated(self: C) -> C:
        """Return self after checking every field; raises ``ValueError``."""
        raise NotImplementedError

    @classmethod
    def field_names(cls) -> frozenset:
        return frozenset(f.name for f in fields(cls))

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls: Type[C], data: Dict) -> C:
        """Build and validate a config from a plain dict (strict keys)."""
        known = cls.field_names()
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} fields {unknown}; known fields: "
                f"{sorted(known)}")
        return cls(**data).validated()


@dataclass(frozen=True)
class ClusterConfig(Config):
    """Every plain-value knob of an :class:`~repro.core.cluster.NDPipeCluster`."""

    #: PipeStore fleet size
    num_stores: int = 4
    #: model partition point (None = APO-style default inside the Tuner)
    split: Optional[int] = None
    #: accounted raw-photo bytes per upload (the fabric's byte model)
    nominal_raw_bytes: int = 8192
    #: Tuner fine-tune learning rate
    lr: float = 3e-3
    #: Tuner fine-tune batch size; also the ingest chunk (one front-door
    #: pass and one whole-model classify per chunk) and the batch
    #: ``Tuner.evaluate`` forwards (``PipeStore.offline_infer`` batches its
    #: tail by the store's own ``batch_size``).  It no longer sizes a front
    #: pass: a model runs its frozen front ``FRONT_ROWS`` rows at a time
    #: (``repro.models.split``)
    batch_size: int = 64
    #: seed for the Tuner's training RNG stream
    seed: int = 0
    #: upload-journal residency cap (None = unbounded)
    journal_max_entries: Optional[int] = None
    #: copies of every photo, including the primary (1 = no replication)
    replication: int = 1

    def validated(self) -> "ClusterConfig":
        if self.num_stores < 1:
            raise ValueError("need at least one PipeStore")
        if self.split is not None and self.split < 1:
            raise ValueError(f"split must be >= 1 or None, got {self.split}")
        if self.nominal_raw_bytes < 1:
            raise ValueError(
                f"nominal_raw_bytes must be >= 1, got {self.nominal_raw_bytes}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ValueError(f"lr must be a positive finite float, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size} "
                "(the Tuner cannot form empty mini-batches)")
        if self.journal_max_entries is not None and self.journal_max_entries < 1:
            raise ValueError("journal_max_entries must be >= 1")
        if not 1 <= self.replication <= self.num_stores:
            raise ValueError(
                f"replication {self.replication} must be in "
                f"[1, {self.num_stores}]")
        return self
