"""ServingConfig — every plain-value knob of the online serving layer.

Mirrors :class:`~repro.core.config.ClusterConfig`: a frozen dataclass
with a single ``validated()`` choke point, strict ``from_dict``, and a
``to_dict`` round-trip for manifests and CLI plumbing.  Collaborator
objects (replica servers, the shared fabric, retry policy, metrics,
tracer) stay constructor arguments on the front ends.

A :class:`StreamConfig` is not a knob but a protocol: a
:class:`~repro.serving.stream.StreamingFrontend` that holds one runs the
credit window (``queue_capacity`` is then unused: the pending line has
one slot per credit), one without it — and so
:class:`~repro.serving.frontend.ServingFrontend` — runs the bounded
queue of ``queue_capacity`` that sheds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

from ..models.catalog import ALL_MODELS
from ..sim.specs import (
    AcceleratorSpec,
    CpuSpec,
    HOST_CPU,
    NEURONCORE_V1,
    TESLA_T4,
    TESLA_V100,
)

__all__ = ["ServingConfig", "StreamConfig", "ACCELERATORS"]

#: accelerators the serving layer can model, by catalog name
ACCELERATORS: Dict[str, AcceleratorSpec] = {
    "Tesla T4": TESLA_T4,
    "Tesla V100": TESLA_V100,
    "NeuronCoreV1": NEURONCORE_V1,
}


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for admission control, batching, caching, and dispatch."""

    #: bounded admission-queue capacity; arrivals beyond it are shed
    #: (the bounded-queue protocol only: a credit window never sheds)
    queue_capacity: int = 256
    #: the p99 latency objective the batch controller steers toward
    slo_s: float = 0.1
    #: per-request deadline (None = the SLO); requests that cannot finish
    #: inside it are shed at batch-formation time instead of served late
    deadline_s: Optional[float] = None
    #: micro-batch bounds for the SLO controller
    min_batch: int = 1
    max_batch: int = 256
    #: starting batch size (None = NPE batch-size enlargement picks it)
    initial_batch: Optional[int] = None
    #: grow the batch only while its service time is under budget * headroom
    slo_headroom: float = 0.8
    #: additive-increase step of the AIMD controller
    additive_step: int = 4
    #: feature-row cache budget (row bytes resident)
    cache_capacity_bytes: int = 32 * 1024 * 1024
    #: host cores preprocessing cache misses (JPEG decode+normalise)
    preprocess_cores: int = 32
    #: label-database upsert cost per request
    db_update_s: float = 0.0002
    #: replica InferenceServers behind the dispatcher
    replicas: int = 1
    #: paper model served (sets the calibrated latency model)
    model: str = "ResNet50"
    #: accelerator each replica runs on (key of :data:`ACCELERATORS`)
    accelerator: str = "Tesla V100"
    #: seed for any stochastic tie-breaking downstream
    seed: int = 0

    # -- derived views -------------------------------------------------------
    @property
    def effective_deadline_s(self) -> float:
        return self.slo_s if self.deadline_s is None else self.deadline_s

    def accelerator_spec(self) -> AcceleratorSpec:
        return ACCELERATORS[self.accelerator]

    def cpu_spec(self) -> CpuSpec:
        return HOST_CPU

    def validated(self) -> "ServingConfig":
        """Return self after checking every field; raises ``ValueError``."""
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if not math.isfinite(self.slo_s) or self.slo_s <= 0:
            raise ValueError(
                f"slo_s must be a positive finite float, got {self.slo_s}")
        if self.deadline_s is not None and (
                not math.isfinite(self.deadline_s) or self.deadline_s <= 0):
            raise ValueError(
                f"deadline_s must be positive (or None), got {self.deadline_s}")
        if self.min_batch < 1:
            raise ValueError(f"min_batch must be >= 1, got {self.min_batch}")
        if self.max_batch < self.min_batch:
            raise ValueError(
                f"max_batch {self.max_batch} must be >= min_batch "
                f"{self.min_batch}")
        if self.initial_batch is not None and not (
                self.min_batch <= self.initial_batch <= self.max_batch):
            raise ValueError(
                f"initial_batch {self.initial_batch} must lie in "
                f"[{self.min_batch}, {self.max_batch}] or be None")
        if not 0.0 < self.slo_headroom <= 1.0:
            raise ValueError(
                f"slo_headroom must be in (0, 1], got {self.slo_headroom}")
        if self.additive_step < 1:
            raise ValueError(
                f"additive_step must be >= 1, got {self.additive_step}")
        if self.cache_capacity_bytes < 0:
            raise ValueError(
                f"cache_capacity_bytes must be >= 0, got "
                f"{self.cache_capacity_bytes}")
        if self.preprocess_cores < 1:
            raise ValueError(
                f"preprocess_cores must be >= 1, got {self.preprocess_cores}")
        if self.db_update_s < 0:
            raise ValueError(
                f"db_update_s must be >= 0, got {self.db_update_s}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.model not in ALL_MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; available: "
                f"{sorted(ALL_MODELS)}")
        if self.accelerator not in ACCELERATORS:
            raise ValueError(
                f"unknown accelerator {self.accelerator!r}; available: "
                f"{sorted(ACCELERATORS)}")
        return self

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ServingConfig":
        """Build and validate a config from a plain dict (strict keys)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ServingConfig fields {unknown}; known fields: "
                f"{sorted(known)}")
        return cls(**data).validated()

    @classmethod
    def field_names(cls) -> frozenset:
        return frozenset(f.name for f in cls.__dataclass_fields__.values())


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming protocol layered on a ServingConfig.

    Covers the credit window (backpressure), and the elasticity
    controller bounds/policy.  Batching, SLO, cache, and dispatch knobs
    stay on :class:`ServingConfig` — a StreamConfig only adds what the
    asynchronous protocol introduces.
    """

    #: send credits granted to the client population; the server never
    #: holds more than this many unresolved requests, and arrivals
    #: beyond it wait client-side instead of being shed
    credits: int = 256
    #: replica-set bounds for the elasticity controller
    min_replicas: int = 1
    max_replicas: int = 8
    #: grow/shrink the replica set from SLO headroom (False = static set)
    autoscale: bool = True
    #: scale up when the windowed median worst-batch latency exceeds
    #: ``slo_s * scale_up_headroom``
    scale_up_headroom: float = 1.0
    #: scale down when every latency in the window sits under
    #: ``slo_s * scale_down_headroom``
    scale_down_headroom: float = 0.4
    #: batches of signal required before the autoscaler may act
    window: int = 8
    #: batches that must pass between two scaling actions
    cooldown: int = 16

    def validated(self) -> "StreamConfig":
        """Return self after checking every field; raises ``ValueError``."""
        if self.credits < 1:
            raise ValueError(f"credits must be >= 1, got {self.credits}")
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas {self.max_replicas} must be >= min_replicas "
                f"{self.min_replicas}")
        if not math.isfinite(self.scale_up_headroom) or \
                self.scale_up_headroom <= 0:
            raise ValueError(
                f"scale_up_headroom must be positive, got "
                f"{self.scale_up_headroom}")
        if not 0.0 < self.scale_down_headroom < self.scale_up_headroom:
            raise ValueError(
                f"scale_down_headroom must be in (0, scale_up_headroom), "
                f"got {self.scale_down_headroom}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        return self

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "StreamConfig":
        """Build and validate a config from a plain dict (strict keys)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown StreamConfig fields {unknown}; known fields: "
                f"{sorted(known)}")
        return cls(**data).validated()
