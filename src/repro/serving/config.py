"""ServingConfig — every plain-value knob of the online serving layer.

A :class:`~repro.core.config.Config` like
:class:`~repro.core.config.ClusterConfig`: a frozen dataclass with a
single ``validated()`` choke point, strict ``from_dict``, and a
``to_dict`` round-trip for manifests and CLI plumbing.  Collaborator
objects (replica servers, the shared fabric, retry policy, metrics,
tracer) stay constructor arguments on the front ends.  What the
serving layer models is a constant of the design, not a knob: ResNet50
on a Tesla V100 (:mod:`~repro.serving.dispatcher`).

A :class:`StreamConfig` is not a knob but a protocol: a
:class:`~repro.serving.stream.StreamingFrontend` that holds one runs the
credit window (``queue_capacity`` is then unused: the pending line has
one slot per credit), one without it — and so
:class:`~repro.serving.frontend.ServingFrontend` — runs the bounded
queue of ``queue_capacity`` that sheds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.config import Config

__all__ = ["ServingConfig", "StreamConfig"]


@dataclass(frozen=True)
class ServingConfig(Config):
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
    #: feature-row cache budget (row bytes resident)
    cache_capacity_bytes: int = 32 * 1024 * 1024
    #: replica InferenceServers behind the dispatcher
    replicas: int = 1

    # -- derived views -------------------------------------------------------
    @property
    def effective_deadline_s(self) -> float:
        return self.slo_s if self.deadline_s is None else self.deadline_s

    def validated(self) -> "ServingConfig":
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
        if self.cache_capacity_bytes < 0:
            raise ValueError(
                f"cache_capacity_bytes must be >= 0, got "
                f"{self.cache_capacity_bytes}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        return self


@dataclass(frozen=True)
class StreamConfig(Config):
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
    #: batches of signal required before the autoscaler may act
    window: int = 8
    #: batches that must pass between two scaling actions
    cooldown: int = 16

    def validated(self) -> "StreamConfig":
        if self.credits < 1:
            raise ValueError(f"credits must be >= 1, got {self.credits}")
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas {self.max_replicas} must be >= min_replicas "
                f"{self.min_replicas}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        return self
