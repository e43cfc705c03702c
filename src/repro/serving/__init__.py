"""High-throughput online serving layer (admission, batching, caching).

The request-level front end in front of replica
:class:`~repro.core.cluster.InferenceServer`\\ s: a bounded admission
queue with load shedding and per-request deadlines, an adaptive
micro-batcher steered by a latency-SLO controller seeded from the NPE
batch-size-enlargement model, a content-addressed cache of split-point
feature rows (a hit runs only the classifier tail), and a multi-replica
dispatcher riding the cluster's fault-injectable fabric and retry
policy.

One event loop (:mod:`~repro.serving.stream`, on the
:class:`~repro.sim.engine.Simulation` kernel) serves both protocols.
With a :class:`StreamConfig` it runs the streaming one: request-id'd
out-of-order completion, per-request cancellation and deadlines,
credit-window backpressure in place of queue-full shedding, and
SLO-headroom replica autoscaling (:mod:`~repro.serving.autoscale`).
Without one — :class:`ServingFrontend` — the pending line is the bounded
queue that sheds, and each batch is delivered at dispatch, in order.
Both report one :class:`ServingReport` of :class:`ServeOutcome`\\ s.
"""

from .admission import AdmissionQueue, ServeRequest
from .autoscale import ElasticityController
from .batcher import SloController, slo_batch_size
from .cache import TensorCache, content_key
from .config import ServingConfig, StreamConfig
from .dispatcher import FRONTEND_NODE, ReplicaDispatcher
from .frontend import ServingFrontend
from .metrics import ServingMetrics
from .protocol import (
    CANCELLED,
    COMPLETED,
    DISPATCH_FAILED,
    EXPIRED,
    QUEUE_FULL,
    SHED_REASONS,
    TERMINAL_STATUSES,
    CreditWindow,
    ServeOutcome,
    ServingReport,
)
from .stream import StreamingFrontend

__all__ = [
    "AdmissionQueue",
    "CANCELLED",
    "COMPLETED",
    "CreditWindow",
    "DISPATCH_FAILED",
    "EXPIRED",
    "ElasticityController",
    "FRONTEND_NODE",
    "QUEUE_FULL",
    "ReplicaDispatcher",
    "SHED_REASONS",
    "ServeOutcome",
    "ServeRequest",
    "ServingConfig",
    "ServingFrontend",
    "ServingMetrics",
    "ServingReport",
    "SloController",
    "StreamConfig",
    "StreamingFrontend",
    "TERMINAL_STATUSES",
    "TensorCache",
    "content_key",
    "slo_batch_size",
]
