"""High-throughput online serving layer (admission, batching, caching).

The request-level front end in front of replica
:class:`~repro.core.cluster.InferenceServer`\\ s: a bounded admission
queue with load shedding and per-request deadlines, an adaptive
micro-batcher steered by a latency-SLO controller seeded from the NPE
batch-size-enlargement model, a content-addressed cache of split-point
feature rows (a hit runs only the classifier tail), and a multi-replica
dispatcher riding the cluster's fault-injectable fabric and retry
policy.

On top of the synchronous front end sits the streaming protocol
(:mod:`~repro.serving.stream`): request-id'd out-of-order completion,
per-request cancellation and deadlines, credit-window backpressure in
place of queue-full shedding, and SLO-headroom replica autoscaling
(:mod:`~repro.serving.autoscale`).
"""

from .admission import AdmissionQueue, ServeRequest
from .autoscale import ElasticityController
from .batcher import SloController, slo_batch_size
from .cache import TensorCache, content_key
from .config import ACCELERATORS, ServingConfig, StreamConfig
from .dispatcher import FRONTEND_NODE, ReplicaDispatcher
from .frontend import (
    SHED_REASONS,
    ServeOutcome,
    ServingFrontend,
    ServingReport,
)
from .metrics import ServingMetrics
from .protocol import (
    CANCELLED,
    COMPLETED,
    EXPIRED,
    TERMINAL_STATUSES,
    CreditWindow,
    StreamOutcome,
    StreamingReport,
)
from .stream import StreamingFrontend

__all__ = [
    "ACCELERATORS",
    "AdmissionQueue",
    "CANCELLED",
    "COMPLETED",
    "CreditWindow",
    "EXPIRED",
    "ElasticityController",
    "FRONTEND_NODE",
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
    "StreamOutcome",
    "StreamingFrontend",
    "StreamingReport",
    "TERMINAL_STATUSES",
    "TensorCache",
    "content_key",
    "slo_batch_size",
]
