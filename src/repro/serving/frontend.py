"""ServingFrontend — the high-throughput online upload path.

The bounded-queue configuration of the one serving loop
(:class:`~repro.serving.stream.StreamingFrontend` without a
:class:`~repro.serving.config.StreamConfig`) over a fixed replica list:

1. every arrival is offered to the bounded admission queue (overflow is
   shed as ``queue_full``);
2. whenever the earliest-free undrained replica — the one the batch
   will land on — is free, the queue yields up to the controller's
   batch-size target, dropping requests that can no longer meet their
   deadline (``deadline`` sheds);
3. the shared :class:`~repro.serving.batcher.MicroBatcher` runs it:
   cache hits bring their split-point feature rows, misses are
   preprocessed; the batch moves to the replica over the byte-accounted
   fabric under the retry policy (a dropped batch is shed as
   ``dispatch_failed``), the replica takes its misses into its front
   pool and owes one classifier tail over the whole batch, and the
   misses' rows (promises until the front runs) are cached;
4. the batch is delivered at dispatch — in submission order — and its
   service time (dispatch to done) feeds the AIMD controller.

The arithmetic runs on the replicas' own schedule — a front forward per
``max_batch`` pooled misses, a tail per logical batch — and all of it
before :meth:`ServingFrontend.serve` returns, which is when each
completed :class:`~repro.serving.protocol.ServeOutcome` gets its label
and confidence.

Identical inputs produce identical reports: arrival times come from the
traffic trace, service times from the calibrated hardware specs plus
whatever latency the fault injector adds, and classification from the
seeded tiny models.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..core.fabric import NetworkFabric
from ..faults.retry import RetryPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .admission import ServeRequest
from .config import ServingConfig
from .protocol import ServingReport
from .stream import StreamingFrontend

__all__ = ["ServingFrontend"]


class ServingFrontend(StreamingFrontend):
    """Admission + cache + batcher + dispatcher in front of replicas."""

    def __init__(self, replicas: Sequence, config: ServingConfig, *,
                 network: Optional[NetworkFabric] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        replicas = list(replicas)
        super().__init__(replicas.__getitem__,
                         replace(config, replicas=len(replicas)),
                         network=network, retry_policy=retry_policy,
                         metrics=metrics, tracer=tracer)

    def serve(self, requests: Sequence[ServeRequest],
              collect_codes: bool = False) -> ServingReport:
        """Play an arrival trace to completion; returns the report.
        ``collect_codes`` keeps each completed request's 8-bit codes on
        its outcome, for callers that land uploads."""
        return self._serve(requests, None, collect_codes)
