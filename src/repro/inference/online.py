"""Online inference latency: label a photo at upload time (§3.1 flow 1-3).

An analytic model of end-to-end upload latency (preprocess +
single-image inference + database update) for ingestion workloads.

:func:`batched_online_latency` extends the model to the serving layer's
adaptive micro-batching: the NPE batch-size-enlargement logic picks the
batch, and the per-request latency becomes accumulation (waiting for the
batch to fill at the offered rate) plus the batched forward pass.  The
runnable upload path is the serving layer (:mod:`repro.serving`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.graph import ModelGraph
from ..serving.batcher import slo_batch_size
from ..sim.specs import AcceleratorSpec, TESLA_V100


@dataclass(frozen=True)
class OnlineLatencyModel:
    """Per-upload latency components on the inference server."""

    preprocess_s: float
    inference_s: float
    db_update_s: float = 0.0005

    @property
    def total_s(self) -> float:
        return self.preprocess_s + self.inference_s + self.db_update_s


def online_latency(graph: ModelGraph,
                   accelerator: AcceleratorSpec = TESLA_V100,
                   preprocess_ips: float = 15.4) -> OnlineLatencyModel:
    """Estimate upload-path latency for one photo (batch size 1)."""
    return OnlineLatencyModel(
        preprocess_s=1.0 / preprocess_ips,
        inference_s=1.0 / accelerator.inference_ips(graph, batch_size=1),
    )


@dataclass(frozen=True)
class OnlineBatchLatencyModel:
    """Per-request latency under adaptive micro-batching."""

    batch_size: int
    #: time for the batch to fill at the offered arrival rate
    accumulation_s: float
    inference_s: float
    db_update_s: float = 0.0005

    @property
    def total_s(self) -> float:
        return self.accumulation_s + self.inference_s + self.db_update_s

    @property
    def throughput_rps(self) -> float:
        """Saturated request rate of one replica at this batch size."""
        service_s = self.inference_s + self.db_update_s
        if service_s <= 0:
            return float("inf")
        return self.batch_size / service_s


def batched_online_latency(graph: ModelGraph,
                           accelerator: AcceleratorSpec = TESLA_V100,
                           slo_s: float = 0.1,
                           rate_rps: float = 1000.0,
                           ) -> OnlineBatchLatencyModel:
    """Upload-path latency when the serving layer batches uploads.

    The batch size comes from the same NPE batch-size-enlargement sweep
    the :class:`repro.serving.SloController` is seeded with, so this
    model and the runnable front end agree on the operating point.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    batch = slo_batch_size(graph, accelerator, slo_s)
    return OnlineBatchLatencyModel(
        batch_size=batch,
        accumulation_s=batch / rate_rps,
        inference_s=batch / accelerator.inference_ips(graph,
                                                      batch_size=batch),
    )

