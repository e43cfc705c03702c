"""Byte-accounted message fabric connecting cluster nodes.

The runnable cluster does not move real packets; it moves Python objects
while recording exactly how many bytes each transfer would have put on the
wire, per (src, dst) edge and per traffic kind.  The network experiments
assert on these counters (e.g. FT-DMP feature traffic vs raw-image
traffic, Check-N-Run delta sizes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..faults.errors import MessageDroppedError
from ..obs.metrics import MetricsRegistry
from ..sim.specs import NetworkSpec, TEN_GBE


@dataclass(frozen=True)
class TransferRecord:
    src: str
    dst: str
    kind: str
    num_bytes: int


class NetworkFabric:
    """Records every logical transfer between named nodes.

    ``fault_filter`` is the fault-injection seam: when set (by a
    :class:`repro.faults.FaultInjector`), every non-local transfer is
    offered to it first.  The filter may raise
    :class:`~repro.faults.MessageDroppedError` — the transfer then never
    happens and the caller is expected to retry or degrade — or return
    extra latency seconds that are charged to the wire-time accounting.
    """

    def __init__(self, spec: NetworkSpec = TEN_GBE,
                 fault_filter: Optional[Callable[["TransferRecord"], float]]
                 = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.spec = spec
        self.fault_filter = fault_filter
        self._by_edge: Counter = Counter()
        self._by_kind: Counter = Counter()
        self.total_bytes = 0
        self.transfer_count = 0
        self.dropped_count = 0
        self.dropped_bytes = 0
        self.injected_latency_s = 0.0
        self._metrics: Optional[MetricsRegistry] = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Report every transfer into a shared registry from now on."""
        self._metrics = metrics
        self._m_bytes = metrics.counter(
            "fabric_bytes_total", "bytes moved per traffic kind and edge",
            label_names=("kind", "src", "dst"))
        self._m_transfers = metrics.counter(
            "fabric_transfers_total", "completed transfers per traffic kind",
            label_names=("kind",))
        self._m_dropped = metrics.counter(
            "fabric_dropped_total", "transfers dropped by fault injection",
            label_names=("kind",))
        self._m_dropped_bytes = metrics.counter(
            "fabric_dropped_bytes_total", "bytes lost to dropped transfers",
            label_names=("kind",))
        # bound children, validated once per edge / kind
        self._m_edge_bytes = self._m_bytes.by_labels()
        self._m_kind_transfers = self._m_transfers.by_labels()

    def send(self, src: str, dst: str, num_bytes: int, kind: str,
             payload: Any = None) -> Any:
        """Account a transfer and hand the payload to the receiver."""
        if num_bytes < 0:
            raise ValueError("cannot send negative bytes")
        if src == dst:
            # local handoff: no network traffic — this is the whole point
            # of near-data processing
            return payload
        if self.fault_filter is not None:
            record = TransferRecord(src=src, dst=dst, kind=kind,
                                    num_bytes=num_bytes)
            try:
                self.injected_latency_s += self.fault_filter(record)
            except MessageDroppedError:
                self.dropped_count += 1
                self.dropped_bytes += num_bytes
                if self._metrics is not None:
                    self._m_dropped.inc(kind=kind)
                    self._m_dropped_bytes.inc(num_bytes, kind=kind)
                raise
        self._by_edge[(src, dst)] += num_bytes
        self._by_kind[kind] += num_bytes
        self.total_bytes += num_bytes
        self.transfer_count += 1
        if self._metrics is not None:
            self._m_edge_bytes[kind, src, dst].inc(num_bytes)
            self._m_kind_transfers[kind].inc()
        return payload

    def bytes_between(self, src: str, dst: str) -> int:
        return self._by_edge[(src, dst)]

    def bytes_of_kind(self, kind: str) -> int:
        return self._by_kind[kind]

    def kinds(self) -> Dict[str, int]:
        return dict(self._by_kind)
