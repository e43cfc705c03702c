"""Retry with exponential backoff for fleet dispatch.

The Tuner wraps every per-store dispatch (offline-inference triggers,
Check-N-Run delta sends) in :func:`call_with_retry` so a dropped message
or a store that recovers between attempts does not abort a whole
campaign.  Backoff is *accounted*, never slept: the repro's fabric
models time as byte counts, so the policy records how many seconds of
backoff a real deployment would have spent (``backoff_s`` and
``retry_backoff_seconds_total``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type, TypeVar

from .errors import TransientFaultError

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """Exponential-backoff schedule plus cumulative accounting.

    Delay before attempt ``k`` (1-based retries) is
    ``min(base_delay_s * multiplier**(k-1), max_delay_s)`` — deterministic,
    no jitter, so fault tests replay exactly.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    # cumulative accounting across every call made under this policy
    calls: int = field(default=0, init=False)
    attempts: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    giveups: int = field(default=0, init=False)
    backoff_s: float = field(default=0.0, init=False)

    # observability seam (kept out of __init__/__eq__): when bound, the
    # same accounting lands in a shared MetricsRegistry
    _metrics: Optional[object] = field(default=None, init=False, repr=False,
                                       compare=False)

    def bind_metrics(self, metrics) -> None:
        """Mirror retry accounting into ``metrics`` (a MetricsRegistry)."""
        self._metrics = metrics
        self._m_attempts = metrics.counter(
            "retry_attempts_total", "dispatch attempts under the policy")
        self._m_retries = metrics.counter(
            "retry_retries_total", "attempts that were retried after a fault")
        self._m_giveups = metrics.counter(
            "retry_giveups_total", "dispatches abandoned after max attempts")
        self._m_backoff = metrics.counter(
            "retry_backoff_seconds_total", "accounted exponential backoff")

    def _record(self, counter_name: str, amount: float = 1.0) -> None:
        if self._metrics is not None:
            getattr(self, counter_name).inc(amount)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_for(self, retry_index: int) -> float:
        """Backoff seconds before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        return min(self.base_delay_s * self.multiplier ** (retry_index - 1),
                   self.max_delay_s)

    def _backoff(self, retry_index: int) -> None:
        delay = self.delay_for(retry_index)
        self.backoff_s += delay
        self._record("_m_backoff", delay)


def call_with_retry(fn: Callable[[], T], policy: RetryPolicy,
                    retryable: Tuple[Type[BaseException], ...] = (
                        TransientFaultError,)) -> T:
    """Call ``fn`` under ``policy``; re-raise the last error on give-up.

    Only ``retryable`` exceptions trigger another attempt; anything else
    propagates immediately.
    """
    policy.calls += 1
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        policy.attempts += 1
        policy._record("_m_attempts")
        try:
            return fn()
        except retryable as exc:
            last = exc
            if attempt == policy.max_attempts:
                break
            policy.retries += 1
            policy._record("_m_retries")
            policy._backoff(attempt)
    policy.giveups += 1
    policy._record("_m_giveups")
    assert last is not None
    raise last
