"""Unit tests for the retry policy and ``call_with_retry``."""

import pytest

from repro.faults import RetryPolicy, TransientFaultError, call_with_retry


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, error=TransientFaultError):
        self.failures = failures
        self.calls = 0
        self.error = error

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"attempt {self.calls} failed")
        return "ok"


class TestRetryPolicy:
    def test_delay_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.01, multiplier=2.0,
                             max_delay_s=0.05)
        assert policy.delay_for(1) == pytest.approx(0.01)
        assert policy.delay_for(2) == pytest.approx(0.02)
        assert policy.delay_for(3) == pytest.approx(0.04)
        assert policy.delay_for(4) == pytest.approx(0.05)  # capped
        assert policy.delay_for(10) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)

    def test_backoff_is_accounted_not_slept_by_default(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=10.0,
                             max_delay_s=60.0)
        flaky = Flaky(2)
        import time

        start = time.perf_counter()
        assert call_with_retry(flaky, policy) == "ok"
        # 10s + 20s of nominal backoff were *recorded*, not spent
        assert time.perf_counter() - start < 1.0
        assert policy.backoff_s == pytest.approx(10.0 + 20.0)


class TestCallWithRetry:
    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_attempts=4)
        flaky = Flaky(3)
        assert call_with_retry(flaky, policy) == "ok"
        assert flaky.calls == 4
        assert policy.retries == 3
        assert policy.giveups == 0

    def test_gives_up_and_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=3)
        flaky = Flaky(99)
        with pytest.raises(TransientFaultError, match="attempt 3"):
            call_with_retry(flaky, policy)
        assert flaky.calls == 3
        assert policy.giveups == 1

    def test_non_retryable_error_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5)
        flaky = Flaky(99, error=KeyError)
        with pytest.raises(KeyError):
            call_with_retry(flaky, policy)
        assert flaky.calls == 1
        assert policy.retries == 0

    def test_custom_retryable_tuple(self):
        policy = RetryPolicy(max_attempts=3)
        flaky = Flaky(1, error=TimeoutError)
        assert call_with_retry(flaky, policy,
                               retryable=(TimeoutError,)) == "ok"

    def test_single_attempt_policy_never_retries(self):
        policy = RetryPolicy(max_attempts=1)
        flaky = Flaky(1)
        with pytest.raises(TransientFaultError):
            call_with_retry(flaky, policy)
        assert flaky.calls == 1

    def test_accounting_accumulates_across_calls(self):
        policy = RetryPolicy(max_attempts=2)
        call_with_retry(Flaky(0), policy)
        call_with_retry(Flaky(1), policy)
        assert policy.calls == 2
        assert policy.attempts == 3
        assert policy.retries == 1
