"""Bounded admission queue: shedding, deadlines, FIFO order."""

import numpy as np
import pytest

from repro.serving.admission import AdmissionQueue, ServeRequest


def _request(i, arrival_s, deadline_s=None):
    return ServeRequest(request_id=f"req-{i:03d}", arrival_s=arrival_s,
                        pixels=np.full((3, 4, 4), i / 100.0),
                        deadline_s=deadline_s)


def test_offer_sheds_at_capacity():
    queue = AdmissionQueue(capacity=2, deadline_s=1.0)
    assert queue.offer(_request(0, 0.0))
    assert queue.offer(_request(1, 0.0))
    assert not queue.offer(_request(2, 0.0))
    assert queue.depth() == 2
    assert queue.shed_full_count() == 1
    stats = queue.stats()
    assert stats == {"depth": 2, "offered": 3, "admitted": 2,
                     "shed_full": 1}
    # the @conserves ledger: every arrival accounted exactly once
    assert stats["offered"] == stats["admitted"] + stats["shed_full"]


def test_take_is_fifo_and_bounded():
    queue = AdmissionQueue(capacity=8, deadline_s=10.0)
    for i in range(5):
        queue.offer(_request(i, 0.0))
    ready, expired = queue.take(3, now_s=0.0, min_service_s=0.0)
    assert [r.request_id for r in ready] == ["req-000", "req-001", "req-002"]
    assert expired == []
    assert queue.depth() == 2


def test_take_expires_requests_past_their_deadline():
    queue = AdmissionQueue(capacity=8, deadline_s=1.0)
    queue.offer(_request(0, arrival_s=0.0))   # waited 2s: expired
    queue.offer(_request(1, arrival_s=1.9))   # waited 0.1s: fine
    ready, expired = queue.take(4, now_s=2.0, min_service_s=0.05)
    assert [r.request_id for r in expired] == ["req-000"]
    assert [r.request_id for r in ready] == ["req-001"]


def test_per_request_deadline_overrides_config():
    queue = AdmissionQueue(capacity=8, deadline_s=10.0)
    queue.offer(_request(0, arrival_s=0.0, deadline_s=0.5))
    ready, expired = queue.take(1, now_s=1.0, min_service_s=0.0)
    assert ready == [] and len(expired) == 1


def test_min_service_floor_tightens_expiry():
    # a request 0.9s old with a 1.0s deadline still fits alone, but not
    # if the cheapest possible service takes 0.2s
    queue = AdmissionQueue(capacity=8, deadline_s=1.0)
    queue.offer(_request(0, arrival_s=0.0))
    ready, expired = queue.take(1, now_s=0.9, min_service_s=0.2)
    assert ready == [] and len(expired) == 1


def test_requeue_puts_a_failed_batch_back_at_the_head_in_order():
    queue = AdmissionQueue(capacity=8, deadline_s=1.0)
    for i in range(4):
        queue.offer(_request(i, 0.0))
    ready, _expired = queue.take(2, now_s=0.0, min_service_s=0.0)
    queue.requeue(ready)
    ready, _expired = queue.take(8, now_s=0.0, min_service_s=0.0)
    assert [r.request_id for r in ready] == [
        "req-000", "req-001", "req-002", "req-003"]
    assert queue.stats()["offered"] == 4  # a requeue is not an offer


def test_remove_takes_a_cancelled_request_out_of_the_line():
    queue = AdmissionQueue(capacity=8, deadline_s=1.0)
    requests = [_request(i, 0.0) for i in range(3)]
    for request in requests:
        queue.offer(request)
    queue.remove(requests[1])
    ready, _expired = queue.take(8, now_s=0.0, min_service_s=0.0)
    assert [r.request_id for r in ready] == ["req-000", "req-002"]


@pytest.mark.parametrize("kwargs", [
    {"capacity": 0, "deadline_s": 1.0},
    {"capacity": 4, "deadline_s": 0.0},
])
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        AdmissionQueue(**kwargs)


def test_take_rejects_nonpositive_max_items():
    queue = AdmissionQueue(capacity=4, deadline_s=1.0)
    with pytest.raises(ValueError):
        queue.take(0, now_s=0.0, min_service_s=0.0)


def test_expired_behind_a_full_batch_stay_queued_unscanned():
    """take() stops scanning once ready fills: an expired request that
    ends up at the head stays queued for the *next* take, it is not shed
    as a side effect of forming an unrelated batch."""
    queue = AdmissionQueue(capacity=8, deadline_s=1.0)
    queue.offer(_request(0, arrival_s=5.0))   # fresh
    queue.offer(_request(1, arrival_s=5.0))   # fresh
    queue.offer(_request(2, arrival_s=0.0))   # long expired, behind them
    ready, expired = queue.take(2, now_s=5.0, min_service_s=0.0)
    assert [r.request_id for r in ready] == ["req-000", "req-001"]
    assert expired == []
    assert queue.depth() == 1
    ready, expired = queue.take(2, now_s=5.0, min_service_s=0.0)
    assert ready == []
    assert [r.request_id for r in expired] == ["req-002"]
    assert queue.depth() == 0


def test_a_request_is_immutable_with_its_defaults():
    request = ServeRequest("r", 0.5, np.zeros((3, 2, 2)))
    assert (request.train_label, request.deadline_s) == (None, None)
    for field in ("request_id", "arrival_s", "pixels", "train_label",
                  "deadline_s"):
        with pytest.raises(AttributeError):
            setattr(request, field, None)
    moved = request._replace(arrival_s=0.25)
    assert (moved.arrival_s, request.arrival_s) == (0.25, 0.5)
    assert moved.pixels is request.pixels
