"""Dispatcher accounting: the attempted/dispatched/failed ledger."""

import numpy as np
import pytest

from repro.core.cluster import InferenceServer
from repro.core.fabric import NetworkFabric
from repro.faults.errors import MessageDroppedError, TransientFaultError
from repro.faults.retry import RetryPolicy
from repro.models.registry import tiny_model
from repro.serving import ReplicaDispatcher, ServingConfig
from repro.storage.imageformat import quantise


def make_dispatcher(network=None, num=2):
    replicas = [
        InferenceServer(tiny_model("ResNet50", num_classes=8, width=8,
                                   seed=i), name=f"replica-{i}")
        for i in range(num)
    ]
    return ReplicaDispatcher(
        replicas, ServingConfig(replicas=num).validated(),
        network or NetworkFabric(), RetryPolicy(max_attempts=2))


def _ledger(disp):
    return (disp.batches_attempted, disp.batches_dispatched,
            disp.batches_failed)


def test_successful_dispatch_settles_the_ledger():
    disp = make_dispatcher()
    batch = quantise(np.random.default_rng(0).random((2, 3, 16, 16)))
    results, fresh, t_done, replica = disp.dispatch(
        disp.pick_replica(), batch, [0, 1], t_start=0.0)
    assert len(results) == 2 and len(fresh) == 2 and t_done > 0.0
    assert _ledger(disp) == (1, 1, 0)


def test_failed_dispatch_still_settles_the_ledger():
    def drop_everything(record):
        raise MessageDroppedError(record.kind)

    disp = make_dispatcher(NetworkFabric(fault_filter=drop_everything))
    batch = quantise(np.random.default_rng(0).random((2, 3, 16, 16)))
    with pytest.raises(TransientFaultError):
        disp.dispatch(disp.pick_replica(), batch, [0, 1], t_start=0.0)
    assert _ledger(disp) == (1, 0, 1)
    assert disp.stalled_s > 0.0


def test_ledger_conserves_across_mixed_outcomes():
    """The @conserves law holds at every quiescent point: every attempt
    lands in exactly one of dispatched or failed."""
    dropping = {"on": False}

    def flaky(record):
        if dropping["on"]:
            raise MessageDroppedError(record.kind)
        return 0.0

    disp = make_dispatcher(NetworkFabric(fault_filter=flaky))
    batch = quantise(np.random.default_rng(1).random((1, 3, 16, 16)))
    replica = disp.replicas[0]
    cached = np.zeros(replica.model.feature_dim_after(replica.split))
    for i in range(6):
        dropping["on"] = i % 3 == 0
        try:
            disp.dispatch(disp.pick_replica(), batch, [0, cached],
                          t_start=float(i))
        except TransientFaultError:
            pass
        attempted, dispatched, failed = _ledger(disp)
        assert attempted == dispatched + failed == i + 1
    assert _ledger(disp) == (6, 4, 2)
