"""One ring walk per landed photo.

:class:`~repro.core.dataplane.RingPlacement` walks the photo's ring
successors once, in :meth:`~repro.core.dataplane.RingPlacement.
candidates`, and the replica choice that follows takes that walk;
availability is read when each candidate is tried.  The holder sets
pinned here were recorded when the two orders still walked the ring
once each.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.pipestore import PipeStore
from repro.faults import AddLatency, FaultInjector
from repro.models.registry import tiny_model
from repro.placement import ConsistentHashRing, ShardConfig, ShardedCluster
from repro.placement.bench import SHARDING_BENCH_DEFAULTS, _migration_part
from repro.storage.objectstore import ObjectStore
from repro.storage.photodb import PhotoDatabase

PHOTOS = 64


def _fleet():
    return ShardedCluster(
        lambda: tiny_model("ResNet50", num_classes=8, width=8, seed=7),
        ShardConfig(num_shards=16, vnodes=16, replication=3, ring_seed=5))


def _ingest(fleet):
    rng = np.random.default_rng(5)
    shape = tuple(fleet.cluster.tuner.model.input_shape)
    images = rng.random((PHOTOS,) + shape).astype(np.float32)
    ids, _ = fleet.ingest(images, train_labels=rng.integers(0, 8, PHOTOS))
    return ids


def _holders(fleet, ids):
    return [(pid, fleet.cluster.replicas.holders(pid)) for pid in ids]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def test_one_replica_set_call_per_landed_photo(monkeypatch):
    fleet = _fleet()
    ring = fleet.cluster.dataplane.placement.ring
    walks = []
    walk = ring.replica_set
    monkeypatch.setattr(ring, "replica_set",
                        lambda key, k: walks.append(key) or walk(key, k))
    ids = _ingest(fleet)
    assert len(ids) == PHOTOS
    assert walks == ids
    assert all(len(held) == 3 for _, held in _holders(fleet, ids))


@pytest.mark.parametrize("slow, down, digest, skips", [
    (False, False, "ba78d44503be1df9", 16),
    (True, False, "9ea11b915e1107ae", 14),
    (True, True, "d5357ee416ab0dff", 11),
])
def test_holder_sets_are_the_two_walk_sets(slow, down, digest, skips):
    """A slow link to ``pipestore-3`` diverts primaries (load skips); a
    down ``pipestore-9`` is routed around in both orders."""
    fleet = _fleet()
    if slow:
        FaultInjector([AddLatency(at=1, seconds=1.0, count=10_000,
                                  kind="ingest", dst="pipestore-3")]) \
            .attach_fabric(fleet.cluster.network)
    if down:
        fleet.cluster.stores["pipestore-9"].fail()
    ids = _ingest(fleet)
    assert _digest(_holders(fleet, ids)) == digest
    assert int(fleet.metrics.load_skips.value()) == skips


def test_a_store_failing_after_the_primary_write_is_skipped(monkeypatch):
    """The walk is taken before the primary lands; a successor that
    fails in between is not chosen as a replica."""
    fleet = _fleet()
    plane = fleet.cluster.dataplane
    ring = plane.placement.ring
    place = plane.place_photo
    failed = []

    def place_then_fail(photo, kind="ingest"):
        store = place(photo, kind)
        if not failed:
            # the first successor the replica choice would take
            victim = next(s for s in ring.replica_set(photo.photo_id, 16)
                          if s != store.store_id)
            fleet.cluster.stores[victim].fail()
            failed.append((photo.photo_id, victim))
        return store

    monkeypatch.setattr(plane, "place_photo", place_then_fail)
    ids = _ingest(fleet)
    pid, victim = failed[0]
    held = fleet.cluster.replicas.holders(pid)
    assert victim not in held and len(held) == 3
    assert all(victim not in h for _, h in _holders(fleet, ids))


def test_the_sharding_bench_counts_the_landing_per_photo():
    """``BENCH_sharding``'s landing rows: one walk a photo, every
    successor probed, two objects on each of two replicas, one upsert;
    the counted classes are whole again afterwards."""
    before = {cls: dict(vars(cls)) for cls in
              (ConsistentHashRing, PipeStore, ObjectStore, PhotoDatabase)}
    landing = _migration_part(0, dict(SHARDING_BENCH_DEFAULTS,
                                      fleet_photos=24))["landing"]
    assert landing == {"ring_walks": 1.0, "availability_probes": 11.0,
                       "object_puts": 4.0, "db_upserts": 1.0}
    assert {cls: dict(vars(cls)) for cls in before} == before
