"""The serving cache keeps split-point feature rows keyed on the front.

Contract (DESIGN §11): a hit runs only the classifier tail and answers
what a cold ``InferenceServer.classify`` answers; anything that moves
the replica's ``front_digest`` — new front weights through
``sync_model`` — makes every entry miss; a classifier-only delta keeps
every entry; an upload landed from a hit stores the very ``preproc/``
blob a miss of the same photo stores.
"""

import numpy as np

from repro.core import checknrun
from repro.core.cluster import InferenceServer, NDPipeCluster
from repro.core.config import ClusterConfig
from repro.models.registry import tiny_model
from repro.serving import ServingConfig, ServingFrontend
from repro.serving.cache import content_key
from repro.workloads.continuous import open_loop_requests


def _model():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=3)


def _frontend():
    return ServingFrontend([InferenceServer(_model(), name="replica-0")],
                           ServingConfig(replicas=1))


def _trace(num_requests=24, pool_size=6, seed=0):
    return open_loop_requests(num_requests=num_requests, rate_rps=2000.0,
                              seed=seed, pool_size=pool_size)


def _changed(state, prefix, scale):
    """``state`` with every array under ``prefix`` scaled."""
    return {name: value * scale if name.startswith(prefix) else value
            for name, value in state.items()}


def _first_occurrences(trace):
    keys = [content_key(r.pixels) for r in trace]
    return [keys.index(key) == at for at, key in enumerate(keys)]


def _assert_answers_match_cold_classify(batch, trace, state):
    oracle = InferenceServer(_model())
    oracle.sync_model(state)
    for request, (label, confidence) in zip(trace, batch.results):
        want_label, want_confidence = oracle.classify(request.pixels)
        assert label == want_label
        np.testing.assert_allclose(confidence, want_confidence, rtol=1e-9)


def test_new_front_weights_miss_every_entry():
    frontend = _frontend()
    replica = frontend.dispatcher.replicas[0]
    trace = _trace()
    frontend.batcher.run(trace, 0.0)
    assert all(frontend.batcher.run(trace, 1.0).hits)
    old_digest = replica.front_digest()

    state = _changed(replica.model.state_dict(), "stage_Conv1.", 1.01)
    replica.sync_model(state)
    assert replica.front_digest() != old_digest
    misses = frontend.cache.stats()["misses"]
    resynced = frontend.batcher.run(trace, 2.0)
    # only repeats inside the batch share a row; every photo misses once
    assert resynced.hits == [not first for first in _first_occurrences(trace)]
    assert frontend.cache.stats()["misses"] - misses == len(set(
        content_key(r.pixels) for r in trace))
    _assert_answers_match_cold_classify(resynced, trace, state)


def test_classifier_only_delta_keeps_every_entry():
    """A Check-N-Run delta that touches only ``FC`` (what the Tuner
    ships after FT-DMP) leaves the front and so every row valid, and
    the tail answers with the new classifier."""
    frontend = _frontend()
    replica = frontend.dispatcher.replicas[0]
    trace = _trace()
    before = frontend.batcher.run(trace, 0.0)
    old_state = replica.model.state_dict()
    new_state = _changed(old_state, "stage_FC.", 1.5)
    blob = checknrun.encode_delta(old_state, new_state)
    replica.sync_model(checknrun.apply_delta(old_state, blob))
    entries = frontend.cache.stats()["entries"]

    after = frontend.batcher.run(trace, 1.0)
    assert all(after.hits)
    assert frontend.cache.stats()["entries"] == entries
    assert after.results != before.results
    _assert_answers_match_cold_classify(after, trace, new_state)


def test_a_landed_hit_stores_the_blob_a_miss_stores():
    """``serve_uploads`` lands a hit's codes from its batch's front door;
    the photo's ``preproc/`` blob is byte-identical to the one its miss
    landed."""
    cluster = NDPipeCluster(_model, ClusterConfig(num_stores=2))
    trace = _trace(num_requests=40, pool_size=5)
    report, photo_ids = cluster.serve_uploads(trace, ServingConfig())
    assert report.completed == len(trace)

    def blob(photo_id):
        store = cluster.stores[cluster.database.lookup(photo_id).location]
        return store.objects.get(store.objects.preproc_key(photo_id))

    by_photo = {}
    for outcome, photo_id in zip(report.completed_requests, photo_ids):
        by_photo.setdefault(content_key(outcome.request.pixels), []).append(
            (outcome.cache_hit, blob(photo_id)))
    assert report.cache_hits > 0 and len(by_photo) == 5
    for landed in by_photo.values():
        hit_or_miss = {hit for hit, _blob in landed}
        assert hit_or_miss == {False, True}
        assert len({stored for _hit, stored in landed}) == 1
