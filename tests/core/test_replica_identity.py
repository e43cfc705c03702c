"""Replica identity under the live Check-N-Run format.

Live deltas are quantised, so the Tuner's training master is not what
the fleet holds.  What every replica holds is the Tuner's *published*
state, and this sweep checks that after any sequence of fine-tune
rounds, store crashes, recoveries and catch-ups, joins (of stores
provisioned with the Tuner's frozen stages or with other ones), lagging
stores resynced by the next round, dropped deltas (the resync fallback),
checkpoint -> restore and Tuner failovers:

- every live store replica, the inference server and a fresh serving
  frontend's replicas equal the published state byte for byte, at the
  Tuner's version;
- those replicas and the Tuner's master hold the published frozen
  arrays themselves (one read-only front per process), a store
  provisioned with other frozen stages only after its whole-state
  fallback;
- every replica sync charged the fabric the classifier plus a 4-byte
  fingerprint of the frozen stages, and a sync to a store holding other
  frozen stages the whole state on top;
- per element, ``|master - published|`` is at most half of the last
  round's quantisation step (error feedback: the residual never drifts);
- ``finetune(resume=...)`` reproduces both the master and the published
  state bit for bit.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import ClusterConfig, NDPipeCluster
from repro.core.checknrun import (
    FINGERPRINT_BYTES,
    LIVE_DELTA_BITS,
    state_dict_bytes,
)
from repro.data import DriftingPhotoWorld, WorldConfig
from repro.durability.checkpoint import unpack_tuner_state
from repro.faults import DropMessages, FaultInjector
from repro.ha import HAConfig
from repro.models.registry import tiny_model

STORES = 3
MAX_STORES = 5
HA = HAConfig(auto_evict=False, auto_rejoin=False)


def factory():
    return tiny_model("ResNet50", num_classes=8, width=8, seed=7)


def other_base():
    """A build with other frozen stages (another seed)."""
    return tiny_model("ResNet50", num_classes=8, width=8, seed=8)


def fresh_cluster(num_stores):
    return NDPipeCluster(factory, ClusterConfig(
        num_stores=num_stores, nominal_raw_bytes=2048, seed=1))


def assert_same_bits(state, reference, where):
    assert sorted(state) == sorted(reference), where
    for key, value in reference.items():
        got = state[key]
        assert (got.dtype, got.shape) == (value.dtype, value.shape), \
            (where, key)
        assert got.tobytes() == value.tobytes(), (where, key)


def frozen_arrays(state, classifier_prefix):
    return {key: value for key, value in state.items()
            if not key.startswith(classifier_prefix)}


def half_steps(published, master):
    """Per tensor, half the quantisation step of the round that takes
    ``published`` towards ``master`` (0 where the round ships nothing)."""
    levels = (1 << LIVE_DELTA_BITS) - 1
    return {key: float(np.ptp(master[key].astype(np.float64)
                              - published[key].astype(np.float64)))
            / levels / 2
            for key in master
            if np.issubdtype(master[key].dtype, np.floating)}


class ReplicaIdentity(RuleBasedStateMachine):
    @initialize()
    def build(self):
        world = DriftingPhotoWorld(WorldConfig(
            initial_classes=6, max_classes=8, image_size=16, noise=0.3,
            seed=0))
        self.cluster = fresh_cluster(STORES)
        x, y = world.sample(24, 0, rng=np.random.default_rng(3))
        self.cluster.ingest(x, train_labels=y)
        self.ha = self.cluster.enable_ha(HA)
        self.bound = {}
        #: syncs refused for other frozen stages (each then ships whole)
        self.mismatched = 0

    # -- helpers -------------------------------------------------------------
    @property
    def tuner(self):
        return self.cluster.tuner

    @property
    def prefix(self):
        return self.tuner.model.classifier_prefix

    def down(self):
        return [s for s in self.cluster.stores if not s.is_available]

    def round(self, **kwargs):
        before = self.tuner.published
        report = self.cluster.finetune(epochs=1, **kwargs)
        self.bound = half_steps(before, self.tuner.model.state_dict())
        return report

    # -- rules ---------------------------------------------------------------
    @rule()
    def finetune(self):
        self.round()

    @precondition(lambda self: len(self.down()) < len(self.cluster.stores) - 1)
    @rule(data=st.data())
    def crash(self, data):
        up = [s for s in self.cluster.stores if s.is_available]
        data.draw(st.sampled_from(up)).fail()

    @precondition(lambda self: self.down())
    @rule(data=st.data())
    def recover(self, data):
        self.cluster.recover(data.draw(st.sampled_from(self.down())))

    @precondition(lambda self: self.down())
    @rule(data=st.data())
    def repair_and_catch_up(self, data):
        store = data.draw(st.sampled_from(self.down()))
        store.repair()
        self.tuner.catch_up(store)

    @precondition(lambda self: len(self.cluster.stores) < MAX_STORES)
    @rule()
    def join(self):
        self.cluster.join_store(f"pipestore-{len(self.cluster.stores)}")

    @precondition(lambda self: len(self.cluster.stores) < MAX_STORES)
    @rule()
    def join_with_another_base(self):
        """A store provisioned with other frozen stages refuses the tail
        sync and is sent the whole published state; it holds its own
        frozen arrays until that fallback and the published ones after."""
        build = other_base().freeze_features()
        own = frozen_arrays(build.state_dict(), self.prefix)
        store = self.cluster.join_store(
            f"pipestore-{len(self.cluster.stores)}", base=build)
        assert store.model is build
        held = frozen_arrays(build.state_dict(), self.prefix)
        assert all(held[key] is not value for key, value in own.items())
        self.mismatched += 1

    @precondition(lambda self: len(self.down()) < len(self.cluster.stores) - 1)
    @rule(data=st.data())
    def resync_a_lagging_store(self, data):
        """A store misses a round while down and comes back without a
        catch-up: the next round finds it behind and resyncs it."""
        up = [s for s in self.cluster.stores if s.is_available]
        store = data.draw(st.sampled_from(up))
        store.fail()
        self.round()
        store.repair()
        self.round()
        assert store.store_id in self.tuner.distributions[-1].stores_resynced

    @rule()
    def drop_a_delta(self):
        """Every retry of one store's delta is dropped; the next round
        resynchronises it with a full (published) state."""
        down = {s.store_id for s in self.down()}
        injector = FaultInjector([DropMessages(
            at=0, count=self.cluster.retry.max_attempts, kind="model-delta")])
        injector.attach(self.cluster)
        try:
            self.round()
        finally:
            injector.detach()
        dropped = set(self.tuner.distributions[-1].stores_missed) - down
        assert len(dropped) == 1
        self.round()
        assert dropped <= set(self.tuner.distributions[-1].stores_resynced)

    @precondition(lambda self: not self.down())
    @rule()
    def checkpoint_and_restore(self):
        blob = self.cluster.checkpoint()
        clone = fresh_cluster(len(self.cluster.stores))
        clone.restore(blob)
        self.cluster = clone
        self.ha = clone.enable_ha(HA)
        self.mismatched = 0  # the clone's fabric carried only its installs

    def standby_is_current(self):
        """The standby holds a frame of the primary as it stands (after a
        promotion it has none until the next round ships one)."""
        if not self.ha.failover.can_promote():
            return False
        state, epoch, _ = unpack_tuner_state(self.ha.failover.last_frame)
        return (state["version"], epoch) == (self.tuner.version,
                                             self.tuner.epoch)

    @precondition(standby_is_current)
    @rule()
    def tuner_failover(self):
        deposed = self.tuner
        deposed.fail()
        self.ha.poll_until_quiet()
        assert self.tuner is not deposed
        deposed.repair()  # back as the standby, fenced by its old epoch

    @precondition(lambda self: not self.down())
    @rule()
    def resume_from_a_run_boundary(self):
        blobs = []
        self.round(num_runs=2,
                   checkpoint_sink=lambda run, blob: blobs.append(blob))
        clone = fresh_cluster(len(self.cluster.stores))
        clone.finetune(resume=clone.restore(blobs[0]))
        assert_same_bits(clone.tuner.model.state_dict(),
                         self.tuner.model.state_dict(), "resumed master")
        assert_same_bits(clone.tuner.published, self.tuner.published,
                         "resumed published state")

    # -- invariants ----------------------------------------------------------
    @invariant()
    def every_replica_holds_the_published_state(self):
        published = self.tuner.published
        for store in self.cluster.stores:
            if store.is_available:
                assert store.model_version == self.tuner.version
                assert_same_bits(store.model.state_dict(), published,
                                 store.store_id)
        assert_same_bits(self.cluster.inference_server.model.state_dict(),
                         published, "inference server")
        frontend = self.cluster.make_serving_frontend()
        for replica in frontend.dispatcher.replicas:
            assert_same_bits(replica.model.state_dict(), published,
                             replica.name)

    @invariant()
    def replicas_at_the_version_share_the_published_front(self):
        """One front per process: every store at the Tuner's version (an
        other-base join once its whole-state fallback ran), the master,
        the inference server and a fresh frontend's replicas hold the
        master's front value and so the published frozen arrays
        themselves, read-only."""
        published = frozen_arrays(self.tuner.published, self.prefix)
        models = [store.model for store in self.cluster.stores
                  if store.is_available]
        models += [self.tuner.model, self.cluster.inference_server.model]
        models += [replica.model for replica in
                   self.cluster.make_serving_frontend().dispatcher.replicas]
        for model in models:
            assert model.front is self.tuner.model.front
            held = frozen_arrays(model.state_dict(), self.prefix)
            assert held.keys() == published.keys()
            for key, value in published.items():
                assert held[key] is value, key
                assert not value.flags.writeable, key

    @invariant()
    def syncs_ship_the_tail_unless_the_frozen_stages_differ(self):
        published = self.tuner.published
        prefix = self.tuner.model.classifier_prefix
        tail = state_dict_bytes({key: value for key, value in
                                 published.items() if key.startswith(prefix)})
        updates = self.cluster.metrics.get("pipestore_model_updates_total")
        syncs = sum(updates.value(store=store.store_id, mechanism="full")
                    for store in self.cluster.stores)
        assert self.cluster.network.bytes_of_kind("model-full") == (
            syncs * (tail + FINGERPRINT_BYTES)
            + self.mismatched * state_dict_bytes(published))

    @invariant()
    def the_residual_stays_within_half_a_step(self):
        master = self.tuner.model.state_dict()
        for key, value in self.tuner.published.items():
            if not np.issubdtype(value.dtype, np.floating):
                assert value.tobytes() == master[key].tobytes(), key
                continue
            residual = np.abs(master[key].astype(np.float64)
                              - value.astype(np.float64)).max()
            slack = 4 * np.finfo(value.dtype).eps * np.abs(value).max()
            assert residual <= self.bound.get(key, 0.0) + slack, key


TestReplicaIdentity = ReplicaIdentity.TestCase
TestReplicaIdentity.settings = settings(
    max_examples=20, stateful_step_count=10, deadline=None)
