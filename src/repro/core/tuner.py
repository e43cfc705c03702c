"""Tuner — the fine-tuning server orchestrating PipeStores (§5).

The Tuner owns the authoritative model, triggers near-data jobs, trains
the trainable tail on features streamed back by PipeStores, and
redistributes updates as quantised Check-N-Run deltas.  All weight updates
are local to the Tuner, so FT-DMP needs no cross-store synchronisation.

Two models live here: the training *master* (``model``) and the
*published* state (:attr:`Tuner.published`), which is what every replica
holds.  Only the published state leaves the Tuner — in deltas and in
replica syncs (installs, resyncs, catch-ups) alike — and the attached
inference server (:meth:`Tuner.attach_serving`) is kept serving it.  Both
hold one frozen front, the master's :class:`~repro.models.split.
FrozenFront`, and so does every replica: a replica sync ships the
classifier plus a fingerprint of the front and hands the value itself
over in process; only a store provisioned with another front is sent the
whole state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.errors import StaleEpochError, TransientFaultError
from ..faults.retry import RetryPolicy, call_with_retry
from ..models.split import SplitModel
from ..nn.optim import Adam
from ..nn.tensor import Tensor, inference_mode
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer, wall_clock
from ..storage.imageformat import model_input, quantise
from . import checknrun
from .fabric import NetworkFabric
from .ftdmp import FeatureRows, FinetuneReport, RowStore, train_tail
from .pipestore import PipeStore, StoreUnavailableError

#: maps a lost store's photo ids to replacement assignments
#: ``(lost_store_id, photo_ids) -> {new_store_id: [photo_ids...]}``
Relocator = Callable[[str, Sequence[str]], Dict[str, List[str]]]


@dataclass
class DistributionStats:
    """One model-distribution round across the fleet."""

    version: int
    full_model_bytes: int
    bytes_per_store: int
    used_delta: bool
    #: stores that did not receive this round (down, or every retry of
    #: the send dropped); ``catch_up`` resynchronises them after repair
    stores_missed: List[str] = field(default_factory=list)
    #: stores that were behind the delta's base version (they missed an
    #: earlier round), or whose delta arrived corrupt, and were
    #: resynchronised instead (:meth:`Tuner._sync_replica`)
    stores_resynced: List[str] = field(default_factory=list)
    #: stores that rejected this round because it was stamped with a
    #: stale epoch — this Tuner has been deposed and must stand down
    stores_fenced: List[str] = field(default_factory=list)
    #: stores whose delta arrived relayed from a peer store instead of
    #: the Tuner (fan-out tree distribution); not a degradation
    stores_relayed: List[str] = field(default_factory=list)

    @property
    def reduction_factor(self) -> float:
        if self.bytes_per_store == 0:
            raise ValueError("no bytes distributed")
        return self.full_model_bytes / self.bytes_per_store

    @property
    def degraded(self) -> bool:
        return bool(self.stores_missed or self.stores_resynced
                    or self.stores_fenced)


class Tuner:
    """The training server of NDPipe."""

    def __init__(self, model: SplitModel, network: NetworkFabric,
                 split: Optional[int] = None, name: str = "tuner",
                 lr: float = 3e-3, batch_size: int = 64, seed: int = 0,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.name = name
        self.retry = retry_policy if retry_policy is not None else RetryPolicy()
        self.tracer = tracer
        self._metrics: Optional[MetricsRegistry] = None
        if metrics is not None:
            self.bind_metrics(metrics)
        self.model = model
        self.split = model.num_stages - 1 if split is None else split
        if not 0 <= self.split < model.num_stages:
            raise ValueError("split must keep the trainable tail on the Tuner")
        self.network = network
        self.version = 0
        #: election epoch this Tuner believes it holds the primary lease
        #: for; stamped on every model update so stores can fence zombies
        self.epoch = 0
        self._failed = False
        self._m_fenced = None
        self.lr = lr
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        #: the cluster's StoreRoster once adopted (:meth:`adopt_fleet`)
        self._stores = ()
        self._optimizer = None
        #: the published state: what every replica holds (None until the
        #: first replica is installed, when it is the master's)
        self._last_distributed: Optional[Dict[str, np.ndarray]] = None
        #: the inference server kept serving the published state
        self._serving = None
        #: (a published state, its tail and whole replica syncs)
        self._syncs_of: Optional[Tuple[Dict[str, np.ndarray], Tuple[
            checknrun.ReplicaSync, checknrun.ReplicaSync]]] = None
        #: bytes the replica syncs have put on the fabric, each message
        #: counted every time it was charged
        self._sync_bytes_sent = 0
        #: the feature rows received from stores (derived state: never
        #: checkpointed, pruned to each round's plan)
        self.rows = RowStore()
        model.freeze_features()
        self.distributions: List[DistributionStats] = []

    # -- observability -------------------------------------------------------
    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Report FT-DMP run timings and distribution rounds into a registry."""
        self._metrics = metrics
        self._m_store_stage = metrics.histogram(
            "ftdmp_store_stage_seconds",
            "wall seconds per run gathering features from the fleet")
        self._m_tuner_stage = metrics.histogram(
            "ftdmp_tuner_stage_seconds",
            "wall seconds per run training the tail on gathered features")
        self._m_runs = metrics.counter(
            "ftdmp_runs_total", "pipeline runs executed across fine-tunes")
        self._m_images = metrics.counter(
            "ftdmp_images_extracted_total",
            "images whose rows the tail trained on, shipped or held")
        self._m_feature_bytes = metrics.counter(
            "ftdmp_feature_bytes_total", "feature bytes shipped to the Tuner")
        self._m_rows_reused = metrics.counter(
            "ftdmp_feature_rows_reused_total",
            "rows trained on from the Tuner's row store, not shipped")
        self._m_rows_held = metrics.gauge(
            "ftdmp_feature_rows_held_bytes",
            "wire bytes of the feature rows the Tuner holds")
        self._m_distributions = metrics.counter(
            "checknrun_distributions_total", "model distribution rounds",
            label_names=("mechanism",))
        self._m_distributed_bytes = metrics.counter(
            "checknrun_distributed_bytes_total",
            "bytes shipped distributing model updates",
            label_names=("mechanism",))

    def _span(self, name: str, **args):
        if self.tracer is None:
            from contextlib import nullcontext

            return nullcontext()
        return self.tracer.span(name, category="ftdmp", **args)

    # -- fault injection ------------------------------------------------------
    @property
    def is_available(self) -> bool:
        return not self._failed

    def fail(self) -> None:
        """Take the Tuner process down (targeted fault injection)."""
        self._failed = True

    def repair(self) -> None:
        """Revive the process — it still holds its pre-crash epoch."""
        self._failed = False

    def bind_fencing_counter(self, counter) -> None:
        """Count updates stores rejected for carrying this Tuner's stale
        epoch (registered once by :class:`repro.ha.metrics.HAMetrics`)."""
        self._m_fenced = counter

    # -- fleet management ---------------------------------------------------
    def adopt_fleet(self, roster) -> None:
        """Serve the cluster's live store roster (shared, not copied).

        The cluster hands it over at construction; at failover the
        promoted standby adopts it without resending model replicas (it
        holds the primary's exact training state, so they are current).
        """
        self._stores = roster

    def install_replica(self, store: PipeStore, replica: SplitModel) -> None:
        """Bring a joining PipeStore, provisioned with ``replica``, to the
        published state (membership itself is the roster's:
        :meth:`NDPipeCluster.join_store`)."""
        state = self.published
        self._sync_replica(store, state, base=replica)
        self._last_distributed = state

    @property
    def stores(self) -> List[PipeStore]:
        return list(self._stores)

    def attach_serving(self, server) -> None:
        """Keep ``server`` serving the published state (``None``
        detaches): synced now, then whenever the state moves — after a
        distribution round and after :meth:`import_training_state`."""
        self._serving = server
        self._serve_published()

    def _serve_published(self) -> None:
        if self._serving is not None:
            self._serving.sync_model(self.published, self.model.front)

    @property
    def published(self) -> Dict[str, np.ndarray]:
        """The model every replica holds, at :attr:`version`.

        Each round moves it towards the master by one quantised delta
        (:func:`checknrun.publish`); before any replica is installed it
        is the master's state.  Its frozen stages are the arrays of the
        master's front value (``freeze_features`` made it immutable),
        which every replica holds by reference; an in-place write to one
        raises.  Its classifier
        arrays are the Tuner's: each replica copies them, and callers
        must not write to them.
        """
        if self._last_distributed is None:
            return self.model.state_dict()
        return self._last_distributed

    # -- model distribution ---------------------------------------------------
    def distribute_update(self, send_order: Optional[Sequence[str]] = None,
                          senders: Optional[Dict[str, str]] = None,
                          ) -> DistributionStats:
        """Publish the master's progress to every reachable PipeStore.

        The round's delta is ``master - published`` quantised
        (:func:`checknrun.publish`); the state it rebuilds becomes the new
        published state, and what quantisation left out rides in the
        next round's delta.

        Stores whose replica sits exactly at the delta's base version get
        the Check-N-Run delta; stores that missed an earlier round (crash
        or dropped delta) would be silently corrupted by a delta encoded
        against a newer base, so they get a resync
        (:meth:`_sync_replica`) instead.
        Every send is retried with exponential backoff; stores that stay
        unreachable are recorded in ``stores_missed`` and pick the round
        up later via :meth:`catch_up`.

        ``send_order``/``senders`` route the round through a fan-out tree
        (:class:`repro.placement.fanout.FanoutTree`): stores are visited
        in ``send_order`` and a store whose ``senders`` parent has already
        taken the delta this round receives it relayed from that peer —
        the delta bytes leave the parent's NIC, not the Tuner's.  A parent
        that missed, resynced, or got fenced falls back to a Tuner uplink,
        and resyncs always come from the Tuner (only it holds the
        published state).  Defaults preserve exact unicast behaviour.
        """
        if self._last_distributed is None:
            raise RuntimeError("register stores before distributing updates")
        ordered = self._stores
        if send_order is not None:
            fleet = sorted(self._stores.ids())
            if sorted(send_order) != fleet:
                raise ValueError(
                    "send_order must cover every registered store exactly "
                    f"once; got {sorted(send_order)} for fleet {fleet}")
            ordered = [self._stores[sid] for sid in send_order]
        senders = dict(senders or {})
        base_version = self.version
        blob, new_state = checknrun.publish(self._last_distributed,
                                            self.model.state_dict())
        self.version += 1
        stats = DistributionStats(
            version=self.version,
            full_model_bytes=checknrun.state_dict_bytes(new_state),
            bytes_per_store=len(blob),
            used_delta=True,
        )
        delta_holders: set = set()
        synced_before = self._sync_bytes_sent
        for store in ordered:
            if not store.is_available:
                stats.stores_missed.append(store.store_id)
                continue
            parent = senders.get(store.store_id)
            relay = parent if parent in delta_holders else None
            try:
                if store.model_version == base_version:
                    try:
                        call_with_retry(
                            lambda s=store, src=relay:
                                self._send_delta(s, blob, sender=src),
                            self.retry)
                        delta_holders.add(store.store_id)
                        if relay is not None:
                            stats.stores_relayed.append(store.store_id)
                    except checknrun.DeltaError:
                        # corrupt delta on arrival: resync instead
                        self._sync_replica(store, new_state)
                        stats.stores_resynced.append(store.store_id)
                else:
                    self._sync_replica(store, new_state)
                    stats.stores_resynced.append(store.store_id)
            except StaleEpochError:
                # this Tuner has been deposed: the store already accepted
                # a newer epoch and will never take our updates again
                stats.stores_fenced.append(store.store_id)
                if self._m_fenced is not None:
                    self._m_fenced.inc(node=self.name)
            except (TransientFaultError, StoreUnavailableError):
                stats.stores_missed.append(store.store_id)
        resync_bytes = self._sync_bytes_sent - synced_before
        self.distributions.append(stats)
        self._last_distributed = new_state
        self._serve_published()
        if self._metrics is not None:
            num_resynced = len(stats.stores_resynced)
            num_delta = (len(self._stores) - len(stats.stores_missed)
                         - len(stats.stores_fenced) - num_resynced)
            if num_delta:
                self._m_distributions.inc(num_delta, mechanism="delta")
                self._m_distributed_bytes.inc(num_delta * len(blob),
                                              mechanism="delta")
            if num_resynced:
                self._m_distributions.inc(num_resynced, mechanism="full")
            if resync_bytes:
                # a resync that failed part-way still spent what it sent
                self._m_distributed_bytes.inc(resync_bytes, mechanism="full")
        return stats

    def _send_delta(self, store: PipeStore, blob: bytes,
                    sender: Optional[str] = None) -> None:
        # the delta leaves the fan-out parent's NIC when one is routing
        src = self.name if sender is None else sender
        # ndlint: allow[ND005] -- invoked only via call_with_retry thunks
        self.network.send(src, store.store_id, len(blob), "model-delta")
        store.apply_model_delta(blob, self.version, epoch=self.epoch)

    def _sync_replica(self, store: PipeStore, state: Dict[str, np.ndarray],
                      base: Optional[SplitModel] = None) -> None:
        """Bring ``store`` to the published ``state`` (``base``: its
        replica, on a first install).

        The one way a store is brought to the published state.  The
        common case is one ``model-full`` message: the classifier plus
        the fingerprint of the front, which the store checks against the
        front it holds.  A store holding another front refuses it
        (:class:`checknrun.BaseMismatchError`) and is sent the whole
        state as a second message.  Either way the store ends up holding
        the master's front value.  Each message is retried on its own.
        """
        if self._syncs_of is None or self._syncs_of[0] is not state:
            self._syncs_of = (state, checknrun.replica_syncs(
                state, self.split, self.model.front))
        tail, whole = self._syncs_of[1]
        try:
            call_with_retry(lambda: self._send_sync(store, tail, base),
                            self.retry)
        except checknrun.BaseMismatchError:
            call_with_retry(lambda: self._send_sync(store, whole, base),
                            self.retry)

    def _send_sync(self, store: PipeStore, sync: checknrun.ReplicaSync,
                   base: Optional[SplitModel]) -> None:
        # ndlint: allow[ND005] -- invoked only via call_with_retry thunks
        self.network.send(self.name, store.store_id, sync.num_bytes,
                          "model-full")
        self._sync_bytes_sent += sync.num_bytes
        store.install_model(sync, self.version, epoch=self.epoch, base=base)

    # -- FT-DMP fine-tuning ----------------------------------------------------
    def finetune(self, assignments: Optional[Dict[str, Sequence[str]]] = None,
                 epochs: int = 2, num_runs: int = 1,
                 distribute: bool = True,
                 relocate: Optional[Relocator] = None,
                 start_run: int = 0,
                 run_plan: Optional[List[Dict[str, List[str]]]] = None,
                 on_run_complete: Optional[
                     Callable[[int, List[Dict[str, List[str]]],
                               FinetuneReport], None]] = None,
                 report: Optional[FinetuneReport] = None) -> FinetuneReport:
        """One continuous-training round over the fleet's labelled photos.

        ``assignments`` maps store-id -> photo ids to train on (defaults to
        every labelled photo on each store).  The dataset is processed in
        ``num_runs`` pipeline runs: within a run every PipeStore extracts
        features for its share and ships them over; the Tuner then trains
        the tail for ``epochs`` epochs before the next run arrives (§5.2).
        A row the Tuner already holds under its key is not shipped again
        (:meth:`_gather_features`); at the end of the round the row store
        keeps only the photos of this round's plan.

        ``relocate`` enables degraded-mode FT-DMP: when a store is lost
        mid-run, its shard is handed to the callback (the cluster re-places
        journalled photos onto survivors) and the returned assignments are
        extracted in the same run; photos that cannot be re-placed are
        counted as deferred in the report.

        The remaining parameters exist for crash-consistent resume:
        ``run_plan`` pins an explicit per-run schedule (replacing the
        ``assignments``/``num_runs`` planning), ``start_run`` skips runs
        that already completed before a crash, ``report`` continues
        accumulating into a restored report, and ``on_run_complete(run,
        plan, report)`` fires after each run trains — the cluster hooks
        it to write a checkpoint, making every run boundary a durable
        resume point.
        """
        if not self._stores:
            raise RuntimeError("no PipeStores registered")
        if run_plan is None:
            if num_runs < 1:
                raise ValueError("num_runs must be >= 1")
            if assignments is None:
                assignments = {
                    s.store_id: s.labeled_photo_ids() for s in self._stores
                }
            run_plan = self._plan_runs(assignments, num_runs)
        if not 0 <= start_run <= len(run_plan):
            raise ValueError(
                f"start_run {start_run} outside the {len(run_plan)}-run plan")
        if report is None:
            report = FinetuneReport(num_runs=len(run_plan), split=self.split)
        if self._optimizer is None:
            self._optimizer = Adam(self.model.classifier.parameters(), lr=self.lr)

        for run_index in range(start_run, len(run_plan)):
            per_store_ids = run_plan[run_index]
            images_before = report.images_extracted
            held_before = report.rows_held
            bytes_before = report.feature_bytes
            start = wall_clock()
            with self._span("ftdmp.store_stage", run=run_index):
                features, labels = self._gather_features(
                    per_store_ids, report, relocate=relocate
                )
            store_seconds = wall_clock() - start
            if self._metrics is not None:
                self._m_runs.inc()
                self._m_store_stage.observe(store_seconds)
                self._m_images.inc(report.images_extracted - images_before)
                self._m_rows_reused.inc(report.rows_held - held_before)
                self._m_feature_bytes.inc(report.feature_bytes - bytes_before)
            if len(features) > 0:
                start = wall_clock()
                with self._span("ftdmp.tuner_stage", run=run_index,
                                images=len(features)):
                    report.epochs.extend(train_tail(
                        self.model, self.split, self._optimizer, features,
                        labels, epochs, self.batch_size, self._rng,
                        run_index))
                if self._metrics is not None:
                    self._m_tuner_stage.observe(wall_clock() - start)
            if on_run_complete is not None:
                on_run_complete(run_index, run_plan, report)
        self.rows.retain(pid for per_store in run_plan
                         for ids in per_store.values() for pid in ids)
        if self._metrics is not None:
            self._m_rows_held.set(self.rows.nbytes)
        if distribute:
            with self._span("ftdmp.distribute"):
                self.distribute_update()
        return report

    def _plan_runs(self, assignments: Dict[str, Sequence[str]],
                   num_runs: int) -> List[Dict[str, List[str]]]:
        """Split every store's photo list into ``num_runs`` sub-lists."""
        runs: List[Dict[str, List[str]]] = [dict() for _ in range(num_runs)]
        for store_id, ids in assignments.items():
            ids = list(ids)
            bounds = np.linspace(0, len(ids), num_runs + 1).astype(int)
            for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                runs[k][store_id] = ids[a:b]
        return runs

    def _gather_features(self, per_store_ids: Dict[str, List[str]],
                         report: FinetuneReport,
                         relocate: Optional[Relocator] = None,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """One run's Store stage.

        Every store in the run is asked for its shard: the labels, and
        the rows whose key (:meth:`PipeStore.row_keys`) the Tuner's row
        store does not hold or no longer matches.  Only those cross the
        fabric, as one :class:`FeatureRows` message per store, and are
        kept.  The run's rows are then the held records in plan order,
        decoded here — the tail trains on what the channel delivered,
        this round or an earlier one.
        """
        shards, label_chunks = [], []
        # (store_id, ids, was_relocated); shards re-placed after a crash
        # re-enter this queue and are gathered from their new store in-run
        pending = deque(
            (store_id, list(ids), False)
            for store_id, ids in per_store_ids.items()
        )
        # bounds relocation ping-pong if stores keep crashing under us
        relocation_budget = 2 * max(1, len(self._stores))
        while pending:
            store_id, ids, was_relocated = pending.popleft()
            if not ids:
                continue
            store = self._stores[store_id]
            try:
                keys = store.row_keys(ids)
                labels = np.array([store.train_label(pid) for pid in ids])
                stale = self.rows.stale(ids, keys)
                ship = [ids[i] for i in stale]
                if ship:
                    message = FeatureRows.encode(
                        store.extract_features(ship))
            except StoreUnavailableError:
                if store_id not in report.skipped_stores:
                    report.skipped_stores.append(store_id)
                if relocate is not None and relocation_budget > 0:
                    relocation_budget -= 1
                    placement = relocate(store_id, ids)
                    moved = sum(len(v) for v in placement.values())
                    report.photos_deferred += len(ids) - moved
                    for new_store_id, new_ids in placement.items():
                        if new_ids:
                            pending.append((new_store_id, list(new_ids), True))
                else:
                    # without a relocator, data locality pins the shard to
                    # its dead store; train on what the healthy fleet
                    # provides and record the gap for a rerun after repair
                    report.photos_deferred += len(ids)
                continue
            if ship:
                try:
                    delivered = call_with_retry(
                        lambda: self.network.send(store_id, self.name,
                                                  message.wire_size(),
                                                  "features", message),
                        self.retry)
                except TransientFaultError:
                    # the feature stream itself is persistently dropped
                    report.photos_deferred += len(ids)
                    continue
                report.feature_bytes += message.wire_size()
                self.rows.keep(ship, [keys[i] for i in stale], delivered)
            report.images_extracted += len(ids)
            report.rows_held += len(ids) - len(ship)
            if was_relocated:
                report.photos_repartitioned += len(ids)
            shards.extend(ids)
            label_chunks.append(labels)
        if not shards:
            return np.empty((0,)), np.empty((0,), dtype=np.int64)
        return (self.rows.message(shards).decode(),
                np.concatenate(label_chunks, axis=0))

    def catch_up(self, store: PipeStore) -> None:
        """Resynchronise a repaired store that missed delta rounds."""
        if not store.is_available:
            raise StoreUnavailableError(f"{store.store_id} is still down")
        if store.model_version == self.version:
            return
        self._sync_replica(store, self.published)

    # -- checkpoint support ---------------------------------------------------
    def export_training_state(self) -> Dict:
        """Everything a checkpoint needs to resume training bit-exactly:
        model weights, optimizer moments, RNG state, version counters."""
        from ..durability.checkpoint import rng_state_to_json

        state: Dict = {
            "version": self.version,
            "epoch": self.epoch,
            "split": self.split,
            "lr": self.lr,
            "rng": rng_state_to_json(self._rng),
            "model": self.model.state_dict(),
            "last_distributed": self._last_distributed,
            "optimizer": None,
        }
        if self._optimizer is not None:
            opt = self._optimizer
            state["optimizer"] = {
                "t": opt._t,
                "m": {f"{i:04d}": arr for i, arr in enumerate(opt._m)},
                "v": {f"{i:04d}": arr for i, arr in enumerate(opt._v)},
            }
        return state

    def import_training_state(self, state: Dict) -> None:
        """Inverse of :meth:`export_training_state` on a fresh Tuner.

        The master takes ``state["front"]`` when the state names its
        front value (a checkpoint reader resolves one per model blob),
        else the value its front arrays resolve to; the published state
        holds the same front, as it always does.
        """
        self.version = int(state["version"])
        # epoch absent in pre-HA checkpoints: those predate elections
        self.epoch = int(state.get("epoch", 0))
        self.model.adopt(state["model"], state.get("front"))
        published = state["last_distributed"]
        self._last_distributed = (None if published is None else
                                  {**published, **self.model.front.arrays})
        self._syncs_of = None
        # held rows are derived state, not part of what was imported
        self.rows.clear()
        if self._metrics is not None:
            self._m_rows_held.set(0)
        self._serve_published()
        self._rng.bit_generator.state = state["rng"]
        opt_state = state["optimizer"]
        if opt_state is None:
            self._optimizer = None
            return
        optimizer = Adam(self.model.classifier.parameters(), lr=self.lr)
        moments_m = [opt_state["m"][k] for k in sorted(opt_state["m"])]
        moments_v = [opt_state["v"][k] for k in sorted(opt_state["v"])]
        if len(moments_m) != len(optimizer._m):
            raise ValueError(
                "checkpointed optimizer disagrees with the model's "
                f"trainable tail: {len(moments_m)} != {len(optimizer._m)}"
            )
        for slot, loaded in zip(optimizer._m, moments_m):
            if slot.shape != loaded.shape:
                raise ValueError("optimizer moment shape mismatch")
        optimizer._m = [np.array(a, copy=True) for a in moments_m]
        optimizer._v = [np.array(a, copy=True) for a in moments_v]
        optimizer._t = int(opt_state["t"])
        self._optimizer = optimizer

    # -- offline inference orchestration ------------------------------------
    def trigger_offline_inference(self, store: PipeStore,
                                  photo_ids: Sequence[str],
                                  ) -> Dict[str, Tuple[int, float]]:
        """Ask one PipeStore to relabel its local photos (request + labels).

        The whole dispatch (request, near-data inference, label return) is
        retried with exponential backoff: a dropped message or a store
        that recovers between attempts does not abort the campaign.  When
        every attempt fails, the last error propagates and the caller
        records the store as skipped.
        """
        from ..sim.specs import LABEL_BYTES

        ids = list(photo_ids)

        def attempt() -> Dict[str, Tuple[int, float]]:
            self.network.send(self.name, store.store_id, 64,
                              "inference-request")
            results = store.offline_infer(ids)
            self.network.send(store.store_id, self.name,
                              LABEL_BYTES * len(results), "labels", results)
            return results

        return call_with_retry(
            attempt, self.retry,
            retryable=(TransientFaultError, StoreUnavailableError))

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, images: np.ndarray, labels: np.ndarray,
                 ) -> Tuple[float, float]:
        """(top-1, top-5) accuracy of the authoritative model on decoded
        pixels, passed through the front door and forwarded
        :attr:`batch_size` photos at a time, as an upload would be: what
        it holds is one batch, whatever the set's size."""
        from ..nn.losses import accuracy, topk_accuracy

        was_training = self.model.training
        self.model.eval()
        try:
            with inference_mode():
                logits = np.concatenate([
                    self.model(Tensor(model_input(quantise(
                        images[start:start + self.batch_size])))).data
                    for start in range(0, len(images), self.batch_size)])
        finally:
            self.model.train(was_training)
        return accuracy(logits, labels), topk_accuracy(logits, labels, k=5)
