"""NDPipeCluster — the whole system of Fig. 7, runnable end to end.

Wires an inference server, a label database, a Tuner, and N PipeStores over
a byte-accounted fabric.  Supports the three flows the paper describes:

* **ingest** — online inference labels a new photo, the photo plus its
  preprocessed binary land on a PipeStore (preprocessing offload, §5.4),
  and the label is indexed in the database;
* **fine-tune** — FT-DMP continuous training across PipeStores with
  Check-N-Run redistribution;
* **offline relabel** — every PipeStore re-infers its local photos with the
  fresh model and only labels cross the network.

Since the ROADMAP item-1 decomposition the cluster itself is a thin
composition root over three planes: the
:class:`~repro.core.dataplane.IngestDataPlane` (upload landing,
placement, replication), the :class:`~repro.core.controlplane.
RecoveryControlPlane` (journal, re-ingest, scrub/repair), and the
checkpoint codec in :mod:`repro.core.snapshot`.  The flows below
delegate to the planes; the sharded fleet
(:class:`repro.placement.fleet.ShardedCluster`) composes the same planes
with ring placement instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..durability.checkpoint import FinetuneProgress
from ..durability.integrity import ClusterScrubReport
from ..durability.replication import ReplicaMap
from ..faults.errors import TransientFaultError
from ..faults.retry import RetryPolicy
from ..models.split import SplitModel
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..storage.photodb import LabelRecord, PhotoDatabase
from .config import ClusterConfig
from .controlplane import RecoveryControlPlane
from .dataplane import InferenceServer, IngestDataPlane
from .fabric import NetworkFabric
from .ftdmp import FinetuneReport
from .pipestore import PipeStore, StoreUnavailableError
from .snapshot import build_checkpoint, restore_checkpoint
from .tuner import Tuner


@dataclass
class RelabelStats:
    """Outcome of one offline-inference campaign (the Table 1 metric)."""

    photos_processed: int
    labels_changed: int
    label_bytes: int
    #: stores that could not serve this campaign (down, or every dispatch
    #: retry failed) — their photos stay outdated for a later pass
    stores_skipped: List[str] = field(default_factory=list)
    #: photos left outdated because their store was skipped
    photos_deferred: int = 0

    @property
    def degraded(self) -> bool:
        """Did any store fail to take part in this campaign?"""
        return bool(self.stores_skipped or self.photos_deferred)


class StoreRoster:
    """Fleet membership: the PipeStores in join order, indexed by id.

    :class:`NDPipeCluster` owns the one roster; the Tuner, both planes,
    the shard rebalancer, an attached fault injector and the HA
    controller read it live, so a store that joins or leaves is seen by
    all of them at once.  List-like (``roster[i]``, slices, iteration,
    ``len``; join order is the checkpoint's store order), plus lookup by
    id: ``roster[store_id]`` (``KeyError`` outside the fleet) or
    :meth:`get` (``None``).
    """

    def __init__(self) -> None:
        self._by_id: Dict[str, PipeStore] = {}  # insertion = join order
        #: stores whose join is under way: their replica sync runs before
        #: :meth:`add`, and only a fault injector may name them meanwhile
        self.joining: Dict[str, PipeStore] = {}

    def add(self, store: PipeStore) -> None:
        if store.store_id in self._by_id:
            raise ValueError(f"{store.store_id!r} is already in the fleet")
        self._by_id[store.store_id] = store

    def remove(self, store_id: str) -> None:
        del self._by_id[store_id]

    def get(self, store_id: str) -> Optional[PipeStore]:
        return self._by_id.get(store_id)

    def ids(self) -> List[str]:
        return list(self._by_id)

    def __getitem__(self, key):
        if isinstance(key, str):
            store = self._by_id.get(key)
            if store is None:
                raise KeyError(f"unknown store {key!r}")
            return store
        return list(self._by_id.values())[key]

    def __iter__(self) -> Iterator[PipeStore]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)


class NDPipeCluster:
    """N PipeStores + Tuner + inference server + label database.

    The primary constructor takes a model factory plus one
    :class:`~repro.core.config.ClusterConfig`:

    .. code-block:: python

        cluster = NDPipeCluster(factory, ClusterConfig(num_stores=8))

    Collaborator objects (``retry_policy``, ``metrics``, ``tracer``)
    are live dependencies rather than values and stay keyword-only.

    ``model_factory`` is called once, for the Tuner's master: its frozen
    front becomes the fleet's one :class:`~repro.models.split.
    FrozenFront`, and every other replica (each store, the inference
    server, serving replicas, the HA standby) is provisioned from it by
    reference, owning only a copy of the classifier.
    """

    def __init__(self, model_factory: Callable[[], SplitModel],
                 config: Optional[ClusterConfig] = None, *,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.config = (config if config is not None
                       else ClusterConfig()).validated()
        self.replication = self.config.replication
        self.replicas = ReplicaMap()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.retry = retry_policy if retry_policy is not None else RetryPolicy()
        self.retry.bind_metrics(self.metrics)
        self.network = NetworkFabric(metrics=self.metrics)
        self.tuner = Tuner(model_factory(), self.network,
                           split=self.config.split, lr=self.config.lr,
                           batch_size=self.config.batch_size,
                           seed=self.config.seed,
                           retry_policy=self.retry, metrics=self.metrics,
                           tracer=self.tracer)
        #: fleet membership, written once: every plane reads this roster
        self.stores = StoreRoster()
        self.tuner.adopt_fleet(self.stores)
        for i in range(self.config.num_stores):
            self.join_store(f"pipestore-{i}")
        self.inference_server = InferenceServer(self.tuner.model.replica())
        self.tuner.attach_serving(self.inference_server)
        self.database = PhotoDatabase()
        # the recovery control plane owns the upload journal and every
        # failure-recovery path (ROADMAP item 1: split out of this class);
        # the HA controller (repro.ha) attaches here via enable_ha()
        self.control = RecoveryControlPlane(self)
        # the ingest data plane owns placement, replication, and the
        # landing path; the sharded fleet swaps its placement policy
        self.dataplane = IngestDataPlane(self)
        self.ha = None
        self._m_relabel = self.metrics.counter(
            "cluster_relabel_photos_total",
            "photos refreshed by offline relabel campaigns")
        self._m_checkpoints = self.metrics.counter(
            "durability_checkpoints_total", "checkpoints serialised")
        self._m_checkpoint_bytes = self.metrics.gauge(
            "durability_checkpoint_bytes", "size of the latest checkpoint")

    # -- membership -----------------------------------------------------------
    def join_store(self, store_id: str,
                   base: Optional[SplitModel] = None) -> PipeStore:
        """Enrol a fresh PipeStore: model replica first, then the roster.

        The replica is ``base``, by default one provisioned from the
        fleet's front (:meth:`~repro.models.split.SplitModel.replica`):
        its install ships only the classifier.  A ``base`` holding
        another front is refused that tail sync and sent the whole state.
        """
        store = PipeStore(store_id,
                          nominal_raw_bytes=self.config.nominal_raw_bytes)
        store.bind_metrics(self.metrics)
        if base is None:
            base = self.tuner.model.replica()
        self.stores.joining[store_id] = store
        try:
            self.tuner.install_replica(store, base)
        finally:
            del self.stores.joining[store_id]
        self.stores.add(store)
        return store

    # -- ingest (online inference) flow --------------------------------------
    def ingest(self, images: np.ndarray, train_labels: Optional[Sequence[int]] = None,
               ) -> List[str]:
        """Upload a batch of photos (N, 3, H, W in [0, 1]); returns ids.

        The data plane's chunked body (:meth:`~repro.core.dataplane.
        IngestDataPlane.ingest`) with nothing to admit and no id prefix.
        """
        with self.tracer.span("cluster.ingest", photos=len(images)):
            return list(self.dataplane.ingest(images, train_labels))

    # -- high-throughput serving flow ---------------------------------------
    def make_serving_frontend(self, config=None):
        """Build a :class:`~repro.serving.ServingFrontend` for this cluster.

        The frontend gets ``config.replicas`` fresh inference-server
        replicas of whatever model the front end currently serves (its
        front by reference, a copy of its classifier), and shares the
        cluster's fabric (so fault injection and byte accounting cover
        serving traffic), retry policy, metrics, and tracer.
        """
        from ..serving import ServingConfig, ServingFrontend

        config = (config if config is not None else ServingConfig()).validated()
        served = self.inference_server.model
        replicas = [InferenceServer(served.replica(),
                                    name=f"inference-replica-{i}")
                    for i in range(config.replicas)]
        return ServingFrontend(
            replicas, config, network=self.network,
            retry_policy=self.retry, metrics=self.metrics,
            tracer=self.tracer)

    def serve_uploads(self, requests, config=None):
        """Run uploads through the serving layer, then land the survivors.

        Admission control may shed requests (bounded queue, per-request
        deadlines, failed dispatch); everything that completes is made
        durable through the same placement/journal path as
        :meth:`ingest`.  Every completed upload, cache hit or miss, lands
        the codes its batch's front door already produced.  Returns
        ``(report, photo_ids)`` where ``photo_ids[i]`` corresponds to
        ``report.completed_requests[i]``.
        """
        frontend = self.make_serving_frontend(config)
        report = frontend.serve(requests, collect_codes=True)
        ids: List[str] = []
        with self.tracer.span("cluster.serve_uploads",
                              offered=report.offered,
                              completed=report.completed):
            for outcome in report.completed_requests:
                ids.append(self.dataplane.land_upload(
                    outcome.codes, outcome.label, outcome.confidence,
                    outcome.request.train_label))
                # landed: the codes (a view pinning its whole batch)
                # are the store's to keep now, not the report's
                outcome.codes = None
        return report, ids

    # -- continuous training flow -----------------------------------------
    def finetune(self, epochs: int = 2, num_runs: int = 1,
                 relocate_lost: bool = False,
                 checkpoint_sink: Optional[Callable[[int, bytes], None]] = None,
                 resume: Optional[FinetuneProgress] = None,
                 distribute: bool = True) -> FinetuneReport:
        """FT-DMP fine-tuning over every labelled photo in the fleet.

        ``distribute=False`` skips the Tuner's unicast Check-N-Run round
        at the end — the sharded fleet passes this and redistributes over
        its fan-out tree instead.

        With ``relocate_lost`` the run survives losing a PipeStore
        mid-run: the dead store's shard is re-ingested from the upload
        journal onto survivors and extracted there in the same round;
        whatever cannot be re-placed is reported as deferred.

        With ``checkpoint_sink`` every completed run becomes a durable
        resume point: the sink receives ``(run_index, checkpoint_blob)``
        after each run trains.  After a Tuner crash, :meth:`restore` the
        latest blob into a fresh cluster and pass the returned
        :class:`FinetuneProgress` back here as ``resume`` — the lifecycle
        picks up at the first incomplete run with the identical per-run
        schedule, optimizer state, and RNG stream, so the resumed model
        matches an uninterrupted run bit for bit.
        """
        start_run = 0
        run_plan = None
        report = None
        if resume is not None:
            run_plan = [
                {sid: list(ids) for sid, ids in per_store.items()}
                for per_store in resume.run_plan
            ]
            start_run = resume.next_run
            epochs = resume.epochs
            relocate_lost = relocate_lost or resume.relocate_lost
            if resume.report:
                report = FinetuneReport.from_dict(resume.report)
        assignments = None
        if run_plan is None:
            assignments = {
                store.store_id: [
                    pid for pid in self.database.ids_at(store.store_id)
                    if store.has_train_label(pid)
                ]
                for store in self.stores
            }
        on_run_complete = None
        if checkpoint_sink is not None or self.ha is not None:
            def on_run_complete(run_index, plan, partial_report,
                                _epochs=epochs, _relocate=relocate_lost):
                progress = FinetuneProgress(
                    num_runs=len(plan), epochs=_epochs,
                    next_run=run_index + 1,
                    run_plan=plan, report=partial_report.to_dict(),
                    relocate_lost=_relocate,
                )
                if self.ha is not None:
                    # keep the warm standby current: every run boundary
                    # ships a tuner-scoped checkpoint over the fabric
                    self.ha.ship_checkpoint(progress)
                if checkpoint_sink is not None:
                    checkpoint_sink(run_index, self.checkpoint(ftdmp=progress))
        with self.tracer.span("cluster.finetune", epochs=epochs,
                              num_runs=num_runs):
            report = self.tuner.finetune(
                assignments=assignments, epochs=epochs, num_runs=num_runs,
                distribute=distribute,
                relocate=self._relocate_for_training if relocate_lost else None,
                start_run=start_run, run_plan=run_plan,
                on_run_complete=on_run_complete, report=report,
            )
        if self.ha is not None:
            # post-distribution state: a failover after this point resumes
            # with nothing left to train
            self.ha.ship_checkpoint(None)
        return report

    def _relocate_for_training(self, store_id: str,
                               photo_ids: Sequence[str],
                               ) -> Dict[str, List[str]]:
        """Degraded-mode FT-DMP callback: re-place a lost shard, return the
        new store -> photo-ids assignment for what actually moved."""
        placement: Dict[str, List[str]] = {}
        for pid in self.reingest_orphans(store_id, only=photo_ids):
            location = self.database.lookup(pid).location
            placement.setdefault(location, []).append(pid)
        return placement

    # -- offline inference flow ---------------------------------------------
    def offline_relabel(self, only_outdated: bool = True) -> RelabelStats:
        """Refresh database labels with the current model, near the data.

        Stores that are down — or become unreachable mid-campaign despite
        the Tuner's retries — are skipped *visibly*: the returned stats
        name them and count the photos left outdated for a later pass.
        """
        target_version = self.tuner.version
        stats = RelabelStats(photos_processed=0, labels_changed=0,
                             label_bytes=0)
        with self.tracer.span("cluster.offline_relabel",
                              target_version=target_version):
            self._offline_relabel(stats, target_version, only_outdated)
        self._m_relabel.inc(stats.photos_processed)
        return stats

    def _offline_relabel(self, stats: RelabelStats, target_version: int,
                         only_outdated: bool) -> None:
        from ..sim.specs import LABEL_BYTES

        for store in self.stores:
            if only_outdated:
                ids = [
                    pid for pid in self.database.ids_at(store.store_id)
                    if self.database.lookup(pid).model_version < target_version
                ]
            else:
                ids = self.database.ids_at(store.store_id)
            if not ids:
                continue
            if not store.is_available:
                stats.stores_skipped.append(store.store_id)
                stats.photos_deferred += len(ids)
                continue
            try:
                results = self.tuner.trigger_offline_inference(store, ids)
            except (StoreUnavailableError, TransientFaultError):
                # lost mid-campaign and every retry failed
                stats.stores_skipped.append(store.store_id)
                stats.photos_deferred += len(ids)
                continue
            stats.label_bytes += LABEL_BYTES * len(results)
            for pid, (label, confidence) in results.items():
                record = self.database.lookup(pid)
                stats.photos_processed += 1
                if self.database.upsert(LabelRecord(
                    photo_id=pid, label=label, model_version=target_version,
                    location=record.location, confidence=confidence,
                )):
                    stats.labels_changed += 1

    # -- upload journal (owned by the control plane) ------------------------
    @property
    def journal_size(self) -> int:
        """Entries currently resident in the upload journal."""
        return self.control.journal_size

    # -- failure recovery (delegated to the control plane) -------------------
    def reingest_orphans(self, store_id: str,
                         only: Optional[Sequence[str]] = None) -> List[str]:
        """Re-place journalled photos stranded on a crashed store."""
        return self.control.reingest_orphans(store_id, only=only)

    def recover(self, store: Union[str, PipeStore]) -> PipeStore:
        """Bring a crashed store back into service (repair + resync)."""
        return self.control.recover(store)

    def reconcile(self, store: Union[str, PipeStore]) -> List[str]:
        """Drop a store's photos whose authoritative location moved away."""
        return self.control.reconcile(store)

    # -- integrity: scrub and replica repair --------------------------------
    def scrub_and_repair(self) -> ClusterScrubReport:
        """CRC-sweep every available store; heal damage from replicas."""
        return self.control.scrub_and_repair()

    # -- high availability ---------------------------------------------------
    def enable_ha(self, config=None, injector=None):
        """Attach the HA layer: failure detector, warm-standby Tuner with
        epoch-fenced failover, and automatic store eviction/rejoin.

        Returns the :class:`~repro.ha.controller.HAController`; drive it
        with ``poll()`` (the nemesis harness and serving loops do this
        between steps).  ``injector`` ties suspicion timeouts to the
        fault injector's logical clock.
        """
        from ..ha import HAConfig
        from ..ha.controller import HAController

        if self.ha is not None:
            return self.ha
        config = (config if config is not None else HAConfig()).validated()
        self.ha = HAController(self, config, injector=injector)
        return self.ha

    def adopt_tuner(self, tuner: Tuner) -> None:
        """Swap in a newly elected primary Tuner (HA failover).

        The front end moves with the lease: it serves the new primary's
        published state, the one the stores hold, and the deposed
        primary (whose rounds the stores fence) no longer syncs it.  The
        standby was provisioned from the fleet's front, so the process
        keeps one front across the swap.
        """
        self.tuner.attach_serving(None)
        self.tuner = tuner
        tuner.attach_serving(self.inference_server)

    # -- checkpoint / restore -----------------------------------------------
    def checkpoint(self, ftdmp: Optional[FinetuneProgress] = None) -> bytes:
        """Serialise the full lifecycle into one CRC-trailed blob.

        Captures everything resume needs bit-exactly: the Tuner's model,
        optimizer moments and RNG stream, every store's object snapshot,
        model replica and training labels, the label database with its
        version history, the replica map, the upload journal, and — when
        taken mid-fine-tune — the FT-DMP run journal ``ftdmp``.
        Delegates to :func:`repro.core.snapshot.build_checkpoint`.
        """
        blob = build_checkpoint(self, ftdmp=ftdmp)
        self._m_checkpoints.inc()
        self._m_checkpoint_bytes.set(len(blob))
        return blob

    def restore(self, blob: bytes) -> Optional[FinetuneProgress]:
        """Load a checkpoint into this (freshly built) cluster.

        The cluster must have been constructed with the same store fleet
        the checkpoint describes (``inspect_checkpoint`` reports it).
        Returns the pending :class:`FinetuneProgress` if the checkpoint
        was taken mid-fine-tune — pass it to :meth:`finetune` as
        ``resume`` to finish the lifecycle — or ``None``.
        Delegates to :func:`repro.core.snapshot.restore_checkpoint`.
        """
        return restore_checkpoint(self, blob)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, images: np.ndarray, labels: np.ndarray,
                 ) -> Tuple[float, float]:
        """(top-1, top-5) of the current model on ``images`` (decoded
        pixels), through the front door batch by batch
        (:meth:`Tuner.evaluate`)."""
        return self.tuner.evaluate(images, labels)

    # -- reporting ---------------------------------------------------------
    def traffic_summary(self) -> Dict[str, int]:
        return self.network.kinds()
