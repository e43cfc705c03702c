"""RecoveryControlPlane — the cluster's repair brain, split out of
:class:`~repro.core.cluster.NDPipeCluster` (ROADMAP item 1).

Everything that decides how the fleet heals lives here: the bounded
upload journal, orphan re-ingest after a store crash, replica promotion,
store recover/reconcile, and the scrub-and-repair integrity sweep.  The
cluster object keeps thin delegators with the historical signatures and
owns the *data* plane (placement, ingest, serving, training); this class
owns the *control* plane and is what the HA layer (:mod:`repro.ha`)
drives from its failure detector instead of test code.

The split is a back-reference design: the control plane holds the
cluster and reaches through it for the fabric, database, replica map and
store roster, so there is exactly one copy of each piece of state.
"Which holder gives up its copy" is one donor walk
(:meth:`RecoveryControlPlane.donors`) and every object copy one transfer
(:meth:`RecoveryControlPlane.transfer`), shared with the shard
rebalancer and the nemesis loss check.
"""

from __future__ import annotations

import weakref
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..durability.integrity import ClusterScrubReport
from ..faults.errors import TransientFaultError
from ..faults.retry import call_with_retry
from ..storage.objectstore import CorruptObjectError, MissingObjectError
from ..storage.photodb import LabelRecord
from .pipestore import PipeStore, StoredPhoto, StoreUnavailableError

#: one journalled upload: its 8-bit codes (the front door's output) +
#: the user's training tag (if any)
JournalEntry = Tuple[np.ndarray, Optional[int]]
#: what a holder vouches with — ``None`` when it cannot (see ``donors``)
Vouch = Callable[[PipeStore], Any]


def raw_copy(pid: str) -> Vouch:
    """The holder stores ``pid``'s raw blob (unverified: the bar for
    replica promotion and the nemesis loss check)."""
    return lambda store: (True if store.objects.exists(
        store.objects.raw_key(pid)) else None)


def verified_copies(keys: Sequence[str]) -> Vouch:
    """CRC-verified copies of whichever of ``keys`` the holder stores —
    at least one (the bar for repair, restore and rebalance)."""
    return lambda store: [(key, store.donate_object(key)) for key in keys
                          if store.objects.exists(key)] or None


class RecoveryControlPlane:
    """Owns the upload journal and every failure-recovery path.

    This is the sole registration site for the journal and durability
    repair metric families (ND004); the cluster's ``__init__`` builds
    exactly one of these.
    """

    @property
    def cluster(self):
        """The cluster this plane serves."""
        return self._cluster()

    def __init__(self, cluster) -> None:
        # weak: the cluster holds this plane, so a dropped cluster is
        # freed by reference counting
        self._cluster = weakref.ref(cluster)
        config = cluster.config
        # the front end journals uploads (8-bit codes + user tag) so
        # photos orphaned on a crashed store can be re-placed onto
        # survivors.  The journal is bounded: entries whose photo left
        # the database are pruned, and ``journal_max_entries`` caps
        # residency (oldest entries fall out first) so upload buffers
        # cannot accumulate for the lifetime of the cluster.
        self.journal: Dict[str, JournalEntry] = {}
        self._journal_max_entries = config.journal_max_entries
        metrics = cluster.metrics
        self._m_journal = metrics.gauge(
            "cluster_journal_entries",
            "upload-journal entries resident").labels()
        pruned = metrics.counter(
            "cluster_journal_pruned_total", "journal entries pruned",
            label_names=("reason",))
        self._m_pruned_capacity = pruned.labels(reason="capacity")
        self._m_pruned_departed = pruned.labels(reason="departed")
        self._m_replicas_promoted = metrics.counter(
            "durability_replicas_promoted_total",
            "replicas promoted to primary after losing the primary's store")
        self._m_repaired = metrics.counter(
            "durability_objects_repaired_total",
            "corrupt objects rewritten from a healthy replica",
            label_names=("store",))
        self._m_restored = metrics.counter(
            "durability_objects_restored_total",
            "lost objects re-fetched from a healthy replica",
            label_names=("store",))
        self._m_unrecoverable = metrics.counter(
            "durability_objects_unrecoverable_total",
            "damaged objects with no healthy replica anywhere",
            label_names=("store",))

    # -- upload journal -----------------------------------------------------
    @property
    def journal_size(self) -> int:
        """Entries currently resident in the upload journal."""
        return len(self.journal)

    def journal_put(self, photo_id: str, codes: np.ndarray,
                    train_label: Optional[int]) -> None:
        self.journal[photo_id] = (codes, train_label)
        cap = self._journal_max_entries
        if cap is not None and len(self.journal) > cap:
            # dict preserves insertion order: evict the oldest uploads
            overflow = len(self.journal) - cap
            for pid in list(self.journal)[:overflow]:
                del self.journal[pid]
            self._m_pruned_capacity.inc(overflow)
        self._m_journal.set(len(self.journal))

    def prune_journal(self) -> int:
        """Drop journal entries whose photo is gone from the database.

        The database is the single source of truth for placement; a photo
        that left it can never need re-ingestion, so its raw pixel buffer
        has no business staying resident.  Returns how many entries were
        dropped.  Called automatically by :meth:`reconcile`.
        """
        database = self.cluster.database
        stale = [pid for pid in self.journal if pid not in database]
        for pid in stale:
            del self.journal[pid]
        if stale:
            self._m_pruned_departed.inc(len(stale))
        self._m_journal.set(len(self.journal))
        return len(stale)

    def restore_journal(self, journal: Dict[str, JournalEntry]) -> None:
        """Adopt a checkpointed journal."""
        self.journal = journal
        self._m_journal.set(len(self.journal))

    # -- failure recovery ---------------------------------------------------
    def reingest_orphans(self, store_id: str,
                         only: Optional[Sequence[str]] = None) -> List[str]:
        """Re-place journalled photos stranded on a crashed store.

        Photos whose upload is still in the front end's journal are
        landed again on healthy stores from their codes; their database
        records move with them (same label, same model version).  Returns
        the ids that actually moved — anything not journalled (or not
        placeable right now) stays orphaned until the store repairs.
        """
        cluster = self.cluster
        moved: List[str] = []
        candidates = (cluster.database.ids_at(store_id) if only is None
                      else list(only))
        with cluster.tracer.span("cluster.reingest_orphans", store=store_id,
                                 candidates=len(candidates)):
            for pid in candidates:
                if pid not in cluster.database:
                    continue
                record = cluster.database.lookup(pid)
                if record.location != store_id:
                    continue  # already moved
                # cheapest recovery first: a healthy replica already holds
                # the blobs and label, so promotion moves zero bytes
                if self._promote_replica(pid, record, store_id):
                    moved.append(pid)
                    continue
                if pid not in self.journal:
                    continue
                codes, train_label = self.journal[pid]
                photo = StoredPhoto(photo_id=pid, codes=codes,
                                    train_label=train_label)
                try:
                    target = cluster.dataplane.place_photo(
                        photo, kind="re-ingest").store_id
                except StoreUnavailableError:
                    continue
                cluster.dataplane.write_placement(record, [target] + [
                    h for h in cluster.replicas.holders(pid)
                    if h not in (store_id, target)
                ])
                moved.append(pid)
        return moved

    def _promote_replica(self, pid: str, record: LabelRecord,
                         lost_store_id: str) -> Optional[str]:
        """Make a healthy replica the authoritative copy of one photo.

        The crashed store stays in the holder list: its blobs survive the
        outage, so on recovery it resumes replica duty (and a scrub
        re-fetches anything that did not survive)."""
        cluster = self.cluster
        for donor, _ in self.donors(pid, lost_store_id, raw_copy(pid)):
            holder = donor.store_id
            cluster.dataplane.write_placement(record, [holder] + [
                h for h in cluster.replicas.holders(pid) if h != holder])
            self._m_replicas_promoted.inc()
            return holder
        return None

    def recover(self, store: Union[str, PipeStore]) -> PipeStore:
        """Bring a crashed store back: repair, resync the model replica it
        missed, and evict any photo the cluster re-placed elsewhere while
        it was down (the database location is authoritative)."""
        cluster = self.cluster
        if isinstance(store, str):
            store = cluster.stores[store]
        with cluster.tracer.span("cluster.recover", store=store.store_id):
            store.repair()
            store.slowdown = 1.0
            cluster.tuner.catch_up(store)
            self.reconcile(store)
        return store

    def reconcile(self, store: Union[str, PipeStore]) -> List[str]:
        """Drop a store's photos whose authoritative location moved away.

        Replica copies are not orphans: a photo stays if the store is in
        its holder list, even when the database points elsewhere."""
        cluster = self.cluster
        if isinstance(store, str):
            store = cluster.stores[store]
        evicted = []
        for pid in store.photo_ids():
            if pid in cluster.database:
                record = cluster.database.lookup(pid)
                if (record.location == store.store_id
                        or cluster.replicas.is_holder(pid, store.store_id)):
                    continue
            store.evict_photo(pid)
            cluster.replicas.remove_holder(pid, store.store_id)
            evicted.append(pid)
        self.prune_journal()
        return evicted

    # -- integrity: scrub and replica repair --------------------------------
    def scrub_and_repair(self) -> ClusterScrubReport:
        """CRC-sweep every available store; heal damage from replicas.

        Two kinds of damage are repaired: objects whose bytes rotted in
        place (scrub finds a CRC mismatch) and objects lost outright
        (expected by the replica map but absent).  Both are re-fetched
        from the first healthy holder over the fabric; objects with no
        healthy copy anywhere are reported — and counted — as
        unrecoverable rather than silently dropped.  A rotted ``feat/``
        object is repaired by deleting it: it is recomputable.  A
        ``preproc/`` blob that passes its CRC but is not the one its
        store's ``raw/`` blob derives is re-derived in place, moving no
        bytes.
        """
        cluster = self.cluster
        report = ClusterScrubReport()
        # replicas share raw/ payloads: each is derived once for all stores
        memo: dict = {}
        with cluster.tracer.span("cluster.scrub_and_repair"):
            for store in cluster.stores:
                if not store.is_available:
                    report.stores_skipped.append(store.store_id)
                    continue
                scrub = store.scrub(memo)
                report.scrubs.append(scrub)
                for key in scrub.corrupt_keys:
                    if self._repair_object(store, key):
                        report.repaired.append((store.store_id, key))
                        self._m_repaired.inc(store=store.store_id)
                    else:
                        report.unrecoverable.append((store.store_id, key))
                        self._m_unrecoverable.inc(store=store.store_id)
                for key in scrub.underived_keys:
                    store.rederive_preprocessed(key.split("/", 1)[1])
                    report.rederived.append((store.store_id, key))
                self._restore_missing(store, report)
        return report

    def _restore_missing(self, store: PipeStore,
                         report: ClusterScrubReport) -> None:
        """Re-fetch objects the replica map expects on a store but that
        vanished (crash-lost media), including their training labels.  A
        lost ``preproc/`` blob whose ``raw/`` blob is there and verifies
        is re-derived from it in place, moving no bytes; a lost or
        rotten ``raw/`` blob, and a ``preproc/`` blob it cannot derive,
        come from a donor."""
        cluster = self.cluster
        for pid in cluster.replicas.photos_on(store.store_id):
            raw_key = store.objects.raw_key(pid)
            for key in (raw_key, store.objects.preproc_key(pid)):
                if store.objects.exists(key):
                    continue
                if (key != raw_key and self._rederive(store, pid)
                        or self._repair_object(store, key)):
                    report.restored.append((store.store_id, key))
                    self._m_restored.inc(store=store.store_id)
                else:
                    report.unrecoverable.append((store.store_id, key))
                    self._m_unrecoverable.inc(store=store.store_id)
            if not store.has_train_label(pid):
                for _donor, label in self.donors(
                        pid, store.store_id,
                        lambda donor: donor.train_label(pid)):
                    store.set_train_label(pid, label)
                    break

    @staticmethod
    def _rederive(store: PipeStore, pid: str) -> bool:
        """Re-derive ``preproc/<pid>`` from the store's own ``raw/`` blob
        when that blob is there, verifies and parses; False otherwise."""
        raw_key = store.objects.raw_key(pid)
        if not (store.objects.exists(raw_key)
                and store.objects.verify(raw_key)
                and store.objects.derived_preproc(pid) is not None):
            return False
        store.rederive_preprocessed(pid)
        return True

    def _repair_object(self, target: PipeStore, key: str) -> bool:
        """Overwrite one damaged object with a verified replica copy."""
        pid = key.split("/", 1)[1] if "/" in key else key
        if key == target.objects.feature_key(pid):
            # derived and never replicated: the next near-data job
            # recomputes it from preproc/, no donor and no fabric bytes
            target.objects.delete(key)
            return True
        for donor, blobs in self.donors(pid, target.store_id,
                                        verified_copies([key])):
            try:
                self.transfer(donor, target, blobs, "repair")
            except TransientFaultError:
                continue
            return True
        return False

    # -- the donor walk and the transfer ------------------------------------
    def donors(self, pid: str, target: str,
               vouch: Vouch) -> Iterator[Tuple[PipeStore, Any]]:
        """The one donor walk: ``pid``'s holders in replica-map order,
        skipping ``target``, holders gone from the fleet, stores that are
        down and holders that cannot vouch for their copy — ``vouch``
        returns ``None`` or raises a missing/corrupt/unavailable error.
        Yields ``(donor, what it vouched with)``."""
        roster = self.cluster.stores
        for holder in self.cluster.replicas.holders(pid):
            donor = roster.get(holder)
            if holder == target or donor is None or not donor.is_available:
                continue
            try:
                payload = vouch(donor)
            except (CorruptObjectError, MissingObjectError,
                    StoreUnavailableError):
                continue  # this holder cannot vouch for its copy
            if payload is not None:
                yield donor, payload

    def transfer(self, donor: PipeStore, target: PipeStore,
                 blobs: List[Tuple[str, Tuple[bytes, int]]],
                 kind: str) -> int:
        """The one transfer: ``(key, (payload, nominal length))`` pairs
        (``donate_object``'s) cross the fabric as one retried send of
        their summed nominal size under ``kind``, then land on ``target``
        through ``accept_repair``.  Returns the bytes moved; raises
        ``TransientFaultError`` (every retry dropped) or
        ``StoreUnavailableError`` (the target went down)."""
        cluster = self.cluster
        nbytes = sum(nominal for _key, (_payload, nominal) in blobs)
        call_with_retry(
            lambda: cluster.network.send(
                donor.store_id, target.store_id, nbytes, kind),
            cluster.retry)
        for key, (payload, nominal) in blobs:
            target.accept_repair(key, payload, nominal)
        return nbytes
