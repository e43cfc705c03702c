"""Ingest data plane — upload landing, placement, and replication.

Second cut of the ROADMAP item-1 decomposition (the recovery control
plane came first): everything that turns a classified upload into
durable bytes on PipeStores now lives here, behind the same
back-reference shape as :class:`~repro.core.controlplane.
RecoveryControlPlane` — the plane holds ``self.cluster`` and reaches
through it for the fleet, database, replica map, and journal, while
:class:`~repro.core.cluster.NDPipeCluster` keeps thin delegators.

Placement is a policy seam.  :class:`RoundRobinPlacement` reproduces the
historic cursor walk bit-for-bit (the default — single-shard clusters
and their checkpoints are unaffected); :class:`RingPlacement` routes
through a :class:`~repro.placement.ring.ConsistentHashRing` with
bounded-load awareness, which is how the sharded fleet places and how
fresh ingest routes around a store whose link has gone slow (the
round-robin walk's queue-depth fix).  Every placement outcome — a fresh
upload, a re-ingest, a promotion, a migration — is recorded by one
write, :meth:`IngestDataPlane.write_placement`.

The plane also hosts :class:`InferenceServer`, the online front end that
produces the labels ingest makes durable — it moved here from
``cluster.py`` with the rest of the data path.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..faults.errors import TransientFaultError
from ..faults.retry import call_with_retry
from ..models.split import FrozenFront, SplitModel
from ..nn.tensor import Tensor, inference_mode
from ..serving.cache import content_key
from ..storage.imageformat import model_input, quantise
from ..storage.photodb import LabelRecord
from .pipestore import (
    PipeStore,
    StoredPhoto,
    StoreUnavailableError,
    softmax_top1,
)

__all__ = ["InferenceServer", "PendingAnswers", "PendingRow",
           "IngestDataPlane", "RoundRobinPlacement", "RingPlacement"]


class InferenceServer:
    """The online-inference front end: labels uploads, offloads preprocessing."""

    def __init__(self, model: SplitModel, name: str = "inference-server"):
        self.name = name
        #: a frozen replica: serving from the split point keys rows on
        #: its front value's digest
        self.model = model.freeze_features()
        self.model.eval()
        self._failed = False
        #: serving work taken but not yet computed (see :meth:`submit`)
        self._pool: Optional[_FrontPool] = None
        self._owed: List[PendingAnswers] = []

    # -- fault injection ----------------------------------------------------
    @property
    def is_available(self) -> bool:
        return not self._failed

    def fail(self) -> None:
        """Take the front end down (targeted fault injection)."""
        self._failed = True

    def repair(self) -> None:
        """Bring the front end back; its model replica survives."""
        self._failed = False

    def classify(self, pixels: np.ndarray) -> Tuple[int, float]:
        """Label one photo (3, H, W); returns (label, confidence)."""
        return self.classify_preprocessed(
            model_input(quantise(pixels[None])))[0]

    def classify_preprocessed(self, batch: np.ndarray,
                              with_rows: bool = False):
        """Label a batch of already-preprocessed inputs (N, 3, H, W).

        One forward pass for the batch, cut at :attr:`split`:
        ``forward_until`` then ``forward_from``, the arithmetic of the
        whole-model forward, so labels and confidences are its bit for
        bit.  Ingest feeds its chunks through here instead of N
        single-image :meth:`classify` calls; the serving layer serves
        from the split point instead (:meth:`submit`).

        With ``with_rows`` it returns ``(results, rows)``: also the
        batch's split-point rows, one read-only copy taken before the
        tail runs (the front hands the tail a scratch array it may
        overwrite).  Without it, nothing of the front is kept.
        """
        with inference_mode():
            features = self.model.forward_until(Tensor(batch), self.split)
            rows = features.data.copy() if with_rows else None
            logits = self.model.forward_from(features, self.split).data
        results = softmax_top1(logits)
        if rows is None:
            return results
        rows.flags.writeable = False
        return results, rows

    # -- serving from the split point ----------------------------------------
    @property
    def split(self) -> int:
        """The serving cut: every stage before the classifier, the cut
        :class:`~repro.core.ftdmp.FTDMPTrainer` defaults to."""
        return self.model.num_stages - 1

    def front_digest(self) -> bytes:
        """What feature rows at the serving cut are keyed on: the digest
        of the front value the replica holds."""
        return self.model.front.digest

    def check_codes(self, misses: Optional[np.ndarray]) -> None:
        """Raise ``ValueError`` unless ``misses`` is ``None`` or stacks
        8-bit codes (M, C, H, W) of this replica's input shape — what
        :meth:`submit` takes and the serving wire carries."""
        if misses is None:
            return
        shape = (len(misses),) + tuple(self.model.input_shape)
        if misses.dtype != np.uint8 or misses.shape != shape:
            raise ValueError(
                f"{self.name}: misses must be uint8 codes of shape "
                f"(M,) + {tuple(self.model.input_shape)}, got "
                f"{misses.dtype} of shape {misses.shape}")

    def submit(self, misses: Optional[np.ndarray], rows: Sequence,
               flush_at: int,
               ) -> Tuple["PendingAnswers", Optional[List["PendingRow"]]]:
        """Take one logical batch as pending work.

        ``misses`` stacks the 8-bit codes (M, C, H, W) of the photos
        whose feature rows are not cached (``None`` when every row is;
        anything else raises ``ValueError``, see :meth:`check_codes`);
        ``rows[i]`` is request ``i``'s cached row (an array, or a
        :class:`PendingRow` some replica still owes) or the index of its
        codes in ``misses``.  The misses join this replica's front pool,
        which expands them to model inputs
        (:func:`~repro.storage.imageformat.model_input`) only when it
        runs; once the pool holds ``flush_at`` photos the replica
        resolves (:meth:`resolve`), with one ``forward_until`` over every
        pooled input, whose host batch is the model's
        :data:`~repro.models.split.FRONT_ROWS` rows however many are
        pooled.  Returns ``(answers, fresh)``: the
        batch's answers and ``fresh[j]``, the row ``misses[j]`` will
        have — its ``nbytes`` known now from a shape probe, its values
        once the pool runs.
        """
        self.check_codes(misses)
        fresh = None
        if misses is not None:
            if self._pool is None or self._pool.ran:
                self._pool = _FrontPool(self)
            fresh = self._pool.add(misses)
        answers = PendingAnswers(self, [
            fresh[row] if isinstance(row, int) else row for row in rows])
        self._owed.append(answers)
        if self._pool is not None and self._pool.size >= flush_at:
            self.resolve()
        return answers, fresh

    def resolve(self) -> None:
        """Settle every pending batch: the pooled front, then one
        classifier tail per logical batch, over exactly the rows that
        batch stacks — front rows are batch-invariant bit for bit, tail
        rows are not, so the answers are those of a per-batch forward."""
        if self._pool is not None:
            self._pool.run()
            self._pool = None
        owed, self._owed = self._owed, []
        with inference_mode():
            for answers in owed:
                features = np.stack([
                    row if isinstance(row, np.ndarray) else row.value()
                    for row in answers.rows])
                answers.settle(softmax_top1(self.model.forward_from(
                    Tensor(features), self.split).data))

    def row_nbytes(self) -> int:
        """Bytes of one feature row at the serving cut: a shape probe,
        kept with the front value (:attr:`~repro.models.split.FrozenFront.
        rows`), so every replica holding it shares one probe."""
        rows = self.model.front.rows
        key = (self.split, self.model.input_shape)
        if key not in rows:
            probe = np.zeros((1,) + self.model.input_shape, np.float32)
            with inference_mode():
                row = self.model.forward_until(Tensor(probe), self.split).data
            rows[key] = row[0].nbytes
        return rows[key]

    def sync_model(self, state: Dict[str, np.ndarray],
                   front: Optional[FrozenFront] = None) -> None:
        """Load new weights; work dispatched before answers with the old.

        ``front`` is the value ``state``'s front arrays belong to, handed
        over in process (the Tuner passes its own, so a replica follows
        it even onto a restored fleet's other front); without it the
        replica resolves them (:meth:`~repro.models.split.SplitModel.
        adopt`).  A sync that moves only the classifier keeps the front,
        its folds and its digest.
        """
        self.resolve()
        self.model.adopt(state, front)


class PendingRow:
    """A feature row a replica's pooled front still owes.

    ``nbytes`` is known at once (what the wire and the serving cache
    charge); :meth:`value` runs the owing pool if it has not run yet and
    returns the row, read-only, as the cache would have kept it.
    """

    __slots__ = ("_pool", "_value", "nbytes")

    def __init__(self, pool: "_FrontPool", nbytes: int):
        self._pool = pool
        self._value: Optional[np.ndarray] = None
        self.nbytes = nbytes

    def computed(self) -> Optional[np.ndarray]:
        """The row if its pool has run, else ``None`` (never runs it)."""
        return self._value

    def value(self) -> np.ndarray:
        if self._value is None:
            self._pool.run()
        return self._value


class _FrontPool:
    """Misses' 8-bit codes pooled on one replica for its frozen front,
    across logical batches; run once: the codes expanded to model inputs
    together, then one ``forward_until`` over all of them, whose host
    batch is the model's :data:`~repro.models.split.FRONT_ROWS` rows."""

    def __init__(self, server: InferenceServer):
        self.server = server
        self.digest = server.front_digest()
        self.nbytes = server.row_nbytes()
        self.codes: List[np.ndarray] = []
        self.promised: List[PendingRow] = []
        self.ran = False

    @property
    def size(self) -> int:
        return len(self.promised)

    def add(self, misses: np.ndarray) -> List[PendingRow]:
        self._check_front()
        self.codes.append(misses)
        fresh = [PendingRow(self, self.nbytes) for _ in range(len(misses))]
        self.promised += fresh
        return fresh

    def _check_front(self) -> None:
        if self.server.front_digest() != self.digest:
            raise RuntimeError(
                f"{self.server.name}: front weights changed while "
                f"{self.size} pooled misses were pending; their rows would "
                f"come from another front than the one they were keyed on")

    def run(self) -> None:
        if self.ran:
            return
        self._check_front()
        inputs = model_input(np.concatenate(self.codes))
        with inference_mode():
            rows = self.server.model.forward_until(
                Tensor(inputs), self.server.split).data
        for promise, row in zip(self.promised, rows):
            # a copy, not a view: a cached row must not pin the pool's rows
            promise._value = row.copy()
            promise._value.flags.writeable = False
            promise._pool = None
        self.codes, self.promised, self.ran = [], [], True


class PendingAnswers:
    """One logical batch's ``(label, confidence)`` per request, owed by
    its replica until that replica resolves; reading them resolves it."""

    __slots__ = ("_server", "rows", "_results")

    def __init__(self, server: InferenceServer, rows: List):
        self._server = server
        #: the batch's feature rows in request order (arrays or promises)
        self.rows = rows
        self._results: Optional[List[Tuple[int, float]]] = None

    def settle(self, results: List[Tuple[int, float]]) -> None:
        self._results, self.rows = results, []

    def results(self) -> List[Tuple[int, float]]:
        if self._results is None:
            self._server.resolve()
        return self._results

    def __len__(self) -> int:
        return len(self.rows) if self._results is None else len(self._results)


class RoundRobinPlacement:
    """The historic placement: a cursor walk that skips failed servers.

    Candidate order, cursor advancement, and failure behaviour are
    exactly the pre-refactor cluster-level placement, so single-shard
    checkpoints (which persist the cursor) and the even/odd placement
    tests stay bit-identical.
    """

    def __init__(self, plane: "IngestDataPlane"):
        # weak: the plane holds its placement policy
        self._plane = weakref.ref(plane)

    @property
    def plane(self) -> "IngestDataPlane":
        return self._plane()

    def candidates(self, photo_id: str) -> Iterator[PipeStore]:
        for _ in range(len(self.plane.stores)):
            yield self.plane.next_available_store()

    def replica_candidates(self, photo_id: str,
                           taken: Sequence[str]) -> Iterator[PipeStore]:
        """Replica order: the fleet walked from the round-robin cursor."""
        plane = self.plane
        order = plane.stores[plane.rr_next:] + plane.stores[:plane.rr_next]
        for store in order:
            if store.store_id not in taken and store.is_available:
                yield store


class RingPlacement:
    """Consistent-hash placement with bounded-load routing.

    Both orders come from one successor lookup each: the photo's distinct
    ring successors, clockwise, filtered to the stores that are up.  The
    first candidate is the bounded-load choice among them (:meth:`~repro.
    placement.ring.ConsistentHashRing.within_bound`) — a shard whose
    observed ingest queue (placements plus injected transfer latency)
    exceeds :data:`~repro.placement.ring.LOAD_FACTOR` x the fleet mean
    is skipped for its ring successor.  Fallback candidates on write
    failure are the remaining successors in clockwise order, so retries
    stay deterministic.
    """

    def __init__(self, plane: "IngestDataPlane", ring):
        # weak: the plane holds its placement policy
        self._plane = weakref.ref(plane)
        self.ring = ring

    @property
    def plane(self) -> "IngestDataPlane":
        return self._plane()

    def _live_successors(self, photo_id: str) -> List[str]:
        stores = self.plane.stores
        return [shard for shard
                in self.ring.replica_set(photo_id, len(self.ring))
                if stores[shard].is_available]

    def candidates(self, photo_id: str) -> Iterator[PipeStore]:
        plane = self.plane
        live = self._live_successors(photo_id)
        if not live:
            return  # place_photo turns "nobody accepted" into its typed error
        first = self.ring.within_bound(live, plane.queue_depth)
        # a skip is the first *available* successor passed over for load;
        # routing around a down primary is not one
        if first != live[0] and plane.metrics_load_skips is not None:
            plane.metrics_load_skips.inc()
        yield plane.stores[first]
        for shard in live:
            if shard != first:
                yield plane.stores[shard]

    def replica_candidates(self, photo_id: str,
                           taken: Sequence[str]) -> Iterator[PipeStore]:
        """Replica order: the photo's ring successors, clockwise.

        Matches :meth:`~repro.placement.ring.ConsistentHashRing.
        replica_set`, so as long as the primary was not load-diverted the
        holder set is exactly the ring's desired set and a later
        membership change migrates only the keyspace that actually moved.
        """
        for shard in self._live_successors(photo_id):
            if shard not in taken:
                yield self.plane.stores[shard]


class IngestDataPlane:
    """Owns upload landing: ids, placement, replication, journalling."""

    @property
    def cluster(self):
        """The cluster this plane serves."""
        return self._cluster()

    def __init__(self, cluster):
        # weak: the cluster holds this plane, so a dropped cluster is
        # freed by reference counting
        self._cluster = weakref.ref(cluster)
        self.ingest_counter = 0
        self.rr_next = 0
        self.placement = RoundRobinPlacement(self)
        #: observed ingest work per store: 1 unit per landed object plus
        #: ``latency_penalty`` units per second of injected transfer
        #: latency — the queue-depth signal behind load-aware placement
        self.latency_penalty = 8.0
        self._load: Dict[str, float] = {}
        #: optional hook for shard_load_skips_total (bound by the fleet;
        #: None on single-shard clusters so their metric surface is
        #: unchanged)
        self.metrics_load_skips = None
        metrics = cluster.metrics
        self._m_ingested = metrics.counter(
            "cluster_photos_ingested_total",
            "photos accepted by ingest").labels()
        # one child per store, bound on its first replica
        self._m_replicas_placed = metrics.counter(
            "durability_replicas_placed_total",
            "replica copies landed per store",
            label_names=("store",)).by_labels()
        self._m_underreplicated = metrics.counter(
            "durability_underreplicated_total",
            "ingests that could not reach the configured replica count")

    # -- fleet views ---------------------------------------------------------
    @property
    def stores(self):  # the cluster's StoreRoster, live
        return self.cluster.stores

    def queue_depth(self, store_id: str) -> float:
        """Observed ingest backlog of one store, in object-equivalents."""
        return self._load.get(store_id, 0.0)

    def loads(self) -> Dict[str, float]:
        return dict(self._load)

    # -- the ingest body ----------------------------------------------------
    def ingest(self, images: np.ndarray,
               train_labels: Optional[Sequence[int]] = None,
               admit: Optional[Callable[[np.ndarray], bool]] = None,
               id_prefix: str = "") -> Iterator[str]:
        """Upload photos (N, 3, H, W in [0, 1]); yields each id as it lands.

        The one ingest body behind both clusters: offer every photo to
        ``admit`` in order, collect the admitted ones into chunks of
        ``config.batch_size``, one pass through the front door
        (:func:`~repro.storage.imageformat.quantise`) and one forward per
        chunk, land the chunk's codes in order.  The stored codes are
        what a per-photo pass yields (the rounding is elementwise);
        confidences can differ in the last ulps from batch-1 forwards
        because a batch-N GEMM reduces differently.  If landing raises,
        the ids yielded so far are exactly the photos made durable — a
        caller that charged for admission settles the rest.
        """
        if images.ndim != 4:
            raise ValueError(f"expected (N, 3, H, W) images, got {images.shape}")
        if train_labels is not None and len(train_labels) != len(images):
            raise ValueError("train_labels length mismatch")
        server = self.cluster.inference_server
        chunk_size = self.cluster.config.batch_size
        rows: List[int] = []
        for row in range(len(images)):
            if admit is None or admit(images[row]):
                rows.append(row)
            if len(rows) < chunk_size and (row + 1 < len(images) or not rows):
                continue  # chunk still filling, or nothing admitted at the end
            codes = quantise(images[rows])
            results, features = server.classify_preprocessed(
                model_input(codes), with_rows=True)
            held = server.model.front.held
            for at, photo_codes, feature, (label, confidence) in zip(
                    rows, codes, features, results):
                photo_id = self.land_upload(
                    photo_codes, label, confidence,
                    None if train_labels is None else int(train_labels[at]),
                    id_prefix)
                held[content_key(photo_codes)] = feature
                yield photo_id
            rows = []

    # -- upload landing -----------------------------------------------------
    def land_upload(self, codes: np.ndarray, label: int, confidence: float,
                    train_label: Optional[int], id_prefix: str = "") -> str:
        """Make one classified upload durable from its 8-bit codes:
        placement, database record, replica copies, and the recovery
        journal.  Shared by the synchronous ingest path and the batched
        serving layer, which lands the codes its batch already produced;
        the sharded fleet's ``id_prefix`` qualifies the id with the
        tenant."""
        cluster = self.cluster
        photo_id = f"{id_prefix}photo-{self.ingest_counter:08d}"
        self.ingest_counter += 1
        photo = StoredPhoto(photo_id=photo_id, codes=codes,
                            train_label=train_label)
        holders = [self.place_photo(photo).store_id]
        holders += self.place_replicas(photo, exclude=holders)
        self.write_placement(LabelRecord(
            photo_id=photo_id, label=label,
            model_version=cluster.tuner.version,
            location=holders[0], confidence=confidence,
        ), holders)
        if len(holders) < cluster.replication:
            self._m_underreplicated.inc()
        cluster.control.journal_put(photo_id, codes, train_label)
        self._m_ingested.inc()
        return photo_id

    def write_placement(self, record: LabelRecord,
                        holders: Sequence[str]) -> None:
        """The one placement write: ``record`` (label, model version,
        confidence) is stored at ``holders[0]`` and the replica map
        becomes ``holders``, together."""
        cluster = self.cluster
        cluster.database.upsert(replace(record, location=holders[0]))
        cluster.replicas.place(record.photo_id, holders)

    def place_photo(self, photo: StoredPhoto, kind: str = "ingest",
                    ) -> PipeStore:
        """Land one photo (raw blob + offloaded preprocessed binary) on an
        available store, riding the retry policy around dropped transfers
        and stores that crash between selection and write."""
        cluster = self.cluster
        last_error: Optional[BaseException] = None
        for store in self.placement.candidates(photo.photo_id):
            try:
                stored_bytes = store.store_photo(photo)
            except StoreUnavailableError as exc:
                last_error = exc
                continue
            delay_before = cluster.network.injected_latency_s
            try:
                call_with_retry(
                    lambda: cluster.network.send(
                        cluster.inference_server.name, store.store_id,
                        stored_bytes, kind),
                    cluster.retry)
            except TransientFaultError as exc:
                # placement never became durable-and-acknowledged; undo and
                # try the next store
                store.evict_photo(photo.photo_id)
                last_error = exc
                continue
            self._note_placement(
                store.store_id,
                cluster.network.injected_latency_s - delay_before)
            return store
        raise StoreUnavailableError(
            f"no PipeStore accepted {photo.photo_id}"
        ) from last_error

    def _note_placement(self, store_id: str, delay_s: float) -> None:
        self._load[store_id] = (self._load.get(store_id, 0.0) + 1.0
                                + self.latency_penalty * max(0.0, delay_s))

    def place_replicas(self, photo: StoredPhoto,
                       exclude: Sequence[str]) -> List[str]:
        """Land up to ``replication - 1`` extra copies on distinct stores.

        Placement is best-effort: a fleet with too few healthy stores
        leaves the photo under-replicated (counted in the metrics) rather
        than failing the ingest — the primary copy is already durable.
        """
        cluster = self.cluster
        placed: List[str] = []
        if cluster.replication <= 1:
            return placed
        taken = set(exclude)
        for store in self.placement.replica_candidates(
                photo.photo_id, taken):
            if len(placed) >= cluster.replication - 1:
                break
            if store.store_id in taken or not store.is_available:
                continue
            try:
                stored_bytes = store.store_photo(photo)
                call_with_retry(
                    lambda s=store, b=stored_bytes: cluster.network.send(
                        cluster.inference_server.name, s.store_id, b,
                        "replicate"),
                    cluster.retry)
            except (StoreUnavailableError, TransientFaultError):
                if store.objects.exists(store.objects.raw_key(photo.photo_id)):
                    store.evict_photo(photo.photo_id)
                continue
            placed.append(store.store_id)
            taken.add(store.store_id)
            self._m_replicas_placed[store.store_id].inc()
        return placed

    def next_available_store(self) -> PipeStore:
        """Round-robin placement that routes around failed servers."""
        for _ in range(len(self.stores)):
            store = self.stores[self.rr_next]
            self.rr_next = (self.rr_next + 1) % len(self.stores)
            if store.is_available:
                return store
        raise StoreUnavailableError("no PipeStore is available for ingest")
