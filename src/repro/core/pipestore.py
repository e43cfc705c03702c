"""PipeStore — a storage server with a commodity accelerator (§5).

A PipeStore stores photos (raw blob + deflate-compressed preprocessed
binary, §5.4), holds a replica of the weight-freeze model front, and runs
the two near-data jobs: feature extraction for FT-DMP fine-tuning and
whole-model offline inference.  Model updates arrive as Check-N-Run deltas;
installs and resyncs carry the classifier and a fingerprint of the frozen
front, which the store checks against the front value it holds.  The
front is frozen, so each photo's split-point feature is kept as a third,
derived object and the front runs once per (photo, front) — in the
process, once per photo: a store's first extraction takes the row
ingest computed when it classified the upload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..durability.integrity import ScrubReport
from ..faults.errors import StaleEpochError
from ..lint.contracts import fenced_by
from ..models.split import SplitModel
from ..nn.tensor import Tensor, inference_mode
from ..obs.metrics import MetricsRegistry
from ..serving.cache import content_key
from ..storage.compression import CODES, deflate, inflate
from ..storage.imageformat import (
    decode_preprocessed,
    decode_preprocessed_into,
    encode_codes,
    encode_photo,
    stored_codes,
)
from ..storage.objectstore import CorruptObjectError, MissingObjectError, ObjectStore
from . import checknrun
from .ftdmp import RowKey, frozen_front_features


def softmax_top1(logits: np.ndarray) -> List[Tuple[int, float]]:
    """Per row of (N, classes) logits: (argmax label, its softmax confidence)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    labels = probs.argmax(axis=-1)
    return [(int(label), float(probs[row, label]))
            for row, label in enumerate(labels)]


#: ``feat/<id>`` header: what the row was computed from — the front's
#: digest and the stored CRC32 of the ``preproc/`` blob — then dtype and
#: ndim; ``ndim`` uint32 dims and the row's raw bytes follow.  Not
#: deflated: a per-row deflate on every miss and inflate on every hit is
#: the CPU time the object exists to save
_FEATURE_HEAD = struct.Struct("<16sI3sB")


def _pack_feature(digest: bytes, preproc_crc: int, row: np.ndarray) -> bytes:
    return b"".join((
        _FEATURE_HEAD.pack(digest, preproc_crc, row.dtype.str.encode(),
                           row.ndim),
        struct.pack(f"<{row.ndim}I", *row.shape), row.tobytes()))


def _unpack_feature(blob: bytes, digest: bytes,
                    preproc_crc: int) -> Optional[np.ndarray]:
    """The stored row (a read-only view), or ``None`` when it was computed
    by another front or from another ``preproc/`` blob."""
    made_by, made_from, dtype, ndim = _FEATURE_HEAD.unpack_from(blob)
    if (made_by, made_from) != (digest, preproc_crc):
        return None
    shape = struct.unpack_from(f"<{ndim}I", blob, _FEATURE_HEAD.size)
    return np.frombuffer(blob, dtype.decode(),
                         offset=_FEATURE_HEAD.size + 4 * ndim).reshape(shape)


class StoreUnavailableError(RuntimeError):
    """Raised when a job is dispatched to a failed PipeStore."""


@dataclass(frozen=True)
class StoredPhoto:
    """What ingestion hands a PipeStore for one photo."""

    photo_id: str
    #: (3, H, W) uint8: the upload through the front door
    #: (:func:`~repro.storage.imageformat.quantise`)
    codes: np.ndarray
    train_label: Optional[int] = None  # supervision (user tags), if any
    #: the encoded forms, produced once per upload: every replica puts
    #: the same immutable bytes
    _encoded: Dict[str, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def raw_payload(self) -> bytes:
        """The synthetic JPEG's payload; each store accounts it at its
        own nominal photo size (the zeros are never held)."""
        if "raw" not in self._encoded:
            self._encoded["raw"] = encode_photo(self.codes)
        return self._encoded["raw"]

    def preprocessed_blob(self) -> bytes:
        """The ``preproc/`` blob (§5.4): the codes, which inflate into
        the preprocessed fp32 binary."""
        if "preprocessed" not in self._encoded:
            self._encoded["preprocessed"] = deflate(
                encode_codes(self.codes), CODES)
        return self._encoded["preprocessed"]


#: accounted accelerator seconds per image at slowdown 1.0 — the fabric
#: accounts bytes instead of moving packets; PipeStores likewise account
#: nominal compute seconds so degraded-fleet benchmarks have a clock
NOMINAL_SECONDS_PER_IMAGE = 1e-3


@fenced_by("_fence", "model", "split", "model_version")
class PipeStore:
    """One computational storage server.

    The model replica is epoch-fenced state: every mutation of
    ``model``/``split``/``model_version`` must sit behind a
    :meth:`_fence` check (the :class:`~repro.faults.errors.StaleEpochError`
    split-brain guard), and ND007 proves the dominance on every path —
    a deposed primary's update cannot reach the replica even on a
    branch no chaos test happens to execute.
    """

    def __init__(self, store_id: str, nominal_raw_bytes: int = 8192,
                 batch_size: int = 128):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.store_id = store_id
        self.objects = ObjectStore(name=store_id)
        self.batch_size = batch_size
        self.nominal_raw_bytes = nominal_raw_bytes
        self.model: Optional[SplitModel] = None
        self.model_version = -1
        #: highest Tuner epoch whose updates this store has accepted —
        #: the fencing token that keeps a deposed primary from writing
        self.accepted_epoch = 0
        self.split: int = 0
        self._train_labels: Dict[str, int] = {}
        self._failed = False
        #: accelerator degradation factor (fault injection); 1.0 = healthy
        self.slowdown = 1.0
        #: accounted accelerator busy seconds across near-data jobs
        self.busy_seconds = 0.0
        self._metrics: Optional[MetricsRegistry] = None

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Report storage and near-data-job activity into a registry,
        every family bound to this store once, here."""
        self._metrics = metrics
        self._m_stored = metrics.counter(
            "pipestore_photos_stored_total", "photos ingested per store",
            label_names=("store",)).labels(store=self.store_id)
        self._m_stored_bytes = metrics.counter(
            "pipestore_bytes_stored_total",
            "raw + preprocessed bytes persisted per store",
            label_names=("store",)).labels(store=self.store_id)
        self._m_evicted = metrics.counter(
            "pipestore_photos_evicted_total",
            "photos dropped after re-placement elsewhere",
            label_names=("store",)).labels(store=self.store_id)
        self._m_extracted = metrics.counter(
            "pipestore_features_extracted_total",
            "split-point features delivered (FT-DMP Store stage)",
            label_names=("store",)).labels(store=self.store_id)
        self._m_relabelled = metrics.counter(
            "pipestore_photos_relabelled_total",
            "images relabelled by whole-model offline inference",
            label_names=("store",)).labels(store=self.store_id)
        self._m_feature_hits = metrics.counter(
            "pipestore_feature_hits_total",
            "features read back from their stored feat/ object",
            label_names=("store",)).labels(store=self.store_id)
        self._m_feature_misses = metrics.counter(
            "pipestore_feature_misses_total",
            "features with no stored feat/ row: a front row, computed or "
            "taken from ingest, stored",
            label_names=("store",)).labels(store=self.store_id)
        self._m_feature_reused = metrics.counter(
            "pipestore_feature_rows_reused_total",
            "feature misses that took the row ingest computed instead of "
            "running the front",
            label_names=("store",)).labels(store=self.store_id)
        updates = metrics.counter(
            "pipestore_model_updates_total",
            "model replica updates applied, by mechanism",
            label_names=("store", "mechanism"))
        self._m_full_updates = updates.labels(store=self.store_id,
                                              mechanism="full")
        self._m_delta_updates = updates.labels(store=self.store_id,
                                               mechanism="delta")
        self._m_busy = metrics.counter(
            "pipestore_busy_seconds_total",
            "accounted accelerator seconds per store",
            label_names=("store",)).labels(store=self.store_id)
        self._m_scrubbed = metrics.counter(
            "pipestore_objects_scrubbed_total",
            "objects CRC-checked by scrub passes",
            label_names=("store",)).labels(store=self.store_id)
        self._m_corrupt = metrics.counter(
            "pipestore_corrupt_objects_total",
            "objects a scrub found failing their CRC32",
            label_names=("store",)).labels(store=self.store_id)

    def _count(self, counter_name: str, amount: float = 1.0) -> None:
        if self._metrics is not None:
            getattr(self, counter_name).inc(amount)

    # -- fault injection ----------------------------------------------------
    @property
    def is_available(self) -> bool:
        return not self._failed

    def fail(self) -> None:
        """Take the server down (fault injection for resilience tests)."""
        self._failed = True

    def repair(self) -> None:
        """Bring the server back; its storage and model replica survive."""
        self._failed = False

    def _require_available(self) -> None:
        if self._failed:
            raise StoreUnavailableError(f"{self.store_id} is down")

    # -- storage path -------------------------------------------------------
    def store_photo(self, photo: StoredPhoto) -> int:
        """Persist raw blob + compressed preprocessed binary; returns bytes."""
        self._require_available()
        raw_key = self.objects.raw_key(photo.photo_id)
        pre_blob = photo.preprocessed_blob()
        self.objects.put(raw_key, photo.raw_payload(), self.nominal_raw_bytes)
        self.objects.put(self.objects.preproc_key(photo.photo_id), pre_blob)
        self._discard(self.objects.feature_key(photo.photo_id))
        if photo.train_label is not None:
            self._train_labels[photo.photo_id] = photo.train_label
        stored = self.objects.size_of(raw_key) + len(pre_blob)
        self._count("_m_stored")
        self._count("_m_stored_bytes", stored)
        return stored

    def load_preprocessed(self, photo_id: str) -> np.ndarray:
        """Read + inflate + decode one preprocessed binary."""
        blob = self.objects.get(self.objects.preproc_key(photo_id))
        return decode_preprocessed(inflate(blob))

    def photo_ids(self) -> List[str]:
        return self.objects.photo_ids()

    def labeled_photo_ids(self) -> List[str]:
        return sorted(self._train_labels)

    def has_train_label(self, photo_id: str) -> bool:
        return photo_id in self._train_labels

    def train_labels(self) -> Dict[str, int]:
        """A copy of every training label (checkpoint / repair donor)."""
        return dict(self._train_labels)

    def set_train_label(self, photo_id: str, label: int) -> None:
        """Reinstate one training label (restore / replication repair)."""
        self._train_labels[photo_id] = int(label)

    def train_label(self, photo_id: str) -> int:
        try:
            return self._train_labels[photo_id]
        except KeyError:
            raise MissingObjectError(
                f"{photo_id} has no training label on {self.store_id}"
            ) from None

    def evict_photo(self, photo_id: str) -> None:
        """Drop one photo's blobs, derived feature and label (after
        re-placement elsewhere: the receiver recomputes the feature)."""
        for key in (self.objects.raw_key(photo_id),
                    self.objects.preproc_key(photo_id),
                    self.objects.feature_key(photo_id)):
            self._discard(key)
        self._train_labels.pop(photo_id, None)
        self._count("_m_evicted")

    def _discard(self, key: str) -> None:
        if self.objects.exists(key):
            self.objects.delete(key)

    # -- durability ----------------------------------------------------------
    def scrub(self, memo: Optional[dict] = None) -> ScrubReport:
        """CRC-sweep every stored object; report what rotted.

        Reads go through the unaccounted ``peek`` path, so a scrub never
        perturbs the workload IO counters the experiments assert on.
        Stores scrubbed in one pass share ``memo`` (:meth:`~repro.
        storage.objectstore.ObjectStore.derived_preproc`).
        """
        self._require_available()
        report = ScrubReport(store_id=self.store_id)
        for key in self.objects.keys():
            report.objects_checked += 1
            if not self.objects.verify(key):
                report.corrupt_keys.append(key)
        # a preproc/ blob derives from its photo's codes: one that is
        # CRC-clean but disagrees with this store's clean raw/ blob is
        # damage its own CRC was written over; a CRC-clean raw/ blob that
        # does not parse is damaged itself
        rotten = set(report.corrupt_keys)
        for pid in self.objects.photo_ids():
            key = self.objects.preproc_key(pid)
            raw_key = self.objects.raw_key(pid)
            if (not self.objects.exists(key) or key in rotten
                    or raw_key in rotten):
                continue
            derived = self.objects.derived_preproc(pid, memo)
            if derived is None:
                report.corrupt_keys.append(raw_key)
            # ndlint: allow[ND002] -- scrub reads are maintenance traffic
            elif self.objects.peek(key) != derived:
                report.underived_keys.append(key)
        self._count("_m_scrubbed", report.objects_checked)
        damaged = len(report.corrupt_keys) + len(report.underived_keys)
        if damaged:
            self._count("_m_corrupt", damaged)
        return report

    def rederive_preprocessed(self, photo_id: str) -> None:
        """Overwrite ``preproc/<id>`` with the blob this store's ``raw/``
        derives: a repair that needs no donor and moves no bytes."""
        self._require_available()
        self.objects.put(self.objects.preproc_key(photo_id),
                         self.objects.derived_preproc(photo_id))
        self._discard(self.objects.feature_key(photo_id))

    def donate_object(self, key: str) -> Tuple[bytes, int]:
        """Serve a verified copy of one object for replication repair, as
        ``(payload, nominal length)``: the zero tail travels as a number.

        Raises :class:`~repro.storage.objectstore.CorruptObjectError` if
        this replica is itself rotten — repair then tries the next holder.
        """
        self._require_available()
        # ndlint: allow[ND002] -- repair donor reads are maintenance traffic
        return self.objects.peek_payload(key, verify=True)

    def accept_repair(self, key: str, blob: bytes, nominal: int = 0) -> None:
        """Overwrite one object with a healthy donor copy (fresh CRC):
        ``blob`` zero-extended to ``nominal`` bytes."""
        self._require_available()
        self.objects.put(key, blob, nominal)

    # -- model management ----------------------------------------------------
    def _fence(self, epoch: int) -> None:
        """Reject updates from a deposed primary (split-brain guard)."""
        if epoch < self.accepted_epoch:
            raise StaleEpochError(
                f"{self.store_id}: update stamped epoch {epoch} but this "
                f"store already accepted epoch {self.accepted_epoch}"
            )
        self.accepted_epoch = epoch

    def install_model(self, sync: checknrun.ReplicaSync, version: int,
                      epoch: int = 0,
                      base: Optional[SplitModel] = None) -> None:
        """Bring the replica to a published state: the one receiver of
        installs and resyncs.

        ``base`` is this store's replica, given on its first install (by
        default the fleet provisions it from the published front:
        :meth:`~repro.core.cluster.NDPipeCluster.join_store`).  Later
        syncs update the replica in place.  A tail sync is taken only by
        a replica whose front has the sync's fingerprint; any other
        refuses it with :class:`~repro.core.checknrun.BaseMismatchError`,
        unchanged, and the sender falls back to a whole sync.  A taken
        sync leaves the replica holding the published front value the
        sync hands over in process — by reference, so the process holds
        one front however many stores hold it — and a private copy of
        the published classifier.
        """
        model = self.model if base is None else base
        if model is None:
            raise RuntimeError(f"{self.store_id}: no model installed yet")
        if not 0 <= sync.split <= model.num_stages:
            raise ValueError(f"split {sync.split} out of range")
        self._fence(epoch)
        model.freeze_features()
        if sync.fingerprint is not None:
            held = model.front.digest[:checknrun.FINGERPRINT_BYTES]
            if held != sync.fingerprint:
                raise checknrun.BaseMismatchError(
                    f"{self.store_id}: front fingerprint {held.hex()}, the "
                    f"sync expects {sync.fingerprint.hex()}")
        model.adopt(sync.tensors, sync.front)
        model.eval()
        self.model = model
        self.split = sync.split
        self.model_version = version
        if self._metrics is not None:
            self._m_full_updates.inc()

    def apply_model_delta(self, blob: bytes, version: int,
                          epoch: int = 0) -> None:
        """Apply a Check-N-Run delta to the local replica.

        Only the tensors the delta changes are loaded: a classifier-only
        delta leaves the front value, its folds and its digest as they
        are, so ``feat/`` rows hit without re-hashing anything; a delta
        that rewrites front arrays rebinds the replica to another value
        (:meth:`~repro.models.split.SplitModel.adopt`).
        """
        if self.model is None:
            raise RuntimeError(f"{self.store_id}: no model installed yet")
        self._fence(epoch)
        if version <= self.model_version:
            raise ValueError(
                f"{self.store_id}: delta v{version} not newer than "
                f"v{self.model_version}"
            )
        self.model.adopt(
            checknrun.changed_tensors(self.model.state_dict(), blob))
        self.model_version = version
        if self._metrics is not None:
            self._m_delta_updates.inc()

    # -- near-data jobs --------------------------------------------------------
    def row_keys(self, photo_ids: Sequence[str]) -> List[RowKey]:
        """What each photo's split-point row is made from: this replica's
        front digest at its split and the stored CRC of the photo's
        ``preproc/`` blob — the ``feat/`` header's key.  A row is a
        function of the two, so a reader holding a row under a matching
        key holds the row this store would compute."""
        self._require_available()
        self._require_model()
        objects = self.objects
        digest = self.model.front.digest_at(self.split)
        return [(digest, objects.stored_crc(objects.preproc_key(pid)))
                for pid in photo_ids]

    def extract_features(self, photo_ids: Sequence[str]) -> np.ndarray:
        """The Store-stage of FT-DMP: split-point features of local data."""
        features = self._features(photo_ids)
        self._count("_m_extracted", len(photo_ids))
        return features

    def offline_infer(self, photo_ids: Sequence[str]) -> Dict[str, Tuple[int, float]]:
        """Whole-model inference over local photos; returns id -> (label, conf)."""
        features = self._features(photo_ids)
        results: Dict[str, Tuple[int, float]] = {}
        with inference_mode():
            for start in range(0, len(features), self.batch_size):
                stop = start + self.batch_size
                logits = self.model.forward_from(
                    Tensor(features[start:stop]), self.split).data
                results.update(zip(photo_ids[start:stop],
                                   softmax_top1(logits)))
        self._count("_m_relabelled", len(photo_ids))
        return results

    # -- internals ----------------------------------------------------------
    def _features(self, photo_ids: Sequence[str]) -> np.ndarray:
        """``forward_until(split)`` of local photos, one row each.

        The front is frozen, so a row is a function of the front and the
        ``preproc/`` blob: rows whose ``feat/`` header names both are read
        back; the rest — and only they — are misses: each takes the row
        ingest left for it or runs the front (:meth:`_miss_rows`), and
        every miss is accounted as compute and stored for the next call.
        """
        keys = self.row_keys(photo_ids)
        if not photo_ids:
            raise ValueError("no photo ids given")
        objects = self.objects
        features, misses = None, []
        for row, (pid, key) in enumerate(zip(photo_ids, keys)):
            try:
                stored = _unpack_feature(
                    objects.get(objects.feature_key(pid)), *key)
            except (MissingObjectError, CorruptObjectError):
                stored = None  # recomputable: absent or rotted is a miss
            if stored is None:
                misses.append(row)
                continue
            if features is None:
                features = np.empty((len(photo_ids),) + stored.shape,
                                    stored.dtype)
            features[row] = stored
        if misses:
            computed = self._miss_rows([photo_ids[row] for row in misses])
            for row, feature in zip(misses, computed):
                objects.put(objects.feature_key(photo_ids[row]),
                            _pack_feature(*keys[row], feature))
            if features is None:
                features = computed
            else:
                features[misses] = computed
            self._account_compute(len(misses))
        self._count("_m_feature_hits", len(photo_ids) - len(misses))
        self._count("_m_feature_misses", len(misses))
        return features

    def _miss_rows(self, photo_ids: Sequence[str]) -> np.ndarray:
        """``forward_until(split)`` of local photos with no stored row.

        Ingest leaves the rows it computed on the front value
        (:attr:`~repro.models.split.FrozenFront.held`, at the value's own
        cut), keyed on the content of each photo's 8-bit codes: a row
        is a function of the two, so a photo held there is taken (and
        leaves the value) instead of run again.  Only the host saves
        the pass; the caller counts a taken row as the miss it is.  Each
        ``preproc/`` blob is read once: a row not taken decodes the
        bytes its content key was read from.
        """
        front, objects = self.model.front, self.objects
        if not front.held or self.split != len(front.stages):
            return frozen_front_features(self.model, self.split,
                                         self._load_batch(photo_ids))
        taken: Dict[int, np.ndarray] = {}
        untaken: Dict[int, bytes] = {}
        for index, pid in enumerate(photo_ids):
            blob = objects.get(objects.preproc_key(pid))
            try:
                codes = stored_codes(blob)
            except ValueError:  # an older frame kind: the front reads it
                untaken[index] = blob
                continue
            row = front.held.pop(content_key(codes), None)
            if row is None:
                untaken[index] = blob
            else:
                taken[index] = row
        if untaken:
            computed = frozen_front_features(self.model, self.split, np.stack(
                [decode_preprocessed(inflate(blob))
                 for blob in untaken.values()]))
            if not taken:
                return computed
        self._count("_m_feature_reused", len(taken))
        first = next(iter(taken.values()))
        rows = np.empty((len(photo_ids),) + first.shape, first.dtype)
        for index, row in taken.items():
            rows[index] = row
        if untaken:
            rows[list(untaken)] = computed
        return rows

    def _account_compute(self, num_images: int) -> None:
        seconds = num_images * NOMINAL_SECONDS_PER_IMAGE * self.slowdown
        self.busy_seconds += seconds
        self._count("_m_busy", seconds)

    def _require_model(self) -> None:
        if self.model is None:
            raise RuntimeError(f"{self.store_id}: no model installed")

    def _load_batch(self, photo_ids: Sequence[str]) -> np.ndarray:
        # decode straight into one preallocated (N, C, H, W) array: one
        # payload copy per photo instead of decode + copy + np.stack
        first = self.load_preprocessed(photo_ids[0])
        out = np.empty((len(photo_ids),) + first.shape, dtype=first.dtype)
        out[0] = first
        for row, pid in enumerate(photo_ids[1:], start=1):
            blob = self.objects.get(self.objects.preproc_key(pid))
            decode_preprocessed_into(inflate(blob), out[row])
        return out
