"""FT-DMP: fine-tuning-based data & model parallelism (§5.1-§5.2), runnable.

The strategy: replicate the weight-freeze front of the model on PipeStores
(forward only — identical to inference), keep every trainable layer on the
Tuner.  PipeStores extract features for their local batches; the Tuner
trains the tail on those features.  No weight synchronisation ever crosses
the network because all updates happen in one place.

This module executes the strategy for real on the numpy substrate:
features are genuinely extracted by the frozen front, the classifier is
genuinely trained with SGD/Adam, and pipelined training (``num_runs > 1``)
genuinely trains run-by-run over sub-datasets — so catastrophic forgetting
at large ``num_runs`` (Fig. 17) is an emergent behaviour, not a formula.

Rows cross the Store -> Tuner hop as :class:`FeatureRows`, quantised to
:data:`~repro.core.checknrun.FEATURE_BITS` per element with a float32
``(low, step)`` per row, and the tail trains on the decoded rows — what
the channel delivers.  The single-host trainer passes its rows through
the same codec, so distributed and single-host learning stay equal.
The front is frozen, so a row the Tuner received stays valid while what
it was made from does: the Tuner keeps each photo's wire record in a
:class:`RowStore` and is shipped only new or re-keyed rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..data.loader import batch_iter, split_rounds
from ..models.split import SplitModel
from ..nn.losses import cross_entropy
from ..nn.optim import Adam, Optimizer, SGD
from ..nn.tensor import Tensor, inference_mode
from .checknrun import FEATURE_BITS, code_dtype, dequantize, quantize

#: what a feature row is made from: the front's digest at the split and
#: the stored CRC32 of the photo's ``preproc/`` blob (the ``feat/``
#: header's key)
RowKey = Tuple[bytes, int]


def frozen_front_features(model: SplitModel, split: int,
                          x: np.ndarray) -> np.ndarray:
    """``model.forward_until(x, split)`` over the whole of ``x``.

    Forward only (:func:`inference_mode`), so the front's host batch is
    :data:`~repro.models.split.FRONT_ROWS` rows: the model runs it that
    many at a time, into one preallocated result array.
    """
    if not len(x):
        raise ValueError("no inputs to extract features from")
    with inference_mode():
        return model.forward_until(Tensor(x), split).data


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """A batch of feature rows as it crosses the Store -> Tuner hop.

    Each row (one photo's features, flattened) is :data:`FEATURE_BITS`
    codes per element plus its own float32 ``(low, step)`` scale
    (:func:`~repro.core.checknrun.quantize`): a row's codes depend on
    that row alone, so a photo's delivered row is the same whichever
    store, run or batch ships it.  On the wire a row is one record
    ``low | step | codes`` (little-endian), so the fabric charges
    :meth:`wire_size` = rows x (8 + elements) bytes; the row shape is
    the split's, known to both ends, and is not sent.
    """

    codes: np.ndarray
    low: np.ndarray
    step: np.ndarray
    row_shape: Tuple[int, ...]

    @classmethod
    def encode(cls, rows: np.ndarray) -> "FeatureRows":
        """Quantise ``rows`` (one per photo along the first axis)."""
        codes, low, step = quantize(rows.reshape(len(rows), -1),
                                    FEATURE_BITS, scale=np.float32)
        return cls(codes, low, step, rows.shape[1:])

    def __len__(self) -> int:
        return len(self.codes)

    def wire_size(self) -> int:
        """Bytes the message puts on the fabric: ``len(to_bytes())``."""
        return self.codes.nbytes + self.low.nbytes + self.step.nbytes

    def decode(self) -> np.ndarray:
        """The rows the message delivers, shaped ``(len(self),) +
        row_shape``: ``codes * step + low`` rounded once to float32, the
        width the rows left the front at."""
        rows = dequantize(self.codes, self.low, self.step)
        return rows.astype(np.float32).reshape(
            (len(self),) + self.row_shape)

    def to_bytes(self) -> bytes:
        """The wire encoding: one ``low | step | codes`` record a row."""
        records = np.empty(len(self), _wire_record(self.codes.shape[1]))
        records["low"], records["step"] = self.low, self.step
        records["codes"] = self.codes
        return records.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes,
                   row_shape: Tuple[int, ...]) -> "FeatureRows":
        """Inverse of :meth:`to_bytes` for rows of ``row_shape``: the
        fields are read-only views into ``blob``."""
        records = np.frombuffer(
            blob, _wire_record(int(np.prod(row_shape, dtype=np.int64))))
        return cls(records["codes"], records["low"], records["step"],
                   tuple(row_shape))


def _wire_record(elements: int) -> np.dtype:
    """One row's wire record: ``low | step | codes``, little-endian."""
    return np.dtype([
        ("low", "<f4"), ("step", "<f4"),
        ("codes", np.dtype(code_dtype(FEATURE_BITS)).newbyteorder("<"),
         (elements,))])


class RowStore:
    """The feature rows a Tuner received: one wire record per photo.

    Each record is what crossed the fabric (``low | step | codes``,
    :meth:`FeatureRows.to_bytes`), held under the key of what the row was
    made from — the owning store's front digest at its split and the
    stored CRC of the photo's ``preproc/`` blob, the ``feat/`` header's
    own law.  A row is a function of the two, so a record whose key
    still matches is the row the store would ship again.  Derived state:
    never checkpointed, empty on a fresh Tuner.
    """

    def __init__(self) -> None:
        #: photo id -> (key, wire record, row shape)
        self._held: Dict[str, Tuple[RowKey, bytes, Tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self._held)

    @property
    def nbytes(self) -> int:
        """Bytes of the held wire records."""
        return sum(len(record) for _key, record, _shape
                   in self._held.values())

    def stale(self, photo_ids: Sequence[str],
              keys: Sequence[RowKey]) -> List[int]:
        """Positions in ``photo_ids`` whose row is not held under its key."""
        held = self._held
        return [i for i, (pid, key) in enumerate(zip(photo_ids, keys))
                if pid not in held or held[pid][0] != key]

    def keep(self, photo_ids: Sequence[str], keys: Sequence[RowKey],
             message: FeatureRows) -> None:
        """Hold each row of a delivered ``message`` under its key."""
        blob = message.to_bytes()
        size = len(blob) // len(message)
        for i, (pid, key) in enumerate(zip(photo_ids, keys)):
            self._held[pid] = (key, blob[i * size:(i + 1) * size],
                               message.row_shape)

    def message(self, photo_ids: Sequence[str]) -> FeatureRows:
        """The held rows of ``photo_ids``, in order, as one message."""
        records = [self._held[pid] for pid in photo_ids]
        return FeatureRows.from_bytes(
            b"".join(record for _key, record, _shape in records),
            records[0][2])

    def retain(self, photo_ids) -> None:
        """Drop every record but those of ``photo_ids``."""
        keep = set(photo_ids)
        self._held = {pid: held for pid, held in self._held.items()
                      if pid in keep}

    def clear(self) -> None:
        self._held.clear()


@dataclass
class EpochRecord:
    """One Tuner-side training epoch within one pipeline run."""

    run: int
    epoch: int
    loss: float
    images: int


@dataclass
class FinetuneReport:
    """What one FT-DMP fine-tuning job did."""

    num_runs: int
    split: int
    epochs: List[EpochRecord] = field(default_factory=list)
    #: bytes of features shipped PipeStores -> Tuner (encoded
    #: :class:`FeatureRows`)
    feature_bytes: int = 0
    #: photos whose rows the tail trained on: shipped this round or
    #: held by the Tuner from an earlier one
    images_extracted: int = 0
    #: of those, rows the Tuner already held under their key (not
    #: shipped): rows shipped = ``images_extracted - rows_held``
    rows_held: int = 0
    #: accuracy trajectory if an eval function was supplied:
    #: (run, epoch, accuracy)
    accuracy_trace: List[Tuple[int, int, float]] = field(default_factory=list)
    #: PipeStores that were down when the Tuner tried to gather features
    skipped_stores: List[str] = field(default_factory=list)
    #: photos re-placed onto surviving stores after a mid-run crash and
    #: successfully delivered from there (degraded-mode FT-DMP)
    photos_repartitioned: int = 0
    #: photos that could not be trained on this round (store lost and no
    #: re-placement possible) — the operator reruns after repair
    photos_deferred: int = 0

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].loss

    # -- checkpoint (de)serialisation ---------------------------------------
    def to_dict(self) -> dict:
        return {
            "num_runs": self.num_runs,
            "split": self.split,
            "feature_bytes": self.feature_bytes,
            "images_extracted": self.images_extracted,
            "rows_held": self.rows_held,
            "photos_repartitioned": self.photos_repartitioned,
            "photos_deferred": self.photos_deferred,
            "skipped_stores": list(self.skipped_stores),
            "accuracy_trace": [list(t) for t in self.accuracy_trace],
            "epochs": [
                {"run": e.run, "epoch": e.epoch, "loss": e.loss,
                 "images": e.images}
                for e in self.epochs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FinetuneReport":
        report = cls(num_runs=data["num_runs"], split=data["split"])
        report.feature_bytes = data["feature_bytes"]
        report.images_extracted = data["images_extracted"]
        # a report written before the Tuner held rows shipped every row
        report.rows_held = data.get("rows_held", 0)
        report.photos_repartitioned = data["photos_repartitioned"]
        report.photos_deferred = data["photos_deferred"]
        report.skipped_stores = list(data["skipped_stores"])
        report.accuracy_trace = [tuple(t) for t in data["accuracy_trace"]]
        report.epochs = [EpochRecord(**e) for e in data["epochs"]]
        return report


def train_tail(model: SplitModel, split: int, optimizer: Optimizer,
               features: np.ndarray, labels: np.ndarray, epochs: int,
               batch_size: int, rng: np.random.Generator,
               run_index: int) -> Iterator[EpochRecord]:
    """Train the tail past ``split`` on extracted features (the Tuner side).

    The one epoch/batch loop behind both the distributed Tuner and the
    single-host :class:`FTDMPTrainer`: ``batch_size`` rows at a time,
    shuffled by ``rng``.  Yields each epoch's record as it completes, so
    a caller can evaluate between epochs.
    """
    for epoch in range(epochs):
        losses = []
        for fb, yb in batch_iter(features, labels, batch_size, rng):
            logits = model.forward_from(Tensor(fb), split)
            loss = cross_entropy(logits, yb)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        yield EpochRecord(run=run_index, epoch=epoch,
                          loss=float(np.mean(losses)), images=len(features))


def _make_optimizer(kind: str, params, lr: float) -> Optimizer:
    if kind == "adam":
        return Adam(params, lr=lr)
    if kind == "sgd":
        return SGD(params, lr=lr, momentum=0.9)
    raise ValueError(f"unknown optimizer {kind!r} (use 'adam' or 'sgd')")


class FTDMPTrainer:
    """Fine-tune a :class:`SplitModel` with the FT-DMP split.

    ``split`` defaults to the cut just before the classifier — the
    assignment the paper's APO converges to (trainable layers must stay on
    the Tuner).  Any earlier cut is allowed: the Tuner then runs the
    remaining frozen stages forward before its trainable tail.
    """

    def __init__(self, model: SplitModel, split: Optional[int] = None,
                 lr: float = 3e-3, batch_size: int = 64,
                 optimizer: str = "adam", seed: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.split = model.num_stages - 1 if split is None else split
        if not 0 <= self.split < model.num_stages:
            raise ValueError(
                f"split {self.split} must leave at least the classifier "
                f"on the Tuner (model has {model.num_stages} stages)"
            )
        self.batch_size = batch_size
        self.lr = lr
        self._optimizer_kind = optimizer
        self._rng = np.random.default_rng(seed)
        model.freeze_features()
        self._frozen_snapshot = {name: array.copy() for name, array
                                 in self._frozen_state().items()}

    # -- the Store side ------------------------------------------------------
    def extract_features(self, x: np.ndarray) -> np.ndarray:
        """Run the weight-freeze front (the PipeStore job) over ``x``.

        Identical to the inference forward pass (§2.1 C): eval mode, no
        gradient bookkeeping.
        """
        was_training = self.model.training
        self.model.eval()
        features = frozen_front_features(self.model, self.split, x)
        self.model.train(was_training)
        return features

    # -- the full FT-DMP job -----------------------------------------------
    def finetune(self, x: np.ndarray, y: np.ndarray, epochs: int = 3,
                 num_runs: int = 1,
                 eval_fn: Optional[Callable[[], float]] = None,
                 ) -> FinetuneReport:
        """Run (optionally pipelined) FT-DMP fine-tuning over a dataset.

        ``num_runs`` splits the dataset into sub-datasets trained run by
        run (§5.2); each run starts from the previous run's weights, which
        is what lets the wall-clock pipeline overlap Store and Tuner
        stages — and what causes forgetting when runs get too small.
        """
        if len(x) != len(y):
            raise ValueError("x and y disagree on length")
        report = FinetuneReport(num_runs=num_runs, split=self.split)
        optimizer = _make_optimizer(
            self._optimizer_kind, self.model.classifier.parameters(), self.lr
        )
        for run_index, (x_run, y_run) in enumerate(split_rounds(x, y, num_runs)):
            # the rows the Tuner would receive: through the same channel
            message = FeatureRows.encode(self.extract_features(x_run))
            report.images_extracted += len(x_run)
            report.feature_bytes += message.wire_size()
            for record in train_tail(self.model, self.split, optimizer,
                                     message.decode(), y_run, epochs,
                                     self.batch_size, self._rng, run_index):
                report.epochs.append(record)
                if eval_fn is not None:
                    report.accuracy_trace.append(
                        (run_index, record.epoch, eval_fn()))
        self.verify_frozen_unchanged()
        return report

    # -- invariants -------------------------------------------------------
    def _frozen_state(self) -> dict:
        """Every parameter and buffer of the weight-freeze stages, read
        in place."""
        return {f"stage{i}.{name}": array
                for i in range(self.model.num_stages - 1)
                for name, array in self.model.stage(i).state_dict().items()}

    def verify_frozen_unchanged(self) -> None:
        """Assert the weight-freeze layers were not touched by training:
        their parameters and their buffers (BatchNorm running statistics)
        alike, at any split."""
        for name, array in self._frozen_state().items():
            if not np.array_equal(array, self._frozen_snapshot[name]):
                raise AssertionError(
                    f"frozen state {name} changed during fine-tuning")
