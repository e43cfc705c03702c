"""Runnable split models: stage-named networks the FT-DMP engine can cut.

A :class:`SplitModel` is a sequence of named stage modules whose last stage
is the classifier.  PipeStores run ``forward_until(x, p)`` (the weight-freeze
front); the Tuner runs ``forward_from(features, p)`` (the rest, including the
trainable classifier); a split forward equals the unsplit forward
bit-for-bit (``tests/models/test_zoo.py`` checks it at every cut).

Once frozen, a model's front is a :class:`FrozenFront`: one immutable
value, shared by reference by every replica provisioned from it
(:meth:`SplitModel.replica`), each of which owns only its classifier.

A model is the one place its frozen front is batched: with no graph
recorded, the front's stages run over sub-batches of :data:`FRONT_ROWS`
rows, whatever batch a caller hands :meth:`SplitModel.forward_until` or
:meth:`SplitModel.forward`, so callers pass whole arrays.
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import contextmanager
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module, _frozen
from ..nn.tensor import Tensor, grad_enabled, no_grad
from .graph import ModelGraph, StageSpec

#: rows a frozen front runs at once when no graph is recorded.  A front
#: pass's host working set grows with its batch (each 3x3 conv's im2col
#: columns: a 28 MB peak for 256 rows of the tiny ResNet50), while front
#: rows are batch-invariant bit for bit, so the size moves memory and
#: time, never a row; DESIGN §12 has the sweep that picked it.
FRONT_ROWS = 32


class SplitModel(Module):
    """A model expressed as ordered, named, partitionable stages."""

    def __init__(self, name: str, stages: Sequence[Tuple[str, Module]],
                 input_shape: Tuple[int, ...]):
        super().__init__()
        if not stages:
            raise ValueError("SplitModel needs at least one stage")
        self.name = name
        self.input_shape = tuple(input_shape)
        self.stage_names: List[str] = [n for n, _ in stages]
        self._stage_modules: List[Module] = [m for _, m in stages]
        for stage_name, module in stages:
            setattr(self, f"stage_{stage_name}", module)
        #: the frozen stages as one immutable value, once
        #: :meth:`freeze_features` has made it (or :meth:`rebind` handed
        #: this model another); ``None`` while every stage trains
        self.front: Optional[FrozenFront] = None

    # -- structure -------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self._stage_modules)

    @property
    def classifier(self) -> Module:
        return self._stage_modules[-1]

    def stage(self, index: int) -> Module:
        return self._stage_modules[index]

    # -- execution ---------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        return self._run_until(x, self.num_stages)

    def forward_until(self, x: Tensor, split: int) -> Tensor:
        """Run the first ``split`` stages (the PipeStore side)."""
        self._check_split(split)
        return self._run_until(x, split)

    def _run_until(self, x: Tensor, split: int) -> Tensor:
        """Stages ``:split``: those of the frozen front over
        :data:`FRONT_ROWS`-row sub-batches when no graph is recorded, the
        rest (and, with grad enabled, all of them) over the whole batch —
        tail rows are not batch-invariant, and a graph stays one graph."""
        frozen = 0
        if (self.front is not None and not grad_enabled()
                and len(x.data) > FRONT_ROWS):
            frozen = min(split, len(self.front.stages))
        if frozen:
            x = self._front_rows(x, frozen)
        for module in self._stage_modules[frozen:split]:
            x = module(x)
        return x

    def _front_rows(self, x: Tensor, split: int) -> Tensor:
        """The first ``split`` (frozen) stages, :data:`FRONT_ROWS` rows at
        a time, each sub-batch's rows written into one preallocated
        array."""
        rows = None
        for start in range(0, len(x.data), FRONT_ROWS):
            part = Tensor(x.data[start:start + FRONT_ROWS])
            for module in self._stage_modules[:split]:
                part = module(part)
            if rows is None:
                rows = np.empty((len(x.data),) + part.shape[1:],
                                part.data.dtype)
            rows[start:start + len(part.data)] = part.data
        # scratch: the array is this pass's own, so the next op may reuse it
        return Tensor(rows, _scratch=True)

    def forward_from(self, features: Tensor, split: int) -> Tensor:
        """Run stages ``split:`` (the Tuner side)."""
        self._check_split(split)
        x = features
        for module in self._stage_modules[split:]:
            x = module(x)
        return x

    @property
    def classifier_prefix(self) -> str:
        """The state-dict key prefix of the classifier stage."""
        return f"stage_{self.stage_names[-1]}."

    # -- the frozen front ------------------------------------------------------
    def rebind(self, front: "FrozenFront") -> None:
        """Hold ``front`` as this model's frozen stages, by reference: the
        one way a replica's front is replaced (nothing is invalidated —
        the old value, its digest and its folds go with their last
        holder)."""
        if front is self.front:
            return
        if front.names != tuple(self.stage_names[:len(front.names)]):
            raise ValueError(
                f"front stages {front.names} do not match {self.name}'s")
        self.front = front
        self._hold(front.names, front.stages)

    def adopt(self, state: Mapping[str, np.ndarray],
              front: Optional["FrozenFront"] = None) -> None:
        """Bring this frozen replica to ``state``.

        Its front becomes ``front`` — a value handed over in process —
        or else the value ``state``'s front arrays resolve to
        (:meth:`FrozenFront.resolve`: this model's own when they are its
        arrays or hash to its digest, a new value otherwise); the other
        arrays load as :meth:`~repro.nn.module.Module.load_state_dict`
        loads them.  A state naming no front array keeps the front.
        """
        if front is None:
            front = self.front.resolve(state)
        self.rebind(front)
        self.load_state_dict({key: value for key, value in state.items()
                              if key not in front.arrays})

    def replica(self) -> "SplitModel":
        """Another model holding this one's front by reference and a
        private copy of its classifier: how a fleet provisions a replica,
        in O(classifier)."""
        if self.front is None:
            raise ValueError(f"{self.name}: freeze_features() before "
                             "provisioning replicas from it")
        model = SplitModel(self.name, list(zip(
            self.stage_names,
            (*self.front.stages, copy.deepcopy(self.classifier)))),
            self.input_shape)
        model.front = self.front
        model.training = self.training
        return model

    def _train_as(self, trainable: bool) -> bool:
        # unfreezing gives this model private copies of the front's
        # stages (``unfreeze`` then copies their arrays writable): the
        # shared value itself never moves
        if trainable and self.front is not None:
            front, self.front = self.front, None
            stages = front._copies(front.arrays)
            for stage in stages:
                for module in stage.modules():
                    del module._immutable
            self._hold(front.names, stages)
        return super()._train_as(trainable)

    def _hold(self, names: Sequence[str], stages: Sequence[Module]) -> None:
        for name, stage in zip(names, stages):
            setattr(self, f"stage_{name}", stage)
        self._stage_modules[:len(stages)] = stages

    def _check_split(self, split: int) -> None:
        if not 0 <= split <= self.num_stages:
            raise ValueError(
                f"split {split} out of range for {self.num_stages} stages"
            )

    # -- fine-tuning setup -------------------------------------------------
    def freeze_features(self) -> "SplitModel":
        """Freeze everything except the classifier (fine-tuning mode B)
        and make the frozen stages this model's :attr:`front`, one
        immutable :class:`FrozenFront`: their master state float32 and
        read-only (see :meth:`Module.freeze`), in eval mode for good.
        The classifier's stays float64 and writable.  Freezing a frozen
        model moves nothing."""
        if self.front is None:
            stages = self._stage_modules[:-1]
            for stage in stages:
                stage._train_as(False)
                stage.train(False)
            self.front = FrozenFront(self.stage_names[:-1], stages)
        self.classifier._train_as(True)
        return self

    def feature_dim_after(self, split: int, batch: int = 2) -> Tuple[int, ...]:
        """Shape (excluding batch) of activations leaving stage ``split``."""
        probe = Tensor(np.zeros((batch,) + self.input_shape))
        with self._probing():
            out = self.forward_until(probe, split)
        return out.shape[1:]

    @contextmanager
    def _probing(self) -> Iterator[None]:
        """Eval mode under ``no_grad`` for a shape probe, mode restored:
        a zero-valued probe must not move BatchNorm running statistics."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                yield
        finally:
            self.train(was_training)

    # -- analytic graph ------------------------------------------------------
    def to_graph(self, raw_image_bytes: int = 8192) -> ModelGraph:
        """Derive a :class:`ModelGraph` by probing the model.

        Activation sizes come from a shape probe; per-stage FLOPs are
        *measured* by tracing a forward pass through the FLOP counter
        (:mod:`repro.models.flops`), so APO arithmetic on tiny models uses
        the same 2x-MAC convention as the full-scale catalog.
        """
        from .flops import count_stage_flops

        stage_flops = count_stage_flops(self)
        probe = Tensor(np.zeros((1,) + self.input_shape))
        specs = []
        with self._probing():
            x = probe
            for i, (name, module) in enumerate(zip(self.stage_names, self._stage_modules)):
                x = module(x)
                specs.append(StageSpec(
                    name=name,
                    flops_fwd=max(stage_flops[name], 1.0),
                    params=module.num_parameters(),
                    out_elems=int(np.prod(x.shape[1:])),
                    trainable=(i == self.num_stages - 1),
                ))
        input_elems = int(np.prod(self.input_shape))
        return ModelGraph(self.name, specs, input_elems, raw_image_bytes)


class FrozenFront:
    """The frozen stages of a :class:`SplitModel` as one immutable value.

    It holds the stage modules, every array of theirs read-only, and one
    16-byte digest computed when the value is made: a blake2b over the
    stage count and, per stage, each array's key, dtype, shape and bytes
    (what ``feat/`` rows and serving cache rows are keyed on; equal
    digests mean equal split-point features for equal inputs, and a
    replica sync's 4-byte fingerprint is its first bytes).  Its modules
    are marked immutable (:attr:`Module._immutable`): ``train(True)``
    does not reach them, casts skip them and ``load_state_dict`` refuses
    to replace their arrays, so their BatchNorm folds are computed once,
    on the value's first eval, and die with it.

    Every replica of a fleet holds the one value by reference
    (:meth:`SplitModel.replica`, :meth:`SplitModel.rebind`); replacing a
    front means swapping that reference, never writing into it.  What it
    carries beside its arrays is what it computed: shape probes
    (:attr:`rows`) and ingest's rows no store has taken yet (:attr:`held`).
    """

    __slots__ = ("names", "stages", "arrays", "digest", "rows", "held",
                 "_tags", "_cuts", "__weakref__")

    def __init__(self, names: Sequence[str], stages: Sequence[Module],
                 digest: Optional[bytes] = None):
        self.names = tuple(names)
        self.stages = tuple(stages)
        arrays: Dict[str, np.ndarray] = {}
        tags = []
        for index, (name, stage) in enumerate(zip(self.names, self.stages)):
            for module in stage.modules():
                module._immutable = True
            for local, array in stage.state_dict().items():
                if array.flags.writeable:
                    raise ValueError(f"stage {name}: {local} is not frozen")
                key = f"stage_{name}.{local}"
                arrays[key] = array
                tags.append((index, key, f"{index}.{local}"))
        #: key -> read-only array, for every parameter and buffer
        self.arrays = MappingProxyType(arrays)
        self._tags = tuple(tags)
        self._cuts: Dict[int, bytes] = {}
        self.digest = self._digest(arrays) if digest is None else digest
        #: bytes of one feature row per (cut, input shape), recorded by the
        #: first shape probe of any model holding this value
        self.rows: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: feature rows at this value's own cut (every frozen stage) that
        #: ingest computed and no store has taken yet, by the content key
        #: (:func:`~repro.serving.cache.content_key`) of the photo's 8-bit
        #: codes: a row is a function of the value and the codes, so the
        #: first store to miss it takes it (``pop``) instead of running the
        #: front again, and the rows die with the value
        self.held: Dict[str, np.ndarray] = {}

    def digest_at(self, split: int) -> bytes:
        """The digest of the first ``split`` stages, what ``feat/`` rows
        at that cut are keyed on: :attr:`digest` at the front's own cut
        (every frozen stage), hashed once per value at an earlier one."""
        if split == len(self.stages):
            return self.digest
        if not 0 <= split < len(self.stages):
            raise ValueError(f"split {split} is not a cut of the "
                             f"{len(self.stages)}-stage front")
        digest = self._cuts.get(split)
        if digest is None:
            digest = self._cuts[split] = self._digest(self.arrays, split)
        return digest

    def _digest(self, arrays: Mapping[str, np.ndarray],
                split: Optional[int] = None) -> bytes:
        split = len(self.stages) if split is None else split
        digest = hashlib.blake2b(str(split).encode(), digest_size=16)
        for index, key, tag in self._tags:
            if index >= split:
                break
            array = arrays[key]
            digest.update(f"{tag}{array.dtype.str}{array.shape}".encode())
            digest.update(array)
        return digest.digest()

    def resolve(self, state: Mapping[str, np.ndarray]) -> "FrozenFront":
        """The value holding ``state``'s front arrays over this one's
        (``state`` may name some, all or none of them): this value when
        they are its own arrays or hash to its digest, else a new value
        with this one's stage structure.  Hashes at most once."""
        held = self.arrays
        incoming = {key: _frozen(state[key], array.dtype)
                    for key, array in held.items()
                    if key in state and state[key] is not array}
        if not incoming:
            return self
        incoming = {**held, **incoming}
        digest = self._digest(incoming)
        if digest == self.digest:
            return self
        return FrozenFront(self.names, self._copies(incoming), digest)

    def _copies(self, arrays: Mapping[str, np.ndarray]) -> Tuple[Module, ...]:
        """New stage modules like this value's, holding ``arrays`` (by
        key) in place of its own and none of its folds (they are derived
        from the arrays)."""
        memo = {id(held): arrays[key] for key, held in self.arrays.items()}
        memo.update((id(module._derived), None) for stage in self.stages
                    for module in stage.modules()
                    if module._derived is not None)
        return copy.deepcopy(self.stages, memo)
