"""Runnable split models: stage-named networks the FT-DMP engine can cut.

A :class:`SplitModel` is a sequence of named stage modules whose last stage
is the classifier.  PipeStores run ``forward_until(x, p)`` (the weight-freeze
front); the Tuner runs ``forward_from(features, p)`` (the rest, including the
trainable classifier).  ``assert_split_consistent`` verifies the invariant
that a split forward equals the unsplit forward bit-for-bit.
"""

from __future__ import annotations

import hashlib
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad
from .graph import ModelGraph, StageSpec


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

    # -- structure -------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self._stage_modules)

    @property
    def classifier(self) -> Module:
        return self._stage_modules[-1]

    def stage(self, index: int) -> Module:
        return self._stage_modules[index]

    def stage_index(self, name: str) -> int:
        return self.stage_names.index(name)

    # -- execution ---------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        for module in self._stage_modules:
            x = module(x)
        return x

    def forward_until(self, x: Tensor, split: int) -> Tensor:
        """Run the first ``split`` stages (the PipeStore side)."""
        self._check_split(split)
        for module in self._stage_modules[:split]:
            x = module(x)
        return x

    def forward_from(self, features: Tensor, split: int) -> Tensor:
        """Run stages ``split:`` (the Tuner side)."""
        self._check_split(split)
        x = features
        for module in self._stage_modules[split:]:
            x = module(x)
        return x

    def front_digest(self, split: int) -> bytes:
        """16-byte digest of the frozen front: ``split`` plus every
        parameter and buffer of the stages ``forward_until`` runs.

        Equal digests mean equal split-point features for equal inputs.
        Derived state in :attr:`Module._derived` (see there for what
        drops it); recomputing hashes the front's bytes once.
        """
        self._check_split(split)
        if self._derived is None or self._derived[0] != split:
            digest = hashlib.blake2b(str(split).encode(), digest_size=16)
            for index, module in enumerate(self._stage_modules[:split]):
                for name, array in module.state_dict().items():
                    digest.update(f"{index}.{name}{array.dtype.str}"
                                  f"{array.shape}".encode())
                    digest.update(array)
            self._derived = (split, digest.digest())
        return self._derived[1]

    @property
    def classifier_prefix(self) -> str:
        """The state-dict key prefix of the classifier stage."""
        return f"stage_{self.stage_names[-1]}."

    def frozen_fingerprint(self) -> int:
        """:func:`frozen_crc` of this model's state, read in place: the
        CRC32 of every stage :meth:`freeze_features` freezes.

        A replica whose fingerprint equals a published state's holds that
        state's frozen stages, so a sync need ship it only the classifier.
        Not memoised: a store computes it once per sync it receives.
        """
        return frozen_crc(self._arrays(), self.classifier_prefix)

    def same_frozen(self, offered: Mapping[str, np.ndarray],
                    ) -> Dict[str, np.ndarray]:
        """The read-only arrays of ``offered`` whose bytes (dtype and
        shape too) equal this model's own, apart from those it already
        holds: loaded, they replace its own, so identical frozen stages
        are held once in the process.  A byte compare, no hash."""
        held = self._arrays()
        return {key: value for key, value in offered.items()
                if not value.flags.writeable and same_bytes(held[key], value)}

    def _arrays(self) -> Dict[str, np.ndarray]:
        """Every parameter and buffer by key, read in place."""
        arrays = {name: param.data for name, param in self.named_parameters()}
        arrays.update(self.named_buffers())
        return arrays

    def load_state_dict(self, state) -> List[str]:
        """As :meth:`Module.load_state_dict`; the front digest is dropped
        only when an array of a stage it covers is replaced."""
        replaced = super().load_state_dict(state)
        if self._derived is not None:
            front = {f"stage_{name}"
                     for name in self.stage_names[:self._derived[0]]}
            if any(key.split(".", 1)[0] in front for key in replaced):
                self._derived = None
        return replaced

    def _check_split(self, split: int) -> None:
        if not 0 <= split <= self.num_stages:
            raise ValueError(
                f"split {split} out of range for {self.num_stages} stages"
            )

    # -- fine-tuning setup -------------------------------------------------
    def freeze_features(self) -> "SplitModel":
        """Freeze everything except the classifier (fine-tuning mode B):
        the front's master state becomes float32 and read-only, the
        classifier's stays float64 and writable (see
        :meth:`Module.freeze`).  Freezing a frozen model moves nothing."""
        moved = [module._train_as(False)
                 for module in self._stage_modules[:-1]]
        if self.classifier._train_as(True) or any(moved):
            # a stage's cast does not reach this model's own slot, and the
            # front digest hashes dtypes
            self._derived = None
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


def frozen_crc(state: Mapping[str, np.ndarray], classifier_prefix: str,
               ) -> int:
    """CRC32 of every array of ``state`` outside the classifier: key,
    dtype, shape and bytes, in key order — one pass of the integrity
    checksum the object store uses.  The fingerprint a replica sync
    checks a store's frozen stages by; ``front_digest`` keeps keying
    ``feat/`` rows."""
    crc = 0
    for key in sorted(state):
        if key.startswith(classifier_prefix):
            continue
        array = state[key]
        crc = zlib.crc32(f"{key}{array.dtype.str}{array.shape}".encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return crc


def same_bytes(held: Optional[np.ndarray], other: np.ndarray) -> bool:
    """Whether ``other`` is an array apart from ``held`` with the same
    dtype, shape and bytes (a compare, not a hash)."""
    return (held is not None and held is not other
            and held.dtype == other.dtype and held.shape == other.shape
            and held.tobytes() == other.tobytes())


def assert_split_consistent(model: SplitModel, x: Tensor, split: int,
                            atol: float = 1e-10) -> None:
    """Raise if splitting at ``split`` changes the model output."""
    whole = model(x).data
    parts = model.forward_from(model.forward_until(x, split), split).data
    if not np.allclose(whole, parts, atol=atol):
        raise AssertionError(
            f"{model.name}: split at {split} changed outputs "
            f"(max abs diff {np.abs(whole - parts).max():.3e})"
        )
