"""Module base class: parameter registry, train/eval mode, state dicts.

State dicts are plain ``{name: np.ndarray}`` mappings; they are what the
Check-N-Run delta encoder (:mod:`repro.core.checknrun`) serialises and what
the Tuner redistributes to PipeStores after fine-tuning.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as a trainable weight of a Module."""

    def __init__(self, data, name=None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network building blocks."""

    #: State a layer derived from its parameters and buffers for the frozen
    #: eval graph (BatchNorm folded into the preceding conv).  Built on
    #: first use, never serialised, and dropped by every sanctioned
    #: mutation of its sources: ``train(True)``, ``freeze``/``unfreeze``
    #: where an array changed dtype, and ``load_state_dict`` — the last
    #: only on the modules owning a key it replaces.  An immutable
    #: module's sources never move, so its derived state lives as long as
    #: it does.
    _derived = None

    #: Set on every module of a :class:`~repro.models.split.FrozenFront`:
    #: ``train()`` leaves it in eval mode, freezes skip it, and
    #: ``load_state_dict`` refuses to replace its arrays.
    _immutable = False

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- attribute magic ------------------------------------------------
    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    # -- traversal -------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- mode ------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        if self._immutable:
            return self
        self.training = mode
        if mode:
            self._derived = None
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Weight-freeze this module: no parameter trains, and the master
        state is float32 (trainable means float64, frozen means float32 —
        a frozen stage ships, rests and runs at half width).

        Every parameter and buffer is left a read-only, aligned ndarray:
        an immutable value that replicas share by reference
        (:meth:`state_dict`, :meth:`load_state_dict`), so an in-place
        write to a frozen array raises ``ValueError``.
        """
        self._train_as(False)
        return self

    def unfreeze(self) -> "Module":
        """Make every parameter trainable again, at float64, each array a
        private writable one."""
        self._train_as(True)
        return self

    def _train_as(self, trainable: bool) -> bool:
        """:meth:`unfreeze` (``trainable``: every array float64, private
        and writable) or :meth:`freeze` (float32 and read-only).  Derived
        state is dropped where an array was replaced; returns whether any
        was.  Immutable modules are left as they are."""
        dtype = np.dtype(np.float64 if trainable else np.float32)
        moved = False
        for module in self.modules():
            if module._immutable:
                continue
            stale = False
            for param in module._parameters.values():
                param.requires_grad = trainable
                array = _settled(param.data, dtype, not trainable)
                if array is not param.data:
                    param.data = array
                    stale = True
            for name, buf in module._buffers.items():
                array = _settled(buf, dtype, not trainable)
                if array is not buf:
                    module._buffers[name] = array
                    stale = True
            if stale:
                module._derived = None
                moved = True
        if moved:
            self._derived = None
        return moved

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Rebind buffer ``name`` (a train-mode statistics update): a
        frozen slot stays frozen, holding the new array read-only."""
        if not self._buffers[name].flags.writeable:
            value.flags.writeable = False
        self._buffers[name] = value

    # -- state -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Every parameter and buffer by key: frozen (read-only) arrays
        as they are, shared with this module; trainable ones copied."""
        state = {name: _snapshot(param.data)
                 for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = _snapshot(buf)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> List[str]:
        """Replace the arrays ``state`` names (a subset is fine); returns
        the keys whose arrays were replaced.

        A frozen (read-only) slot adopts a read-only incoming array by
        reference and holds a read-only copy of a writable one; a
        trainable slot always gets a private writable copy, since its
        owner's optimiser steps it.  An incoming array that already *is*
        the slot's frozen array replaces nothing.  Derived state is
        dropped exactly where a source moved: on each module that owns a
        replaced parameter or buffer.  A module of a frozen front is
        immutable: an array other than the one it holds raises
        ``ValueError`` (a replica's front is swapped whole, by
        :meth:`~repro.models.split.SplitModel.adopt` or ``rebind``).
        """
        holders = self._holders()
        replaced = []
        for key, value in state.items():
            if key not in holders:
                raise KeyError(f"unexpected key in state dict: {key}")
            holder, name = holders[key]
            param = holder._parameters.get(name)
            held = holder._buffers[name] if param is None else param.data
            if param is not None and param.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{param.shape} vs {value.shape}"
                )
            if held.flags.writeable:
                value = value.copy()
            elif value is held:
                continue
            elif holder._immutable:
                raise ValueError(
                    f"{key} belongs to a frozen front, which is immutable: "
                    "rebind the model to another front instead")
            else:
                value = _frozen(value, value.dtype)
            if param is not None:
                param.data = value
            else:
                holder._buffers[name] = value
            holder._derived = None
            replaced.append(key)
        return replaced

    def _holders(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        """State-dict key -> (the module owning it, its local name)."""
        holders = {prefix + name: (self, name)
                   for name in (*self._parameters, *self._buffers)}
        for name, module in self._modules.items():
            holders.update(module._holders(prefix + name + "."))
        return holders

    # -- call ------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _snapshot(array: np.ndarray) -> np.ndarray:
    """What :meth:`Module.state_dict` hands out for one slot."""
    return array if not array.flags.writeable else array.copy()


def _frozen(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``array`` at ``dtype`` as an immutable value: ``array`` itself if
    it already is a read-only, aligned, C-contiguous array owning its
    buffer, else a read-only copy (a view into someone's bytes, or a
    writable array its caller may still write, is never adopted)."""
    if array.dtype == dtype:
        flags = array.flags
        if (not flags.writeable and flags.owndata and flags.c_contiguous
                and flags.aligned):
            return array
    array = np.array(array, dtype=dtype, order="C")
    array.flags.writeable = False
    return array


def _settled(array: np.ndarray, dtype: np.dtype, frozen: bool) -> np.ndarray:
    """``array`` at ``dtype``: with ``frozen`` immutable (:func:`_frozen`),
    without it private and writable."""
    if frozen:
        return _frozen(array, dtype)
    if array.dtype != dtype or not array.flags.writeable:
        return np.array(array, dtype=dtype)
    return array
