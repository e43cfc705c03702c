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
    #: eval graph (BatchNorm folded into the preceding conv; on a SplitModel,
    #: the digest of its frozen front).  Built on first use, never serialised,
    #: and dropped by every sanctioned mutation of its sources:
    #: ``train(True)``, ``cast`` (and so ``freeze``/``unfreeze``) where an
    #: array changed dtype, and ``load_state_dict`` — the last only on
    #: the modules owning a key it replaces, so a classifier-only load
    #: keeps every fold of the front (and a SplitModel its front digest).
    _derived = None

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

    def cast(self, dtype) -> "Module":
        """Cast all parameters and buffers to ``dtype`` (e.g. np.float32).

        Arrays already at ``dtype`` are kept; derived state is dropped on
        each module whose arrays moved, and on ``self`` if any did.
        """
        dtype = np.dtype(dtype)
        moved = False
        for module in self.modules():
            stale = False
            for param in module._parameters.values():
                if param.data.dtype != dtype:
                    param.data = param.data.astype(dtype)
                    stale = True
            for name, buf in module._buffers.items():
                if buf.dtype != dtype:
                    module._buffers[name] = buf.astype(dtype)
                    stale = True
            if stale:
                module._derived = None
                moved = True
        if moved:
            self._derived = None
        return self

    def freeze(self) -> "Module":
        """Weight-freeze this module: no parameter trains, and the master
        state is float32 (trainable means float64, frozen means float32 —
        a frozen stage ships, rests and runs at half width)."""
        for param in self.parameters():
            param.requires_grad = False
        return self.cast(np.float32)

    def unfreeze(self) -> "Module":
        """Make every parameter trainable again, at float64."""
        for param in self.parameters():
            param.requires_grad = True
        return self.cast(np.float64)

    # -- state -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the arrays ``state`` names (a subset is fine).

        Derived state is dropped exactly where a source moved: on each
        module that owns a replaced parameter or buffer.
        """
        holders = self._holders()
        for key, value in state.items():
            if key not in holders:
                raise KeyError(f"unexpected key in state dict: {key}")
            holder, name = holders[key]
            param = holder._parameters.get(name)
            if param is not None:
                if param.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: "
                        f"{param.shape} vs {value.shape}"
                    )
                param.data = value.copy()
            else:
                holder._buffers[name] = value.copy()
            holder._derived = None

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
