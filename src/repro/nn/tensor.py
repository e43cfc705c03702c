"""A small reverse-mode autograd engine over numpy arrays.

This is the DNN substrate for the NDPipe reproduction: the paper's models
(ResNet50, InceptionV3, ShuffleNetV2, ResNeXt101, ViT) are built as tiny
runnable variants on top of this engine, and the FT-DMP training strategy
(feature extraction on PipeStores, classifier training on the Tuner) runs
real forward/backward passes through it.

The design is deliberately explicit: every differentiable primitive creates
a ``Tensor`` node holding a closure that accumulates gradients into its
parents.  Broadcasting follows numpy semantics; gradients of broadcast
operands are reduced back to the operand's shape by :func:`_unbroadcast`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.float64

_GRAD_MODE = threading.local()


def grad_enabled() -> bool:
    """Whether new ops record autograd graph nodes (thread-local)."""
    return getattr(_GRAD_MODE, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph construction for forward-only code.

    The data math is untouched — every op computes the exact same numpy
    arrays — only the backward closures and parent links are skipped, so
    inference paths (classify, feature extraction) avoid building and
    retaining a graph they never traverse.  Thread-local, reentrant.
    """
    previous = grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


#: Forward-only call sites (classify, feature extraction, offline relabel)
#: say what they are; the mechanism is :func:`no_grad`.
inference_mode = no_grad


def reuse(ufunc, buf: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``ufunc(buf, operand)`` computed into ``buf``: same bits, no allocation.

    Ownership rule of the eval forward: ``buf`` must be *scratch* — a
    temporary the running forward allocated under ``no_grad`` and handed
    to nobody else (``Tensor._scratch``); never a caller's array, a view
    of one, a parameter or a module buffer.  ``operand`` must broadcast
    into ``buf``; when numpy would have produced another dtype than
    ``buf``'s, the result is allocated as before.
    """
    same = buf.dtype == np.result_type(buf, operand)
    return ufunc(buf, operand, out=buf if same else None)


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, (np.ndarray, np.generic)):
        # a float array or numpy scalar (a 0-d op's result) keeps its dtype
        if data.dtype.kind in "fc":
            return np.asarray(data)
        return np.asarray(data, dtype=_DEFAULT_DTYPE)
    return np.asarray(data, dtype=_DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum the leading axes that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum the axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "name", "_scratch")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward=None,
        name: Optional[str] = None,
        _scratch: bool = False,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.name = name
        # the next no_grad op may overwrite ``data`` (rule: see reuse())
        self._scratch = _scratch and not grad_enabled()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (i.e. the tensor is treated as a scalar
        loss, or the gradient of an elementwise sum).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion limits on deep nets.
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Primitive ops
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: Union["Tensor", ArrayLike],
                like: Optional["Tensor"] = None) -> "Tensor":
        """``other`` as a Tensor.  A bare scalar operand of ``like`` takes
        ``like``'s dtype (numpy's weak-scalar rule, extended to numpy
        scalars), so ``x * 0.5`` or ``x.mean()`` keep a float32 activation
        float32 and leave a float64 one exactly as before."""
        if isinstance(other, Tensor):
            return other
        if like is not None and isinstance(other, (int, float, np.number)):
            return Tensor(np.asarray(other, dtype=like.data.dtype))
        return Tensor(other)

    def _make(self, data, parents, backward, scratch: bool = False) -> "Tensor":
        requires = grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _scratch=scratch,
                     _parents=tuple(parents) if requires else ())
        if requires:
            out._backward = backward
        return out

    def __add__(self, other):
        other = self._coerce(other, self)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __iadd__(self, other):
        """``self + other``; accumulates into a scratch buffer under ``no_grad``."""
        other = self._coerce(other, self)
        if not self._scratch or grad_enabled() or other.shape != self.shape:
            return self + other
        self.data = reuse(np.add, self.data, other.data)
        return self

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other, self))

    def __rsub__(self, other):
        return self._coerce(other, self) + (-self)

    def __mul__(self, other):
        other = self._coerce(other, self)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other, self)
        return self * other ** -1.0

    def __rtruediv__(self, other):
        return self._coerce(other, self) * self ** -1.0

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other, self)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim >= 2:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                else:
                    g = np.outer(grad, other.data) if grad.ndim else grad * other.data
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim >= 2:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                else:
                    g = np.outer(self.data, grad)
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def relu(self):
        if self._scratch and not grad_enabled():
            # x * mask as below (so -0.0 and NaN behave alike), in place
            self.data = reuse(np.multiply, self.data, self.data > 0)
            return self
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def sqrt(self):
        return self ** 0.5

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        # a bare scalar: ``1 / count`` takes the sum's dtype, so the global
        # pool hands a float32 front's rows on at float32
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False):
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis: int, keepdims: bool = False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = self.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g / counts)

        return self._make(out_data, (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    requires = grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires,
                 _parents=tuple(tensors) if requires else ())

    if requires:
        def backward(grad):
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if not tensor.requires_grad:
                    continue
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(sl)])

        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    expanded = []
    for t in tensors:
        shape = list(t.shape)
        shape.insert(axis % (t.ndim + 1), 1)
        expanded.append(t.reshape(*shape))
    return concat(expanded, axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax as a fused primitive."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(sums)
    softmax = exps / sums

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return x._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return a._make(out_data, (a, b), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation (the ViT block activation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = (x + x * x * x * 0.044715) * c
    return x * 0.5 * (inner.tanh() + 1.0)
