"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays; every operation that sees a gradient-requiring
input records a backward closure, and ``backward()`` on a scalar loss
replays the closures in reverse topological order, accumulating into the
``grad`` field of each reachable leaf. The graph is single-use: after one
backward pass its intermediates are freed and a second call raises
``GraphConsumedError``.

float32 is the working precision for training. Finite-difference gradient
checks are unreliable there, so construction and forward passes can be
wrapped in ``with use_dtype(np.float64)`` for testing.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

import numpy as np

from .errors import GraphConsumedError, ShapeError


class _ThreadState(threading.local):
    """Per-thread engine flags so disjoint graphs can run concurrently."""

    def __init__(self):
        self.dtype = np.float32
        self.grad_enabled = True


_STATE = _ThreadState()


def default_dtype():
    return _STATE.dtype


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily change the dtype new tensors are created with (this thread)."""
    prev = _STATE.dtype
    _STATE.dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _STATE.dtype = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph recording on this thread; forwards run as plain numpy."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def grad_enabled() -> bool:
    return _STATE.grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _STATE.dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._consumed = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out._consumed = False
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all reachable leaves."""
        if self._consumed:
            raise GraphConsumedError(
                "backward() called on a consumed graph; run the forward pass again"
            )
        if self._backward is None:
            raise GraphConsumedError("backward() called on a tensor with no recorded graph")
        if self.data.ndim != 0:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and (p._backward is not None or p.requires_grad):
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            # Free intermediates so a second backward cannot run and
            # activations can be reclaimed; leaves keep their grads.
            if node._parents:
                node._parents = ()
                node._backward = None
                node._consumed = True
                node.grad = None

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, k):
        return power(self, k)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)


# -- graph construction helpers ---------------------------------------


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = True
    out._parents = parents
    out._backward = backward
    out._consumed = False
    return out


def _const(data: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    out._consumed = False
    return out


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else _STATE.dtype
    return _const(np.asarray(x, dtype=dtype))


def _tracking(*tensors: Tensor) -> bool:
    return _STATE.grad_enabled and any(t.requires_grad for t in tensors)


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add an upstream gradient into a tensor's accumulator.

    The first gradient is kept as it is, without a copy. One upstream
    array can reach several parents (as in ``a + b``), so later gradients
    are summed into a new array and never written in place.
    """
    if g.shape != t.data.shape or g.dtype != t.data.dtype:
        raise ShapeError(
            f"gradient of shape {g.shape} and dtype {g.dtype} does not match "
            f"tensor of shape {t.data.shape} and dtype {t.data.dtype}"
        )
    t.grad = g if t.grad is None else t.grad + g


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic --------------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    data = a.data + b.data
    if not _tracking(a, b):
        return _const(data)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(g, b.data.shape))

    return _from_op(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    data = a.data - b.data
    if not _tracking(a, b):
        return _const(data)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(-g, b.data.shape))

    return _from_op(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    data = a.data * b.data
    if not _tracking(a, b):
        return _const(data)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(g * a.data, b.data.shape))

    return _from_op(data, (a, b), backward)


def div(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    data = a.data / b.data
    if not _tracking(a, b):
        return _const(data)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _from_op(data, (a, b), backward)


def power(a: Tensor, k: float) -> Tensor:
    data = a.data ** k
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, g * k * a.data ** (k - 1))

    return _from_op(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, g * data)

    return _from_op(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, g / a.data)

    return _from_op(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, g * 0.5 / data)

    return _from_op(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    data = a.data @ b.data
    if not _tracking(a, b):
        return _const(data)

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            accumulate(a, unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            accumulate(b, unbroadcast(gb, b.data.shape))

    return _from_op(data, (a, b), backward)


# -- reductions and shape ops ------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _tracking(a):
        return _const(data)
    axes = _normalized_axes(axis, a.data.ndim)

    def backward(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _from_op(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if not _tracking(a):
        return _const(data)
    axes = _normalized_axes(axis, a.data.ndim)
    count = a.data.size if axes is None else int(np.prod([a.data.shape[i] for i in axes]))

    def backward(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        accumulate(a, np.broadcast_to(g, a.data.shape) / count)

    return _from_op(data, (a,), backward)


def _normalized_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, g.reshape(a.data.shape))

    return _from_op(data, (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    data = np.transpose(a.data, axes)
    if not _tracking(a):
        return _const(data)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        accumulate(a, np.transpose(g, inv))

    return _from_op(data, (a,), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    data = np.swapaxes(a.data, ax1, ax2)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, np.swapaxes(g, ax1, ax2))

    return _from_op(data, (a,), backward)


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast to a larger shape; gradient sums over the new axes."""
    data = np.broadcast_to(a.data, shape)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, unbroadcast(g, a.data.shape))

    return _from_op(data, (a,), backward)


# -- indexing ----------------------------------------------------------


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along the second-to-last axis.

    2D input with 1D indices gives out[j] = a[idx[j]]; 3D input with 2D
    indices gathers per batch row: out[i, j] = a[i, idx[i, j]].
    """
    idx = np.asarray(idx)
    if a.data.ndim == 2 and idx.ndim == 1:
        data = a.data[idx]
        gather = (idx,)
    elif a.data.ndim == 3 and idx.ndim == 2:
        if idx.shape[0] != a.data.shape[0]:
            raise ShapeError(f"take_rows batch mismatch: {a.shape} vs idx {idx.shape}")
        rows = np.arange(a.data.shape[0])[:, None]
        data = a.data[rows, idx]
        gather = (rows, idx)
    else:
        raise ShapeError(f"take_rows supports (p,d)/1D-idx or (b,p,d)/2D-idx, got {a.shape}, {idx.shape}")
    if not _tracking(a):
        return _const(data)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, gather, g)
        accumulate(a, ga)

    return _from_op(data, (a,), backward)


def take_batch(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather slices along the leading axis: out[j] = a[idx[j]]."""
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise ShapeError(f"take_batch needs 1D indices, got {idx.shape}")
    data = a.data[idx]
    if not _tracking(a):
        return _const(data)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        accumulate(a, ga)

    return _from_op(data, (a,), backward)


def scatter_rows(a: Tensor, idx: np.ndarray, length: int) -> Tensor:
    """Inverse of take_rows: place rows at idx in a zero tensor of `length` rows."""
    idx = np.asarray(idx)
    if a.data.ndim == 2 and idx.ndim == 1:
        data = np.zeros((length, a.data.shape[-1]), dtype=a.data.dtype)
        data[idx] = a.data
        gather = (idx,)
    elif a.data.ndim == 3 and idx.ndim == 2:
        if idx.shape[0] != a.data.shape[0]:
            raise ShapeError(f"scatter_rows batch mismatch: {a.shape} vs idx {idx.shape}")
        b = a.data.shape[0]
        rows = np.arange(b)[:, None]
        data = np.zeros((b, length, a.data.shape[-1]), dtype=a.data.dtype)
        data[rows, idx] = a.data
        gather = (rows, idx)
    else:
        raise ShapeError(f"scatter_rows supports (v,d)/1D-idx or (b,v,d)/2D-idx, got {a.shape}, {idx.shape}")
    if not _tracking(a):
        return _const(data)

    def backward(g):
        accumulate(a, g[gather])

    return _from_op(data, (a,), backward)


def pick(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select one column per row of a (b, c) tensor: out[i] = a[i, idx[i]]."""
    idx = np.asarray(idx)
    if a.data.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(f"pick needs (b,c) tensor and (b,) indices, got {a.shape}, {idx.shape}")
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]
    if not _tracking(a):
        return _const(data)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g)
        accumulate(a, ga)

    return _from_op(data, (a,), backward)


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that participates in optimization."""
    return Tensor(np.array(data, dtype=dtype or _STATE.dtype), requires_grad=True)
