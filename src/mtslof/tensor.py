"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays; every operation that sees a gradient-requiring
input records a backward closure, and ``backward()`` on a scalar loss
replays the closures in reverse topological order, accumulating into the
``grad`` field of each reachable leaf. The graph is single-use: after one
backward pass its intermediates are freed and a second call raises
``GraphConsumedError``.

float32 is the working precision for training. Finite-difference gradient
checks are unreliable there, so construction and forward passes can be
wrapped in ``with use_dtype(np.float64)`` for testing. The flags that
``use_dtype`` and ``no_grad`` set are process-wide.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from .errors import GraphConsumedError, ShapeError

# The dtype new tensors are created with, and whether operations record a graph.
_dtype = np.float32
_grad_enabled = True


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily change the dtype new tensors are created with (process-wide)."""
    global _dtype
    prev = _dtype
    _dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _dtype = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (process-wide); forwards run as plain numpy."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _dtype)
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all reachable leaves."""
        if self.data.ndim != 0:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        _run_backward(self, np.ones_like(self.data))

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


def _run_backward(root: Tensor, seed: np.ndarray) -> None:
    """Replay the graph below `root` from the upstream gradient `seed`,
    accumulating into reachable leaves and consuming the graph."""
    if root._consumed:
        raise GraphConsumedError(
            "backward() called on a consumed graph; run the forward pass again"
        )
    if root._backward is None:
        raise GraphConsumedError("backward() called on a tensor with no recorded graph")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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

    root.grad = seed
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
    dtype = like.data.dtype if like is not None else _dtype
    return _const(np.asarray(x, dtype=dtype))


def _tracking(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


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
    """Gather rows per batch item: (b, p, d) with (b, k) indices gives
    out[i, j] = a[i, idx[i, j]]. The positions within one row of `idx` must
    be distinct, so the backward scatter is a plain assignment."""
    idx = np.asarray(idx)
    if a.data.ndim != 3 or idx.ndim != 2 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(f"take_rows needs a (b, p, d) tensor and (b, k) indices, got {a.shape}, {idx.shape}")
    ordered = np.sort(idx, axis=-1)
    repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=-1))
    if repeated.size:
        i = int(repeated[0])
        raise ShapeError(f"take_rows positions must be distinct within a row; row {i} repeats one: "
                         f"{idx[i].tolist()}")
    gather = (np.arange(a.data.shape[0])[:, None], idx)
    data = a.data[gather]
    if not _tracking(a):
        return _const(data)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[gather] = g
        accumulate(a, ga)

    return _from_op(data, (a,), backward)


def scatter_rows(a: Tensor, idx: np.ndarray, length: int) -> Tensor:
    """Inverse of take_rows: place the rows of a (b, k, d) tensor at (b, k)
    indices in a zero (b, length, d) tensor."""
    idx = np.asarray(idx)
    if a.data.ndim != 3 or idx.shape != a.data.shape[:2]:
        raise ShapeError(f"scatter_rows needs a (b, k, d) tensor and (b, k) indices, got {a.shape}, {idx.shape}")
    b, _, d = a.data.shape
    gather = (np.arange(b)[:, None], idx)
    data = np.zeros((b, length, d), dtype=a.data.dtype)
    data[gather] = a.data
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
        # One position per row, so an assignment scatters without collisions.
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        accumulate(a, ga)

    return _from_op(data, (a,), backward)


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that participates in optimization."""
    return Tensor(np.array(data, dtype=dtype or _dtype), requires_grad=True)
