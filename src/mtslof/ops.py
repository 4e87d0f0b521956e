"""Neural network operations built on the tensor engine.

Each primitive here carries a hand-derived backward rule; composite ops
are expressed through the engine's arithmetic so their gradients follow
automatically.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf

from .errors import (
    DegenerateBatchError,
    InputTooShortError,
    NotPositiveDefiniteError,
    ShapeError,
)
from .tensor import (
    Tensor,
    _const,
    _from_op,
    _tracking,
    accumulate,
    as_tensor,
    matmul,
    reshape,
    swapaxes,
    unbroadcast,
)

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def conv_output_length(t: int, kernel: int, stride: int, padding: int) -> int:
    return (t + 2 * padding - kernel) // stride + 1


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over the time axis.

    x is (c_in, t) or (b, c_in, t); weight is (c_out, c_in, k). Output
    length is floor((t + 2*padding - k) / stride) + 1 and must be >= 1.
    """
    squeeze = x.data.ndim == 2
    xv = reshape(x, (1,) + x.data.shape) if squeeze else x
    b, c_in, t = xv.data.shape
    c_out, c_in_w, k = weight.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d channel mismatch: input {xv.data.shape} vs kernel {weight.data.shape}")
    t_out = conv_output_length(t, k, stride, padding)
    if t_out < 1:
        raise InputTooShortError(
            f"conv1d input of length {t} with kernel {k}, stride {stride}, padding {padding} "
            f"yields output length {t_out}"
        )

    xp = np.pad(xv.data, ((0, 0), (0, 0), (padding, padding)))
    s0, s1, s2 = xp.strides
    windows = as_strided(xp, shape=(b, c_in, t_out, k), strides=(s0, s1, s2 * stride, s2))
    wmat = weight.data.reshape(c_out, c_in * k)

    parents = (xv, weight) if bias is None else (xv, weight, bias)
    if not _tracking(*parents):
        # Per-sample GEMMs keep shapes independent of batch size, so
        # eval-mode outputs are bitwise identical across batch compositions.
        data = np.empty((b, c_out, t_out), dtype=np.result_type(xv.data, weight.data))
        for i in range(b):
            cols_i = np.ascontiguousarray(windows[i].transpose(1, 0, 2)).reshape(t_out, c_in * k)
            data[i] = (cols_i @ wmat.T).T
        if bias is not None:
            data = data + bias.data[:, None]
        out = _const(data)
        return reshape(out, data.shape[1:]) if squeeze else out

    # im2col: one GEMM of (b*t_out, c_in*k) @ (c_in*k, c_out)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(b * t_out, c_in * k)
    data = (cols @ wmat.T).reshape(b, t_out, c_out).transpose(0, 2, 1)
    if bias is not None:
        data = data + bias.data[:, None]

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(b * t_out, c_out)
        if weight.requires_grad:
            accumulate(weight, (gmat.T @ cols).reshape(c_out, c_in, k))
        if bias is not None and bias.requires_grad:
            accumulate(bias, g.sum(axis=(0, 2)))
        if xv.requires_grad:
            gcols = (gmat @ wmat).reshape(b, t_out, c_in, k).transpose(0, 2, 1, 3)
            gxp = np.zeros_like(xp)
            # Scatter each kernel offset back as a strided slice add.
            for j in range(k):
                gxp[:, :, j : j + stride * t_out : stride] += gcols[:, :, :, j]
            ga = gxp[:, :, padding : padding + t] if padding else gxp
            accumulate(xv, ga)

    out = _from_op(data, parents, backward)
    return reshape(out, data.shape[1:]) if squeeze else out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight.T + bias with every leading axis of x flattened into one GEMM.

    x is (..., d_in), weight is (d_out, d_in) and bias is (d_out,).
    """
    lead = x.data.shape[:-1]
    d_out, d_in = weight.data.shape
    if x.data.shape[-1:] != (d_in,):
        raise ShapeError(f"linear input {x.data.shape} does not match weight {weight.data.shape}")
    x2 = x.data.reshape(-1, d_in)
    data = (x2 @ weight.data.T + bias.data).reshape(lead + (d_out,))
    if not _tracking(x, weight, bias):
        return _const(data)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        if weight.requires_grad:
            accumulate(weight, g2.T @ x2)
        if bias.requires_grad:
            accumulate(bias, g2.sum(axis=0))
        if x.requires_grad:
            accumulate(x, (g2 @ weight.data).reshape(x.data.shape))

    return _from_op(data, (x, weight, bias), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    data = x.data * cdf
    if not _tracking(x):
        return _const(data)

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        accumulate(x, g * (cdf + x.data * pdf))

    return _from_op(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; slices sum to one."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    if not _tracking(x):
        return _const(data)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        accumulate(x, data * (g - dot))

    return _from_op(data, (x,), backward)


def normalize_moments(x: Tensor, axes, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) over `axes`, differentiating through the stats."""
    axes = tuple(ax % x.data.ndim for ax in axes)
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    data = (x.data - mu) * inv
    if not _tracking(x):
        return _const(data)

    def backward(g):
        gm = g.mean(axis=axes, keepdims=True)
        gy = (g * data).mean(axis=axes, keepdims=True)
        accumulate(x, inv * (g - gm - data * gy))

    return _from_op(data, (x,), backward)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-slice normalization over the last (feature) axis with learnable scale/shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * scale.data + shift.data
    if not _tracking(x, scale, shift):
        return _const(data)

    def backward(g):
        if scale.requires_grad:
            accumulate(scale, unbroadcast(g * xhat, scale.data.shape))
        if shift.requires_grad:
            accumulate(shift, unbroadcast(g, shift.data.shape))
        if x.requires_grad:
            gh = g * scale.data
            gm = gh.mean(axis=-1, keepdims=True)
            gy = (gh * xhat).mean(axis=-1, keepdims=True)
            accumulate(x, inv * (gh - gm - xhat * gy))

    return _from_op(data, (x, scale, shift), backward)


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                momentum: float, eps: float, training: bool) -> Tensor:
    """Channel-wise batch normalization for (b, c, t) input.

    Train mode normalizes over batch and time per channel and updates the
    running stats in place (biased variance, consistent with the stats
    used for normalization). Eval mode applies the running stats.
    """
    squeeze = x.data.ndim == 2
    xv = reshape(x, (1,) + x.data.shape) if squeeze else x
    if xv.data.ndim != 3:
        raise ShapeError(f"batchnorm1d expects (b, c, t) input, got {x.data.shape}")
    b, c, t = xv.data.shape
    if training:
        if b * t <= 1:
            raise DegenerateBatchError(
                f"batchnorm1d needs more than one value per channel in train mode, got batch {b} x time {t}"
            )
        y = normalize_moments(xv, (0, 2), eps)
        mu = xv.data.mean(axis=(0, 2))
        var = xv.data.var(axis=(0, 2))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        inv = (1.0 / np.sqrt(running_var + eps))[None, :, None]
        y = (xv - running_mean[None, :, None].astype(xv.data.dtype)) * inv.astype(xv.data.dtype)
    out = y * reshape(gamma, (1, c, 1)) + reshape(beta, (1, c, 1))
    return reshape(out, out.data.shape[1:]) if squeeze else out


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale the last axis to unit Euclidean norm; near-zero inputs divide by eps."""
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    safe = norm > eps
    denom = np.where(safe, norm, eps)
    data = x.data / denom
    if not _tracking(x):
        return _const(data)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        gx = np.where(safe, (g - data * dot) / denom, g / eps)
        accumulate(x, gx)

    return _from_op(data, (x,), backward)


def logdet_psd(a: Tensor) -> Tensor:
    """log det of a symmetric positive-definite matrix via Cholesky.

    Accepts (d, d) or batched (..., d, d); the gradient is the symmetrized
    inverse, obtained by solving against the Cholesky factor rather than
    inverting the matrix directly.
    """
    if a.data.ndim < 2 or a.data.shape[-1] != a.data.shape[-2]:
        raise ShapeError(f"logdet_psd needs a square matrix, got {a.data.shape}")
    try:
        chol = np.linalg.cholesky(a.data)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    data = 2.0 * np.log(diag).sum(axis=-1)
    if not _tracking(a):
        return _const(data)

    def backward(g):
        d = a.data.shape[-1]
        eye = np.broadcast_to(np.eye(d, dtype=a.data.dtype), a.data.shape).copy()
        linv = np.linalg.solve(chol, eye)
        ainv = np.swapaxes(linv, -1, -2) @ linv
        sym = 0.5 * (ainv + np.swapaxes(ainv, -1, -2))
        accumulate(a, np.asarray(g)[..., None, None] * sym)

    return _from_op(data, (a,), backward)


def mean_pool(z: Tensor) -> Tensor:
    """Arithmetic mean over the patch axis: (p, d) -> (d,) or (b, p, d) -> (b, d)."""
    return z.mean(axis=-2)


def attention(q: Tensor, k: Tensor, v: Tensor, return_weights: bool = False):
    """Scaled dot-product attention over all positions.

    Operates on (..., p, d_k) stacks; weights are softmax(q k^T / sqrt(d_k)).
    """
    d_k = q.data.shape[-1]
    scores = matmul(q, swapaxes(k, -1, -2)) * float(1.0 / np.sqrt(d_k))
    weights = softmax(scores, axis=-1)
    out = matmul(weights, v)
    if return_weights:
        return out, weights
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity in eval mode or when no rng is supplied."""
    if not training or rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * as_tensor(keep, x)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy from (b, c) logits, stabilized with a detached max shift."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (b, c) logits, got {logits.data.shape}")
    from .tensor import pick

    mx = logits.data.max(axis=-1, keepdims=True)
    z = logits - as_tensor(mx, logits)
    lse = z.exp().sum(axis=-1).log() + as_tensor(mx[:, 0], logits)
    return (lse - pick(logits, labels)).mean()
