"""Neural network operations built on the tensor engine.

Each primitive here carries a hand-derived backward rule; composite ops
are expressed through the engine's arithmetic so their gradients follow
automatically.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    reshape,
)

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


# Rows per GEMM in _gemm_blocks. One row of a BLAS GEMM result depends on
# the GEMM's row count (gemv, small-matrix or blocked kernel), not on where
# the row sits in it.
_GEMM_ROWS = 256


def _gemm_blocks(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(n, r, ...) @ (K, N) -> (n, r, N) in GEMMs of exactly max(1, 256 // r) items.

    Each item's trailing axes are flattened to K and the last block is
    zero-padded, so no GEMM's shape depends on n and an item's rows are the
    same bits in any batch. A contiguous `a` takes its full blocks in one
    batched matmul (a GEMM per block); a strided one is copied block by block.
    """
    n, r = a.shape[:2]
    k, cols = w.shape
    m = max(1, _GEMM_ROWS // r)
    out = np.empty((n, r, cols), dtype=np.result_type(a, w))
    full = n - n % m
    step = max(full, m) if a.flags.c_contiguous else m
    for start in range(0, full, step):
        stop = start + step
        np.matmul(a[start:stop].reshape(-1, m * r, k), w,
                  out=out[start:stop].reshape(-1, m * r, cols))
    if full < n:
        block = np.zeros((m,) + a.shape[1:], dtype=a.dtype)
        block[:n - full] = a[full:]
        out[full:] = (block.reshape(m * r, k) @ w).reshape(m, r, cols)[:n - full]
    return out


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept with length one, as fixed-shape GEMMs.

    numpy's reduce is slow on a short last axis; a product with a ones
    column through `_gemm_blocks` is not, and each row's sum is the same
    bits in any batch.
    """
    d = x.shape[-1]
    ones = np.ones((d, 1), dtype=x.dtype)
    return _gemm_blocks(x.reshape(-1, 1, d), ones).reshape(x.shape[:-1] + (1,))


def _row_max(x: np.ndarray) -> np.ndarray:
    """Maximum over the last axis, kept with length one: a pairwise np.maximum tree (exact)."""
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        top = np.maximum(x[..., :half], x[..., half:2 * half])
        x = top if x.shape[-1] % 2 == 0 else np.concatenate((top, x[..., -1:]), axis=-1)
    return x


def _col_sum(g: np.ndarray) -> np.ndarray:
    """(n, d) -> (d,): the sum over rows, as one ones-vector product."""
    return (np.ones((1, g.shape[0]), dtype=g.dtype) @ g)[0]


def _col2im(gcols: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Adjoint of the im2col windows: (b, t_out, k, c) -> (b, length, c), with
    window i's kernel offset j added at time i*stride + j.

    Offsets j..j+stride-1 of a window land on `stride` consecutive time
    steps, so each group of `stride` offsets is one contiguous
    (stride*c)-wide slab add over all windows (the last group may be
    narrower). Each time step receives its offsets in ascending order, as a
    strided slice add per offset would, so the sums are the same bits.
    """
    b, t_out, k, c = gcols.shape
    groups = -(-k // stride)
    rows = max(t_out + groups - 1, -(-length // stride))
    out = np.zeros((b, rows, stride * c), dtype=gcols.dtype)
    flat = gcols.reshape(b, t_out, k * c)
    for j in range(groups):
        lo, hi = j * stride * c, min((j + 1) * stride, k) * c
        out[:, j:j + t_out, :hi - lo] += flat[:, :, lo:hi]
    return out.reshape(b, rows * stride, c)[:, :length]


def conv_output_length(t: int, kernel: int, stride: int, padding: int) -> int:
    return (t + 2 * padding - kernel) // stride + 1


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over the time axis.

    x is (b, c_in, t); weight is (c_out, c_in, k). Output length is
    floor((t + 2*padding - k) / stride) + 1 and must be >= 1.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv1d expects (b, c_in, t) input, got {x.data.shape}")
    b, c_in, t = x.data.shape
    c_out, c_in_w, k = weight.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d channel mismatch: input {x.data.shape} vs kernel {weight.data.shape}")
    t_out = conv_output_length(t, k, stride, padding)
    if t_out < 1:
        raise InputTooShortError(
            f"conv1d input of length {t} with kernel {k}, stride {stride}, padding {padding} "
            f"yields output length {t_out}"
        )

    # Time-major (b, t + 2*padding, c_in): each window (k, c_in) is k*c_in
    # contiguous values, and a conv output (a transposed view of its GEMM
    # result) is copied in as contiguous runs.
    xp = np.zeros((b, t + 2 * padding, c_in), dtype=x.data.dtype)
    xp[:, padding:padding + t] = x.data.transpose(0, 2, 1)
    s0, s1, s2 = xp.strides
    windows = as_strided(xp, shape=(b, t_out, k, c_in), strides=(s0, s1 * stride, s1, s2))
    wmat = weight.data.transpose(0, 2, 1).reshape(c_out, k * c_in)

    parents = (x, weight) if bias is None else (x, weight, bias)
    tracking = _tracking(*parents)
    # im2col: backward needs the whole (b, t_out, k*c_in) matrix; without a
    # graph, _gemm_blocks copies the windows one block at a time.
    cols = np.ascontiguousarray(windows).reshape(b, t_out, k * c_in) if tracking else windows
    out = _gemm_blocks(cols, wmat.T)
    if bias is not None:
        out += bias.data
    data = out.transpose(0, 2, 1)
    if not tracking:
        return _const(data)

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(b * t_out, c_out)
        if weight.requires_grad:
            gw = (gmat.T @ cols.reshape(b * t_out, k * c_in)).reshape(c_out, k, c_in)
            accumulate(weight, np.ascontiguousarray(gw.transpose(0, 2, 1)))
        if bias is not None and bias.requires_grad:
            accumulate(bias, _col_sum(gmat))
        if x.requires_grad:
            gcols = (gmat @ wmat).reshape(b, t_out, k, c_in)
            gxp = _col2im(gcols, stride, t + 2 * padding)
            accumulate(x, gxp[:, padding : padding + t].transpose(0, 2, 1))

    return _from_op(data, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight.T + bias over the rows of x, every leading axis flattened.

    x is (..., d_in), weight is (d_out, d_in) and bias is (d_out,).
    """
    lead = x.data.shape[:-1]
    d_out, d_in = weight.data.shape
    if x.data.shape[-1:] != (d_in,):
        raise ShapeError(f"linear input {x.data.shape} does not match weight {weight.data.shape}")
    x2 = x.data.reshape(-1, d_in)
    data = (_gemm_blocks(x2[:, None], weight.data.T)[:, 0] + bias.data).reshape(lead + (d_out,))
    if not _tracking(x, weight, bias):
        return _const(data)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        if weight.requires_grad:
            accumulate(weight, g2.T @ x2)
        if bias.requires_grad:
            accumulate(bias, _col_sum(g2))
        if x.requires_grad:
            accumulate(x, (g2 @ weight.data).reshape(x.data.shape))

    return _from_op(data, (x, weight, bias), backward)


# erf(x) = x P(x^2) / Q(x^2) on [-4, 4], the float32 minimax rational of
# Eigen and XLA; beyond 4, erf rounds to +-1 in float32.
_ERF32_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))
# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| < 1 and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8; beyond 8, erf is +-1 in float64.
_ERF64_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF64_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
            2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC64_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC64_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
             9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
             1.65666309194161350182e3, 5.57535340817727675546e2)
# Elements per block of normal_cdf: a float32 block and its temporaries stay in L2.
_CDF_BLOCK = 1 << 15


def _polyval(x: np.ndarray, coeffs) -> np.ndarray:
    """Horner's rule with in-place ufuncs: coeffs[0] * x**n + ... + coeffs[n]."""
    out = x * coeffs[0]
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def _erf32(t: np.ndarray) -> None:
    """t <- erf(t) in place, for float32 t."""
    np.clip(t, -4.0, 4.0, out=t)
    t2 = t * t
    num = _polyval(t2, _ERF32_P)
    num *= t
    np.divide(num, _polyval(t2, _ERF32_Q), out=t)


def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise float64 erf to within 1e-15 absolute (Cephes)."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    inner = a < 1.0
    z = np.minimum(a, 1.0)
    z *= z
    small = x * _polyval(z, _ERF64_T) / _polyval(z, _ERF64_U)
    a = np.clip(a, 1.0, 8.0)
    erfc = np.exp(-a * a) * _polyval(a, _ERFC64_P) / _polyval(a, _ERFC64_Q)
    return np.where(inner, small, np.copysign(1.0 - erfc, x))


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2, elementwise.

    float32 input is evaluated in float32 with the rational above, block by
    block over the array in its memory order, and the result has x's layout;
    any other input is evaluated with the float64 `erf`. Each output element
    depends on its input element alone.
    """
    if x.dtype != np.float32:
        return 0.5 * (1.0 + erf(x * _INV_SQRT2))
    flat = np.ravel(x, order="K")
    out = np.empty_like(x)
    out_flat = out.ravel(order="K")
    for start in range(0, flat.size, _CDF_BLOCK):
        block = out_flat[start:start + _CDF_BLOCK]
        np.multiply(flat[start:start + _CDF_BLOCK], _INV_SQRT2, out=block)
        _erf32(block)
        block += 1.0
        block *= 0.5
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x)."""
    cdf = normal_cdf(x.data)
    data = x.data * cdf
    if not _tracking(x):
        return _const(data)

    def backward(g):
        # g * (cdf + x * pdf), pdf = exp(-x*x/2) / sqrt(2 pi), in one array.
        gx = np.multiply(x.data, -0.5, out=np.empty_like(x.data))
        gx *= x.data
        np.exp(gx, out=gx)
        gx *= _INV_SQRT_2PI
        gx *= x.data
        gx += cdf
        gx *= g
        accumulate(x, gx)

    return _from_op(data, (x,), backward)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    e = np.exp(x - _row_max(x))
    return e / _row_sum(e)


def _softmax_rows_vjp(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the logits of softmax weights `w` receiving `g`: w (g - sum(g w))."""
    return w * (g - _row_sum(g * w))


def softmax(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis; rows sum to one."""
    data = _softmax_rows(x.data)
    if not _tracking(x):
        return _const(data)

    def backward(g):
        accumulate(x, _softmax_rows_vjp(data, g))

    return _from_op(data, (x,), backward)


def _moments(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """inv = 1 / sqrt(var + eps) and x_hat = (x - mean) * inv over the last
    axis, inv kept with length one.

    The sums are `_row_sum`s, so each row is the same bits in any batch; the
    variance is the row sum of (x - mean)^2 over d.
    """
    d = x.shape[-1]
    centered = x - _row_sum(x) / d
    var = _row_sum(centered * centered) / d
    inv = 1.0 / np.sqrt(var + eps)
    return inv, centered * inv


def _moments_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Gradient at x of x_hat over the last axis, through the moments:
    inv (g - mean g - x_hat mean(g x_hat))."""
    d = g.shape[-1]
    gm = _row_sum(g) / d
    gy = _row_sum(g * xhat) / d
    return inv * (g - gm - xhat * gy)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-slice normalization over the last (feature) axis with learnable
    (d,) scale and shift."""
    d = x.data.shape[-1]
    inv, xhat = _moments(x.data, eps)
    data = xhat * scale.data + shift.data
    if not _tracking(x, scale, shift):
        return _const(data)

    def backward(g):
        if scale.requires_grad:
            accumulate(scale, _col_sum((g * xhat).reshape(-1, d)).reshape(scale.data.shape))
        if shift.requires_grad:
            accumulate(shift, _col_sum(g.reshape(-1, d)).reshape(shift.data.shape))
        if x.requires_grad:
            accumulate(x, _moments_backward(g * scale.data, xhat, inv))

    return _from_op(data, (x, scale, shift), backward)


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                momentum: float, eps: float, training: bool) -> Tensor:
    """Channel-wise batch normalization for (b, c, t) input.

    Train mode normalizes over batch and time per channel as one graph node
    and updates the running stats in place with the moments it used (biased
    variance). It works on x as a time-major (b*t, c) matrix, a free view of
    a conv output, and returns that layout; every per-channel sum, forward
    and backward, is a ones-row product (`_col_sum`). Eval mode applies the
    running stats; without a graph it writes every step into one array of
    x's dtype, which has the bits of the Tensor expression when gamma and
    beta share that dtype. With float32 running stats and momentum 1, eval
    on the batch just seen is the train output bit for bit.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batchnorm1d expects (b, c, t) input, got {x.data.shape}")
    b, c, t = x.data.shape
    if not training:
        mean = running_mean[None, :, None].astype(x.data.dtype)
        inv = (1.0 / np.sqrt(running_var + eps))[None, :, None].astype(x.data.dtype)
        if not _tracking(x, gamma, beta):
            # The expression below, operation for operation, in one array.
            y = x.data - mean
            y *= inv
            y *= gamma.data.reshape(1, c, 1)
            y += beta.data.reshape(1, c, 1)
            return _const(y)
        y = (x - mean) * inv
        return y * reshape(gamma, (1, c, 1)) + reshape(beta, (1, c, 1))

    n = b * t
    if n <= 1:
        raise DegenerateBatchError(
            f"batchnorm1d needs more than one value per channel in train mode, got batch {b} x time {t}"
        )
    xm = x.data.transpose(0, 2, 1).reshape(n, c)
    mu = _col_sum(xm) / n
    xhat = xm - mu
    var = _col_sum(xhat * xhat) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var
    data = y.reshape(b, t, c).transpose(0, 2, 1)
    if not _tracking(x, gamma, beta):
        return _const(data)

    def backward(g):
        gm = g.transpose(0, 2, 1).reshape(n, c)
        gsum = _col_sum(gm)
        gx = gm * xhat
        gdot = _col_sum(gx)
        if gamma.requires_grad:
            accumulate(gamma, gdot)
        if beta.requires_grad:
            accumulate(beta, gsum)
        if x.requires_grad:
            # gamma inv (g - x_hat mean(g x_hat) - mean g), written into gx.
            np.multiply(xhat, gdot / n, out=gx)
            np.subtract(gm, gx, out=gx)
            gx -= gsum / n
            gx *= gamma.data * inv
            accumulate(x, gx.reshape(b, t, c).transpose(0, 2, 1))

    return _from_op(data, (x, gamma, beta), backward)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale the last axis to unit Euclidean norm; near-zero inputs divide by eps."""
    norm = np.sqrt(_row_sum(x.data * x.data))
    safe = norm > eps
    denom = np.where(safe, norm, eps)
    data = x.data / denom
    if not _tracking(x):
        return _const(data)

    def backward(g):
        dot = _row_sum(g * data)
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


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention over all positions, as one graph node.

    Operates on (..., p, d_k) stacks; weights are softmax(q k^T / sqrt(d_k)).
    Backward keeps only the weights and rebuilds the rest from q, k and v.
    """
    scale = float(1.0 / np.sqrt(q.data.shape[-1]))
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    scores *= scale
    weights = _softmax_rows(scores)
    data = weights @ v.data
    if not _tracking(q, k, v):
        return _const(data)

    def backward(g):
        if v.requires_grad:
            accumulate(v, np.swapaxes(weights, -1, -2) @ g)
        if q.requires_grad or k.requires_grad:
            gs = _softmax_rows_vjp(weights, g @ np.swapaxes(v.data, -1, -2))
            gs *= scale
            if q.requires_grad:
                accumulate(q, gs @ k.data)
            if k.requires_grad:
                accumulate(k, np.swapaxes(gs, -1, -2) @ q.data)

    return _from_op(data, (q, k, v), backward)


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
