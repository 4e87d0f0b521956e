"""Occlusion-invariant pretraining objective.

Each sample gets N distinct random masks. Visible tokens are encoded on
their own, a decoder fills hidden slots with one shared learnable mask
token plus positional information, and the pooled decoder outputs are
pulled toward the pooled full-view representation by negative cosine
similarity while a total-coding-rate term keeps the view batches from
collapsing.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import ops, parallel
from .backbone import Backbone, EncoderConfig, Linear, TransformerEncoder, positional_encoding, trunc_normal
from .errors import ConfigError, GraphConsumedError, NumericError, ShapeError
from .tensor import (
    Tensor,
    _const,
    _from_op,
    _run_backward,
    _tracking,
    accumulate,
    as_tensor,
    expand,
    no_grad,
    parameter,
    reshape,
    scatter_rows,
    swapaxes,
    take_rows,
)


@dataclass
class MaskConfig:
    ratio: float = 0.8
    count: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ConfigError(f"mask ratio must lie strictly inside (0, 1), got {self.ratio}")
        if self.count < 1:
            raise ConfigError(f"mask count must be positive, got {self.count}")


@dataclass
class TCRConfig:
    """Distortion and balance settings for the coding-rate regularizer.

    `epsilon` is the distortion scale (default sqrt(0.2), i.e. epsilon^2 = 0.2).
    `lam` multiplies the similarity term by default; `lambda_target` flips it
    onto the coding-rate term instead. `tcr_weight` scales the coding-rate
    term and setting it to zero removes the term for ablations.
    """

    epsilon: float = math.sqrt(0.2)
    lam: float = 100.0
    lambda_target: str = "sim"
    tcr_weight: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.lam < 0.0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if self.lambda_target not in ("sim", "tcr"):
            raise ConfigError(f"lambda_target must be 'sim' or 'tcr', got {self.lambda_target!r}")
        if self.tcr_weight < 0.0:
            raise ConfigError(f"tcr_weight must be nonnegative, got {self.tcr_weight}")


def hidden_count(p: int, ratio: float) -> int:
    """round(ratio * p), clamped so at least one patch stays on each side."""
    h = int(round(ratio * p))
    return min(max(h, 1), p - 1)


def _hide_first(keys: np.ndarray, h: int) -> np.ndarray:
    """Masks hiding, per row of uniform keys, the positions of its h smallest."""
    masks = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(masks, np.argsort(keys, axis=-1)[:, :h], True, axis=-1)
    return masks


def sample_masks(p: int, cfg: MaskConfig, rng: np.random.Generator | None = None,
                 batch: int | None = None) -> np.ndarray:
    """N distinct uniform h-subsets of positions as an (N, p) bool array, True
    marking a hidden patch; with `batch`, a (batch, N, p) array holding N
    distinct masks per sample.

    One uniform (batch * N, p) block is argsorted and each row hides its
    first h positions. A mask that repeats an earlier mask of its sample is
    redrawn, and only those.
    """
    if p < 2:
        raise ConfigError(f"masking needs at least 2 patch positions, got {p}")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    h = hidden_count(p, cfg.ratio)
    limit = math.comb(p, h)
    n = cfg.count
    if n > limit:
        raise ConfigError(f"{n} distinct masks requested but only C({p},{h})={limit} exist")
    b = 1 if batch is None else batch
    masks = _hide_first(rng.random((b * n, p)), h)
    sample = np.repeat(np.arange(b), n)[:, None]
    for _ in range(1000 * n + 1000):
        keys = np.concatenate([sample, np.packbits(masks, axis=-1)], axis=-1)
        _, first = np.unique(keys, axis=0, return_index=True)
        redraw = np.ones(b * n, dtype=bool)
        redraw[first] = False
        if not redraw.any():
            return masks if batch is None else masks.reshape(b, n, p)
        masks[redraw] = _hide_first(rng.random((int(redraw.sum()), p)), h)
    raise ConfigError(f"mask sampling failed to find {n} distinct masks")


class Decoder:
    """Transformer decoder with a shared learnable mask token.

    The block configuration mirrors the encoder's; depth defaults to 4.
    An optional d->d reconstruction head supports the masked-autoencoder
    baseline objective.
    """

    def __init__(self, encoder_cfg: EncoderConfig, depth: int = 4,
                 with_recon_head: bool = False, seed: int = 0):
        self.cfg = cfg = replace(encoder_cfg, depth=depth)
        rng = np.random.default_rng(seed)
        self.mask_token = parameter(trunc_normal(rng, (cfg.model_dim,)))
        self.blocks = TransformerEncoder(cfg, rng)
        self.recon_head = Linear(cfg.model_dim, cfg.model_dim, rng) if with_recon_head else None

    def __call__(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        return self.blocks(x, training, rng)

    def named_params(self) -> dict[str, Tensor]:
        out = {"mask_token": self.mask_token}
        out.update(self.blocks.named_tensors(""))
        if self.recon_head is not None:
            out.update(self.recon_head.named_tensors("recon."))
        return out


# -- masked-view operations ---------------------------------------------
#
# Each takes a stack of B views: tokens (B, p, d) and bool masks (B, p),
# True marking a hidden patch.


def _mask_indices(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending visible and hidden positions of (B, p) masks, shaped (B, v) and (B, h)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"masks must be a (B, p) stack, got shape {mask.shape}")
    counts = mask.sum(axis=-1)
    ragged = np.flatnonzero(counts != counts[:1])
    if ragged.size:
        i = int(ragged[0])
        raise ShapeError(f"mask {i} hides {counts[i]} patches but mask 0 hides {counts[0]}; "
                         "stacked masks must hide the same number")
    h = int(counts[0]) if counts.size else 0
    visible = np.nonzero(~mask)[1].reshape(len(mask), mask.shape[1] - h)
    hidden = np.nonzero(mask)[1].reshape(len(mask), h)
    return visible, hidden


def _check_masks(masks, expected: tuple[int, ...], loss: str) -> np.ndarray:
    """`masks` as a bool array, or a ShapeError naming the expected shape."""
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != expected:
        raise ShapeError(f"{loss} masks must have shape {expected}, got {masks.shape}")
    return masks


def encode_visible(tokens_pe: Tensor, mask: np.ndarray, backbone: Backbone,
                   training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Run the encoder on visible token rows only; hidden tokens never enter it."""
    visible, _ = _mask_indices(mask)
    if tokens_pe.data.shape[-2] != mask.shape[-1]:
        raise ShapeError(f"mask length {mask.shape[-1]} != patch count {tokens_pe.data.shape[-2]}")
    return backbone.encode(take_rows(tokens_pe, visible), training, rng)


def assemble_decoder_input(z_vis: Tensor, mask: np.ndarray, decoder: Decoder) -> Tensor:
    """Scatter encoded visible rows, fill hidden slots with the shared mask
    token, and add the positional table over all positions."""
    visible, hidden = _mask_indices(mask)
    p = mask.shape[-1]
    d = decoder.cfg.model_dim
    placed = scatter_rows(z_vis, visible, p)
    if hidden.size:
        token = reshape(decoder.mask_token, (1, 1, d))
        placed = placed + scatter_rows(expand(token, hidden.shape + (d,)), hidden, p)
    pe = positional_encoding(p, d, dtype=z_vis.data.dtype)
    return placed + as_tensor(pe, z_vis)


def decode_full(z_vis: Tensor, mask: np.ndarray, decoder: Decoder,
                training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Decode the assembled p-length sequence; output has one row per patch."""
    return decoder(assemble_decoder_input(z_vis, mask, decoder), training, rng)


def masked_view_representation(x: Tensor, mask: np.ndarray, backbone: Backbone,
                               decoder: Decoder, training: bool = False,
                               rng: np.random.Generator | None = None) -> Tensor:
    """Pooled decoder outputs, one masked view per sample: x (b, m, t) and
    masks (b, p) give (b, d). The reference that `lof_loss` is tested against."""
    tokens_pe = backbone.tokens_with_pe(x, training)
    z_vis = encode_visible(tokens_pe, mask, backbone, training, rng)
    return ops.mean_pool(decode_full(z_vis, mask, decoder, training, rng))


# -- losses ---------------------------------------------------------------


def _cosine(zn: Tensor, vn: Tensor) -> Tensor:
    """Cosines of unit rows: (..., d) against (..., n, d) gives (..., n)."""
    return (reshape(zn, zn.data.shape[:-1] + (1, zn.data.shape[-1])) * vn).sum(axis=-1)


def sim_loss(z: Tensor, views: Tensor) -> Tensor:
    """Negative mean cosine similarity between z (..., d) and its views (..., n, d)."""
    if views.data.ndim != z.data.ndim + 1 or views.data.shape[-2] == 0:
        raise ShapeError(f"sim_loss needs views (..., n, d) with n >= 1 for z {z.data.shape}, "
                         f"got {views.data.shape}")
    return -_cosine(ops.l2_normalize(z), ops.l2_normalize(views)).mean()


def _tcr_from_normalized(zn: Tensor, epsilon: float) -> Tensor:
    """Coding rate of row batches that are already unit-normalized.

    Accepts (b, d) or a stack (N, b, d); returns a scalar or one rate per
    batch of the stack, (N,). The Gram matrix is d x d:
    I + (d / (b * eps^2)) Z^T Z.
    """
    if zn.data.ndim not in (2, 3):
        raise ShapeError(f"the coding rate expects a (b, d) batch or an (N, b, d) stack, "
                         f"got {zn.data.shape}")
    if not np.isfinite(zn.data).all():
        raise NumericError("the coding rate received non-finite representations")
    b = zn.data.shape[-2]
    d = zn.data.shape[-1]
    scale = d / (b * epsilon * epsilon)
    zt = swapaxes(zn, -1, -2)
    gram = zt @ zn * scale + as_tensor(np.eye(d, dtype=zn.data.dtype), zn)
    return ops.logdet_psd(gram) * 0.5


def tcr_loss(zbatch: Tensor, cfg: TCRConfig) -> Tensor:
    """Total coding rate of a (b, d) batch, or the mean over an (N, b, d) stack."""
    rates = _tcr_from_normalized(ops.l2_normalize(zbatch), cfg.epsilon)
    return rates.mean() if zbatch.data.ndim == 3 else rates


def masked_mse(recon: Tensor, target: np.ndarray, hidden: np.ndarray) -> Tensor:
    """Squared error averaged over hidden-row entries only; zero when nothing is hidden."""
    if hidden.size == 0:
        return as_tensor(np.zeros((), dtype=recon.data.dtype), recon)
    rows = np.take_along_axis(target, hidden[..., None], axis=-2)
    diff = take_rows(recon, hidden) - as_tensor(rows, recon)
    return (diff * diff).mean()


# -- the masked-view branch as mask shards ----------------------------------
#
# The masked views are independent until the loss, and the loss is a sum
# over masks. So the branch runs as SHARDS fixed shards of the mask axis:
# shard 0 takes masks [0, N // 2) and shard 1 takes [N // 2, N). Each shard
# runs on its own leaf copies of the encoder and decoder parameters, so
# its gradients can be added into the model's in a fixed order, whether
# it ran in this process or in a worker.

SHARDS = 2
_forward_ids = itertools.count()


def _shard_params(backbone: Backbone, decoder: Decoder) -> list[Tensor]:
    """The parameters a mask shard reads, in a fixed order: encoder, then decoder."""
    return [*backbone.encoder.named_tensors("").values(), decoder.mask_token,
            *decoder.blocks.named_tensors("").values()]


def _shard_loss(tokens_pe: Tensor, zfn: Tensor, masks: np.ndarray, backbone: Backbone,
                decoder: Decoder, rng: np.random.Generator | None, training: bool,
                weights: tuple[float, float, int, float]) -> tuple[Tensor, Tensor, Tensor]:
    """One shard's part of the objective over its (b, n_s, p) masks.

    Returns the loss part -w_sim * sum(cos) / (b * N) - w_tcr * sum_m TCR_m / N,
    the (b, n_s) cosines and the (n_s,) per-mask coding rates.
    """
    sim_weight, tcr_weight, n, epsilon = weights
    b, n_s, p = masks.shape
    d = tokens_pe.data.shape[-1]
    mask_stack = masks.reshape(b * n_s, p)
    # All samples and masks of the shard stacked into one batch axis.
    tok_rep = reshape(expand(reshape(tokens_pe, (b, 1, p, d)), (b, n_s, p, d)), (b * n_s, p, d))
    z_vis = encode_visible(tok_rep, mask_stack, backbone, training, rng)     # (b*n_s, v, d)
    views = ops.mean_pool(decode_full(z_vis, mask_stack, decoder, training, rng))
    # Both terms share the one normalized stack of views.
    zn_views = reshape(ops.l2_normalize(views), (b, n_s, d))
    cos = _cosine(zfn, zn_views)                                                # (b, n_s)
    rates = _tcr_from_normalized(swapaxes(zn_views, 0, 1), epsilon)            # (n_s,)
    loss = cos.sum() * (-sim_weight / (b * n)) - rates.sum() * (tcr_weight / n)
    return loss, cos, rates


class MaskedViewShard:
    """The request handler of one mask shard.

    It holds a replica of the encoder and decoder whose parameters are its
    own leaves, and the graph of its last forward until that graph's
    backward. A forward request carries the current parameter values.
    """

    def __init__(self, backbone: Backbone, decoder: Decoder):
        # Arrays are shared, not copied: every forward rebinds them anyway.
        arrays = [t.data for t in (*backbone.named_params().values(),
                                   *decoder.named_params().values())]
        arrays += list(backbone.named_buffers().values())
        self.backbone, self.decoder = copy.deepcopy((backbone, decoder),
                                                    {id(a): a for a in arrays})
        self.params = _shard_params(self.backbone, self.decoder)
        self._graph = None

    def __call__(self, request):
        kind, args = request
        return self.forward(*args) if kind == "forward" else self.backward(*args)

    def forward(self, forward_id, values, tokens_pe, zfn, masks, rng, training, grad, weights):
        """Loss part, cosines and per-mask rates, as arrays."""
        self._graph = None
        for p, value in zip(self.params, values):
            p.data = value
            p.grad = None
        with contextlib.nullcontext() if grad else no_grad():
            tokens = Tensor(tokens_pe, requires_grad=grad, dtype=tokens_pe.dtype)
            full = Tensor(zfn, requires_grad=grad, dtype=zfn.dtype)
            loss, cos, rates = _shard_loss(tokens, full, masks, self.backbone, self.decoder,
                                           rng, training, weights)
        if grad:
            self._graph = (forward_id, loss, tokens, full)
        return loss.data, cos.data, rates.data

    def backward(self, forward_id, seed):
        """Gradients of the parameters and of the two inputs, from the
        upstream gradient `seed` of the forward `forward_id`."""
        if self._graph is None or self._graph[0] != forward_id:
            raise GraphConsumedError("the mask shard holds no graph of this forward; "
                                     "run the forward pass again")
        _, loss, tokens, full = self._graph
        self._graph = None
        _run_backward(loss, seed)
        grads = [p.grad for p in self.params]
        for p in self.params:
            p.grad = None
        return grads, tokens.grad, full.grad


@contextlib.contextmanager
def masked_view_shards(backbone: Backbone, decoder: Decoder):
    """The shards `lof_loss` runs on for the length of a run: shard 0 in
    this process, shard 1 in a forked worker when one can run
    (`parallel.runner`), with BLAS pinned to one thread."""
    with parallel.runner(MaskedViewShard(backbone, decoder)) as second:
        yield [parallel.Local(MaskedViewShard(backbone, decoder)), second]


def _run_shards(shards: list, requests: list) -> list:
    """Each shard's reply to its request, in shard order.

    The later shards are submitted first, so a worker starts before shard 0
    runs here. Every reply is collected before the first error is raised,
    so no stale reply stays in a worker's pipe.
    """
    for shard, request in reversed(list(zip(shards, requests))):
        shard.submit(request)
    replies, error = [], None
    for shard in shards[:len(requests)]:
        try:
            replies.append(shard.result())
        except Exception as exc:  # noqa: BLE001 - raised below, once all replies are in
            error = error or exc
    if error is not None:
        raise error
    return replies


def _masked_views(tokens_pe: Tensor, zfn: Tensor, masks: np.ndarray, params: list[Tensor],
                  shards: list, rngs: list, training: bool,
                  weights: tuple) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """The masked-view loss over all shards as one graph node with parents
    (tokens_pe, zfn), plus the (b, N) cosines and the (N,) per-mask rates."""
    n = masks.shape[1]
    cuts = [0, n // 2, n] if n > 1 else [0, n]
    grad = _tracking(tokens_pe, zfn, *params)
    forward_id = next(_forward_ids)
    values = [p.data for p in params]
    requests = [("forward", (forward_id, values, tokens_pe.data, zfn.data, masks[:, lo:hi],
                             rngs[s], training, grad, weights))
                for s, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
    replies = _run_shards(shards, requests)
    loss = np.asarray(sum(r[0] for r in replies), dtype=tokens_pe.data.dtype)
    cos = np.concatenate([r[1] for r in replies], axis=1)
    rates = np.concatenate([r[2] for r in replies])
    if not grad:
        return _const(loss), cos, rates

    def backward(g):
        # Shard 0's gradients are added first, then shard 1's.
        replies = _run_shards(shards, [("backward", (forward_id, g))] * len(requests))
        for grads, g_tokens, g_zfn in replies:
            for p, gp in zip(params, grads):
                if gp is not None:
                    accumulate(p, gp)
            for t, gt in ((tokens_pe, g_tokens), (zfn, g_zfn)):
                if t.requires_grad and gt is not None:
                    accumulate(t, gt)

    return _from_op(loss, (tokens_pe, zfn), backward), cos, rates


def lof_loss(x: Tensor, backbone: Backbone, decoder: Decoder,
             maskcfg: MaskConfig, tcrcfg: TCRConfig,
             rng: np.random.Generator | None = None,
             masks: np.ndarray | None = None,
             training: bool = True,
             shards: list | None = None) -> tuple[Tensor, dict]:
    """Full pretraining objective over a batch.

    Per sample: one full-view pooled representation and N masked-view
    representations, under N fresh masks or the given (b, N, p) bool `masks`.
    The loss combines the negative cosine similarity between full and masked
    views with the mean per-view coding rate of the masked-view batches
    (maximized), weighted per the TCRConfig switches. Returns (loss, metrics).

    The masked views run on `shards` (from `masked_view_shards`); without
    them, on in-process shards made for this call.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"lof_loss expects a (b, m, t) batch, got {x.data.shape}")
    b = x.data.shape[0]
    tokens_pe = backbone.tokens_with_pe(x, training)
    p = tokens_pe.data.shape[-2]

    if masks is None:
        if rng is None:
            rng = np.random.default_rng(maskcfg.rng_seed)
        masks = sample_masks(p, maskcfg, rng, batch=b)
    n = maskcfg.count
    masks = _check_masks(masks, (b, n, p), "lof_loss")

    # Full view: plain encoder path.
    zfn = ops.l2_normalize(ops.mean_pool(backbone.encode(tokens_pe, training, rng)))  # (b, d)

    # Each shard's dropout stream, drawn after the full view's draws.
    rngs = rng.spawn(SHARDS) if rng is not None else [None] * SHARDS
    if shards is None:
        shards = [parallel.Local(MaskedViewShard(backbone, decoder)) for _ in range(SHARDS)]
    sim_weight = tcrcfg.lam if tcrcfg.lambda_target == "sim" else 1.0
    tcr_weight = tcrcfg.tcr_weight * (tcrcfg.lam if tcrcfg.lambda_target == "tcr" else 1.0)
    total, cos, rates = _masked_views(tokens_pe, zfn, masks, _shard_params(backbone, decoder),
                                      shards, rngs, training,
                                      (sim_weight, tcr_weight, n, tcrcfg.epsilon))

    metrics = {
        "sim_loss": float(-cos.mean()),
        "tcr_mean": float(rates.mean()),
        "cos_mean": float(cos.mean()),
        "cos_min": float(cos.min()),
        "cos_max": float(cos.max()),
    }
    return total, metrics


def mae_recon_loss(x: Tensor, backbone: Backbone, decoder: Decoder,
                   maskcfg: MaskConfig, rng: np.random.Generator | None = None,
                   masks: np.ndarray | None = None,
                   training: bool = True) -> Tensor:
    """Masked-autoencoder baseline: reconstruct hidden patch tokens.

    One mask per sample, drawn or given as (b, p) bool `masks`, all hiding
    the same number of patches; the target is the patcher output (token
    space, no positional table), treated as constant. The error is averaged
    over hidden token entries only.
    """
    if decoder.recon_head is None:
        raise ConfigError("mae_recon_loss needs a decoder built with a reconstruction head")
    if x.data.ndim != 3:
        raise ShapeError(f"mae_recon_loss expects a (b, m, t) batch, got {x.data.shape}")
    b = x.data.shape[0]
    tokens = backbone.patcher(x, training)                                   # (b, p, d)
    p, d = tokens.data.shape[-2], tokens.data.shape[-1]
    pe = positional_encoding(p, d, dtype=tokens.data.dtype)
    tokens_pe = tokens + as_tensor(pe, tokens)
    target = tokens.data.copy()

    if masks is None:
        if rng is None:
            rng = np.random.default_rng(maskcfg.rng_seed)
        one = MaskConfig(ratio=maskcfg.ratio, count=1, rng_seed=maskcfg.rng_seed)
        masks = sample_masks(p, one, rng, batch=b)[:, 0]

    masks = _check_masks(masks, (b, p), "mae_recon_loss")
    z_vis = encode_visible(tokens_pe, masks, backbone, training, rng)
    recon = decoder.recon_head(decode_full(z_vis, masks, decoder, training, rng))
    _, hidden = _mask_indices(masks)
    return masked_mse(recon, target, hidden)
