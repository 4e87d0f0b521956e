"""Occlusion-invariant pretraining objective.

Each sample gets N distinct random masks. Visible tokens are encoded on
their own, a decoder fills hidden slots with one shared learnable mask
token plus positional information, and the pooled decoder outputs are
pulled toward the pooled full-view representation by negative cosine
similarity while a total-coding-rate term keeps the view batches from
collapsing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .backbone import Backbone, EncoderConfig, Linear, TransformerEncoder, positional_encoding, trunc_normal
from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, as_tensor, expand, parameter, reshape, scatter_rows, swapaxes, take_rows


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


def sample_masks(p: int, cfg: MaskConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """N distinct uniform h-subsets of positions as an (N, p) bool array, True
    marking a hidden patch; a repeated draw is redrawn."""
    if p < 2:
        raise ConfigError(f"masking needs at least 2 patch positions, got {p}")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    h = hidden_count(p, cfg.ratio)
    limit = math.comb(p, h)
    if cfg.count > limit:
        raise ConfigError(
            f"{cfg.count} distinct masks requested but only C({p},{h})={limit} exist"
        )
    masks = np.zeros((cfg.count, p), dtype=bool)
    seen: set[frozenset[int]] = set()
    for _ in range(1000 * cfg.count + 1000):
        pick = frozenset(rng.choice(p, size=h, replace=False).tolist())
        if pick not in seen:
            masks[len(seen), list(pick)] = True
            seen.add(pick)
            if len(seen) == cfg.count:
                return masks
    raise ConfigError(f"mask sampling failed to find {cfg.count} distinct masks")


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

    Accepts (b, d) or a stack (N, b, d); returns a scalar (mean over the
    stack). The Gram matrix is d x d: I + (d / (b * eps^2)) Z^T Z.
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
    half_logdet = ops.logdet_psd(gram) * 0.5
    return half_logdet.mean() if zn.data.ndim == 3 else half_logdet


def tcr_loss(zbatch: Tensor, cfg: TCRConfig) -> Tensor:
    """Total coding rate of a (b, d) batch, or the mean over an (N, b, d) stack."""
    return _tcr_from_normalized(ops.l2_normalize(zbatch), cfg.epsilon)


def masked_mse(recon: Tensor, target: np.ndarray, hidden: np.ndarray) -> Tensor:
    """Squared error averaged over hidden-row entries only; zero when nothing is hidden."""
    if hidden.size == 0:
        return as_tensor(np.zeros((), dtype=recon.data.dtype), recon)
    rows = np.take_along_axis(target, hidden[..., None], axis=-2)
    diff = take_rows(recon, hidden) - as_tensor(rows, recon)
    return (diff * diff).mean()


def lof_loss(x: Tensor, backbone: Backbone, decoder: Decoder,
             maskcfg: MaskConfig, tcrcfg: TCRConfig,
             rng: np.random.Generator | None = None,
             masks: np.ndarray | None = None,
             training: bool = True) -> tuple[Tensor, dict]:
    """Full pretraining objective over a batch.

    Per sample: one full-view pooled representation and N masked-view
    representations, under N fresh masks or the given (b, N, p) bool `masks`.
    The loss combines the negative cosine similarity between full and masked
    views with the mean per-view coding rate of the masked-view batches
    (maximized), weighted per the TCRConfig switches. Returns (loss, metrics).
    """
    if x.data.ndim != 3:
        raise ShapeError(f"lof_loss expects a (b, m, t) batch, got {x.data.shape}")
    b = x.data.shape[0]
    tokens_pe = backbone.tokens_with_pe(x, training)
    p, d = tokens_pe.data.shape[-2], tokens_pe.data.shape[-1]

    if masks is None:
        if rng is None:
            rng = np.random.default_rng(maskcfg.rng_seed)
        # Per-sample streams: pretraining bytes depend on them. Replacing them
        # with one vectorized draw is ROADMAP Open item 1c.
        masks = np.stack([sample_masks(p, maskcfg, r) for r in rng.spawn(b)])
    n = maskcfg.count
    mask_stack = _check_masks(masks, (b, n, p), "lof_loss").reshape(b * n, p)

    # Full view: plain encoder path.
    z_full = ops.mean_pool(backbone.encode(tokens_pe, training, rng))       # (b, d)

    # Masked views, all samples and masks stacked into one batch axis.
    tok_rep = reshape(expand(reshape(tokens_pe, (b, 1, p, d)), (b, n, p, d)), (b * n, p, d))
    z_vis = encode_visible(tok_rep, mask_stack, backbone, training, rng)    # (b*n, v, d)
    views = ops.mean_pool(decode_full(z_vis, mask_stack, decoder, training, rng))  # (b*n, d)

    # Both terms share the one normalized stack of views.
    zn_views = ops.l2_normalize(views)
    cos = _cosine(ops.l2_normalize(z_full), reshape(zn_views, (b, n, d)))  # (b, n)
    loss_sim = -cos.mean()
    loss_tcr = _tcr_from_normalized(swapaxes(reshape(zn_views, (b, n, d)), 0, 1), tcrcfg.epsilon)

    sim_weight = tcrcfg.lam if tcrcfg.lambda_target == "sim" else 1.0
    tcr_weight = tcrcfg.tcr_weight * (tcrcfg.lam if tcrcfg.lambda_target == "tcr" else 1.0)
    total = loss_sim * sim_weight - loss_tcr * tcr_weight

    metrics = {
        "sim_loss": float(loss_sim.data),
        "tcr_mean": float(loss_tcr.data),
        "cos_mean": float(cos.data.mean()),
        "cos_min": float(cos.data.min()),
        "cos_max": float(cos.data.max()),
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
        masks = np.concatenate([sample_masks(p, one, r) for r in rng.spawn(b)])

    masks = _check_masks(masks, (b, p), "mae_recon_loss")
    z_vis = encode_visible(tokens_pe, masks, backbone, training, rng)
    recon = decoder.recon_head(decode_full(z_vis, masks, decoder, training, rng))
    _, hidden = _mask_indices(masks)
    return masked_mse(recon, target, hidden)
