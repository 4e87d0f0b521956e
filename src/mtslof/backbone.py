"""Backbone network: convolutional patch tokenizer, sinusoidal positional
encoding, transformer encoder stack, global average pooling, and a linear
classification head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops, parallel
from .errors import ConfigError, InputTooShortError, ShapeError
from .tensor import Tensor, as_tensor, grad_enabled, parameter, reshape, swapaxes

# Batches of fewer samples than this are pooled in one process. Alone, a
# split pays from about 64 samples; in a training process it also makes
# the next step fault in the pages the fork shared, and it pays from about
# 128 (an evaluation pass plus the step after it, 2-vCPU VM).
_SPLIT_MIN_BATCH = 128
# Samples per call within a half. After the fork, the first write to each
# page is a copy-on-write fault; smaller calls write fewer pages.
_SPLIT_PIECE = 64


@dataclass
class PatcherConfig:
    """Five conv layers: (first_kernel, first_stride), three fixed (8, 2), final (1, 1).

    channel_widths are the output channels of the first four convs; the
    last width must equal the encoder model dimension, and the final 1x1
    conv mixes channels at that width.
    """

    first_kernel: int = 8
    first_stride: int = 1
    channel_widths: tuple[int, ...] = (32, 64, 128, 64)
    input_channels: int = 2

    def __post_init__(self):
        if self.first_kernel < 1 or self.first_stride < 1:
            raise ConfigError("first_kernel and first_stride must be positive")
        if len(self.channel_widths) != 4 or any(w < 1 for w in self.channel_widths):
            raise ConfigError(f"channel_widths must be 4 positive ints, got {self.channel_widths}")
        if self.input_channels < 1:
            raise ConfigError("input_channels must be positive")

    def layer_shapes(self) -> list[tuple[int, int, int, int, int]]:
        """(c_in, c_out, kernel, stride, padding) per conv layer."""
        w = self.channel_widths
        d = w[-1]
        return [
            (self.input_channels, w[0], self.first_kernel, self.first_stride, self.first_kernel // 2),
            (w[0], w[1], 8, 2, 3),
            (w[1], w[2], 8, 2, 3),
            (w[2], w[3], 8, 2, 3),
            (w[3], d, 1, 1, 0),
        ]


@dataclass
class EncoderConfig:
    model_dim: int = 64
    heads: int = 4
    depth: int = 4
    ffn_multiplier: int = 4
    dropout: float = 0.1

    def __post_init__(self):
        if self.model_dim < 1 or self.heads < 1 or self.depth < 0 or self.ffn_multiplier < 1:
            raise ConfigError("encoder dimensions must be positive (depth may be zero)")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def patch_count(t: int, cfg: PatcherConfig) -> int:
    """Token count produced by chaining the conv length formula through all five layers."""
    length = t
    for i, (_, _, k, s, pad) in enumerate(cfg.layer_shapes(), start=1):
        if length + 2 * pad < k:
            raise InputTooShortError(
                f"conv layer {i} cannot run: length {length} + 2*{pad} padding < kernel {k}"
            )
        length = ops.conv_output_length(length, k, s, pad)
        if length < 1:
            raise InputTooShortError(f"conv layer {i} would output length {length}")
    return length


def positional_encoding(p: int, d: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal position table: sin at even columns, cos at odd ones."""
    if d % 2 != 0:
        raise ConfigError(f"positional encoding needs an even dimension, got {d}")
    pos = np.arange(p, dtype=np.float64)[:, None]
    j = np.arange(d // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * j / d)
    table = np.zeros((p, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table.astype(dtype)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            return out
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))


def initial_weights(rng: np.random.Generator | None, shape, std: float = 0.02) -> np.ndarray:
    """`trunc_normal` draws, or zeros with no draw when `rng` is None (a model
    whose tensors a checkpoint fills, or a zero-initialized head)."""
    return np.zeros(shape) if rng is None else trunc_normal(rng, shape, std)


class Linear:
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None):
        self.weight = parameter(initial_weights(rng, (d_out, d_in)))
        self.bias = parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        return {prefix + "weight": self.weight, prefix + "bias": self.bias}


class Conv1dLayer:
    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, padding: int,
                 rng: np.random.Generator | None):
        # Fan-in scaling keeps token magnitudes comparable to the positional
        # table; a fixed tiny std would leave tokens dominated by it.
        std = float((c_in * kernel) ** -0.5)
        self.weight = parameter(initial_weights(rng, (c_out, c_in, kernel), std=std))
        self.bias = parameter(np.zeros(c_out))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.weight, self.bias, self.stride, self.padding)

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        return {prefix + "weight": self.weight, prefix + "bias": self.bias}


class BatchNorm1dLayer:
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=self.gamma.data.dtype)
        self.running_var = np.ones(channels, dtype=self.gamma.data.dtype)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ops.batchnorm1d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            self.momentum, self.eps, training,
        )

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        return {prefix + "gamma": self.gamma, prefix + "beta": self.beta}

    def named_buffers(self, prefix: str) -> dict[str, np.ndarray]:
        return {prefix + "running_mean": self.running_mean, prefix + "running_var": self.running_var}


class LayerNormLayer:
    def __init__(self, dim: int, eps: float = 1e-5):
        self.scale = parameter(np.ones(dim))
        self.shift = parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.scale, self.shift, self.eps)

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        return {prefix + "scale": self.scale, prefix + "shift": self.shift}


class MultiHeadAttention:
    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None):
        self.dim = dim
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, p, d = x.data.shape
        dk = d // self.heads

        def split(t: Tensor) -> Tensor:
            return swapaxes(reshape(t, (b, p, self.heads, dk)), 1, 2)

        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        out = ops.attention(q, k, v)
        merged = reshape(swapaxes(out, 1, 2), (b, p, d))
        return self.wo(merged)

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, lin in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            out.update(lin.named_tensors(f"{prefix}{name}."))
        return out


class FeedForward:
    def __init__(self, dim: int, multiplier: int, rng: np.random.Generator | None):
        self.lin1 = Linear(dim, dim * multiplier, rng)
        self.lin2 = Linear(dim * multiplier, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(ops.gelu(self.lin1(x)))

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        out = self.lin1.named_tensors(prefix + "lin1.")
        out.update(self.lin2.named_tensors(prefix + "lin2."))
        return out


class EncoderBlock:
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.norm1 = LayerNormLayer(cfg.model_dim)
        self.attn = MultiHeadAttention(cfg.model_dim, cfg.heads, rng)
        self.norm2 = LayerNormLayer(cfg.model_dim)
        self.ffn = FeedForward(cfg.model_dim, cfg.ffn_multiplier, rng)

    def __call__(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        rate = self.cfg.dropout
        x = x + ops.dropout(self.attn(self.norm1(x)), rate, training, rng)
        return x + ops.dropout(self.ffn(self.norm2(x)), rate, training, rng)

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        out = self.norm1.named_tensors(prefix + "norm1.")
        out.update(self.attn.named_tensors(prefix + "attn."))
        out.update(self.norm2.named_tensors(prefix + "norm2."))
        out.update(self.ffn.named_tensors(prefix + "ffn."))
        return out


class TransformerEncoder:
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.blocks = [EncoderBlock(cfg, rng) for _ in range(cfg.depth)]

    def __call__(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        if x.data.ndim != 3:
            raise ShapeError(f"the transformer expects (b, p, d) tokens, got {x.data.shape}")
        for block in self.blocks:
            x = block(x, training, rng)
        return x

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, block in enumerate(self.blocks):
            out.update(block.named_tensors(f"{prefix}block{i}."))
        return out


class ConvPatcher:
    """Turns a (b, m, t) batch of series into (b, p, d) token sequences.

    Layers 1-4 are each followed by batch normalization and GELU; the
    final 1x1 layer is bare.
    """

    def __init__(self, cfg: PatcherConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        shapes = cfg.layer_shapes()
        self.convs = [Conv1dLayer(ci, co, k, s, pad, rng) for ci, co, k, s, pad in shapes]
        self.norms = [BatchNorm1dLayer(co) for _, co, _, _, _ in shapes[:4]]

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        for conv, norm in zip(self.convs[:4], self.norms):
            x = ops.gelu(norm(conv(x), training))
        return swapaxes(self.convs[4](x), -1, -2)

    def named_tensors(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, conv in enumerate(self.convs, start=1):
            out.update(conv.named_tensors(f"{prefix}conv{i}."))
        for i, norm in enumerate(self.norms, start=1):
            out.update(norm.named_tensors(f"{prefix}bn{i}."))
        return out

    def named_buffers(self, prefix: str) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, norm in enumerate(self.norms, start=1):
            out.update(norm.named_buffers(f"{prefix}bn{i}."))
        return out


class Backbone:
    """f_theta plus the linear head: patchify, encode, pool, classify.

    `seed` None draws nothing and leaves every weight zero.
    """

    def __init__(self, patcher_cfg: PatcherConfig, encoder_cfg: EncoderConfig,
                 class_count: int, seed: int | None = 0):
        if patcher_cfg.channel_widths[-1] != encoder_cfg.model_dim:
            raise ConfigError(
                f"last channel width {patcher_cfg.channel_widths[-1]} must equal "
                f"model_dim {encoder_cfg.model_dim}"
            )
        rng = None if seed is None else np.random.default_rng(seed)
        self.patcher_cfg = patcher_cfg
        self.encoder_cfg = encoder_cfg
        self.class_count = class_count
        self.patcher = ConvPatcher(patcher_cfg, rng)
        self.encoder = TransformerEncoder(encoder_cfg, rng)
        self.head = Linear(encoder_cfg.model_dim, class_count, rng)

    # -- forward pieces ------------------------------------------------

    def tokens_with_pe(self, x: Tensor, training: bool = False) -> Tensor:
        """Patcher output with the positional table added at each position."""
        tokens = self.patcher(x, training)
        p = tokens.data.shape[-2]
        pe = positional_encoding(p, self.encoder_cfg.model_dim, dtype=tokens.data.dtype)
        return tokens + as_tensor(pe, tokens)

    def encode(self, tokens_pe: Tensor, training: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        return self.encoder(tokens_pe, training, rng)

    def represent(self, x: Tensor, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
        """Pooled sequence representation: (b, m, t) -> (b, d), or (m, t) -> (d,).

        The one entry that takes a single sample; every layer below takes a batch.
        In eval mode without a graph, BLAS runs on one thread and a batch of
        at least `_SPLIT_MIN_BATCH` samples is split in two: this process
        pools the first half while a worker forked for the call
        (`parallel.runner`) pools the second. Every GEMM has a fixed shape,
        so a sample's row has the same bits alone, in a batch or in a half.
        """
        single = x.data.ndim == 2
        if single:
            x = reshape(x, (1,) + x.data.shape)
        if training or grad_enabled():
            z = self._pool(x, training, rng)
        elif x.data.shape[0] < _SPLIT_MIN_BATCH:
            with parallel.one_blas_thread():
                z = self._pool(x)
        else:
            z = self._pool_halves(x.data)
        return reshape(z, z.data.shape[1:]) if single else z

    def _pool(self, x: Tensor, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
        return ops.mean_pool(self.encode(self.tokens_with_pe(x, training), training, rng))

    def _pool_halves(self, x: np.ndarray) -> Tensor:
        b = x.shape[0]
        half = (b + 1) // 2

        def pool_rows(rows: tuple[int, int]) -> np.ndarray:
            start, stop = rows
            return np.concatenate([
                self._pool(Tensor(x[i : min(i + _SPLIT_PIECE, stop)], dtype=x.dtype)).data
                for i in range(start, stop, _SPLIT_PIECE)])

        with parallel.runner(pool_rows) as second:
            second.submit((half, b))
            first = pool_rows((0, half))
            return Tensor(np.concatenate([first, second.result()]), dtype=first.dtype)

    def classify(self, z: Tensor) -> Tensor:
        return self.head(z)

    # -- state ----------------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out = self.patcher.named_tensors("patcher.")
        out.update(self.encoder.named_tensors("encoder."))
        out.update(self.head.named_tensors("head."))
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        return self.patcher.named_buffers("patcher.")
