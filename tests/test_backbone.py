"""Backbone tests: patch counting, positional table, attention stack, heads."""

import numpy as np
import pytest

from conftest import assert_grads_close, central_diff
from mtslof import ops
from mtslof.backbone import (
    Backbone,
    EncoderConfig,
    PatcherConfig,
    TransformerEncoder,
    patch_count,
    positional_encoding,
)
from mtslof.errors import ConfigError, InputTooShortError
from mtslof.tensor import Tensor, no_grad, use_dtype


TINY_PATCHER = PatcherConfig(first_kernel=8, first_stride=1,
                             channel_widths=(4, 4, 4, 8), input_channels=2)
TINY_ENCODER = EncoderConfig(model_dim=8, heads=2, depth=1, ffn_multiplier=2, dropout=0.0)


def tiny_backbone(seed=0, depth=1, dropout=0.0) -> Backbone:
    enc = EncoderConfig(model_dim=8, heads=2, depth=depth, ffn_multiplier=2, dropout=dropout)
    return Backbone(TINY_PATCHER, enc, class_count=3, seed=seed)


# -- patch_count ---------------------------------------------------------


@pytest.mark.parametrize("t,k,s,expected", [
    (128, 8, 1, 16),
    (3000, 25, 6, 62),
    (178, 8, 1, 22),
])
def test_patch_count_examples(t, k, s, expected):
    cfg = PatcherConfig(first_kernel=k, first_stride=s, input_channels=1)
    assert patch_count(t, cfg) == expected


def test_patch_count_too_short_names_layer():
    cfg = PatcherConfig(first_kernel=8, first_stride=1, input_channels=1)
    with pytest.raises(InputTooShortError, match="layer"):
        patch_count(4, cfg)


def test_patch_count_monotone_in_length():
    cfg = PatcherConfig(first_kernel=8, first_stride=2, input_channels=1)
    previous = 0
    for t in range(40, 400, 7):
        p = patch_count(t, cfg)
        assert p >= previous
        previous = p


# -- positional encoding ---------------------------------------------------


def test_positional_encoding_row_zero_alternates():
    table = positional_encoding(4, 8, dtype=np.float64)
    assert np.array_equal(table[0], np.array([0.0, 1.0] * 4))


def test_positional_encoding_closed_form_spots():
    table = positional_encoding(8, 6, dtype=np.float64)
    assert table[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
    assert table[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)
    assert table[5, 2] == pytest.approx(np.sin(5.0 / 10000.0 ** (2.0 / 6.0)), abs=1e-12)
    assert table[3, 5] == pytest.approx(np.cos(3.0 / 10000.0 ** (4.0 / 6.0)), abs=1e-12)


def test_positional_encoding_bounded():
    table = positional_encoding(64, 32)
    assert np.all(table >= -1.0) and np.all(table <= 1.0)


def test_positional_encoding_rows_distinct_at_scale():
    table = positional_encoding(10000, 64, dtype=np.float64)
    assert np.unique(table, axis=0).shape[0] == 10000


def test_positional_encoding_odd_dim_rejected():
    with pytest.raises(ConfigError):
        positional_encoding(4, 7)


# -- encoder -----------------------------------------------------------------


def test_encoder_depth_zero_is_identity(rng):
    enc = TransformerEncoder(EncoderConfig(model_dim=8, heads=2, depth=0,
                                           ffn_multiplier=2, dropout=0.0),
                             np.random.default_rng(0))
    x = Tensor(rng.normal(size=(1, 5, 8)).astype(np.float32))
    assert np.array_equal(enc(x).data, x.data)


def test_encoder_output_shape(rng):
    enc = TransformerEncoder(TINY_ENCODER, np.random.default_rng(0))
    out = enc(Tensor(rng.normal(size=(1, 7, 8)).astype(np.float32)))
    assert out.shape == (1, 7, 8)


def test_encoder_permutation_equivariance(rng):
    with use_dtype(np.float64):
        enc = TransformerEncoder(TINY_ENCODER, np.random.default_rng(3))
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        with no_grad():
            direct = enc(Tensor(x[None])).data[0]
            permuted = enc(Tensor(x[perm][None])).data[0]
        assert np.allclose(permuted, direct[perm], atol=1e-10)


def test_encoder_eval_batch_invariance(rng):
    backbone = tiny_backbone(depth=2)
    xs = rng.normal(size=(4, 2, 32)).astype(np.float32)
    with no_grad():
        batched = backbone.represent(Tensor(xs)).data
        singles = np.stack([backbone.represent(Tensor(xs[i])).data for i in range(4)])
    assert np.array_equal(batched, singles)


# -- patchify ------------------------------------------------------------------


def test_patchify_token_count_matches_patch_count(rng):
    backbone = tiny_backbone()
    for t in (32, 48, 64):
        with no_grad():
            tokens = backbone.patcher(Tensor(rng.normal(size=(1, 2, t)).astype(np.float32)))
        assert tokens.shape == (1, patch_count(t, TINY_PATCHER), 8)


def test_patchify_eval_deterministic(rng):
    backbone = tiny_backbone()
    x = Tensor(rng.normal(size=(1, 2, 32)).astype(np.float32))
    with no_grad():
        a = backbone.patcher(x).data
        b = backbone.patcher(x).data
    assert np.array_equal(a, b)


def test_patchify_eval_batch_invariance_exact(rng):
    backbone = tiny_backbone()
    xs = rng.normal(size=(6, 2, 32)).astype(np.float32)
    with no_grad():
        batched = backbone.patcher(Tensor(xs)).data
        doubled = backbone.patcher(Tensor(np.concatenate([xs, xs]))).data
        singles = np.concatenate([backbone.patcher(Tensor(xs[i][None])).data for i in range(6)])
    assert np.array_equal(batched, singles)
    assert np.array_equal(doubled[:6], batched)


def test_patchify_zero_input_is_input_independent_constant():
    backbone = tiny_backbone()
    with no_grad():
        a = backbone.patcher(Tensor(np.zeros((1, 2, 32), dtype=np.float32))).data
        b = backbone.patcher(Tensor(np.zeros((1, 2, 32), dtype=np.float32))).data
    assert np.array_equal(a, b)


def test_patchify_zero_input_zero_shifts_propagates_to_zero():
    # With biases and batchnorm shifts zeroed, eval mode maps zero input to
    # exactly zero tokens through the whole stack.
    backbone = tiny_backbone()
    for conv in backbone.patcher.convs:
        conv.bias.data[...] = 0.0
    for norm in backbone.patcher.norms:
        norm.beta.data[...] = 0.0
    with no_grad():
        out = backbone.patcher(Tensor(np.zeros((1, 2, 32), dtype=np.float32))).data
    assert np.array_equal(out, np.zeros_like(out))


# -- represent / classify -------------------------------------------------------


def test_represent_shape_and_determinism(rng):
    backbone = tiny_backbone()
    x = Tensor(rng.normal(size=(2, 32)).astype(np.float32))
    with no_grad():
        z1 = backbone.represent(x)
        z2 = backbone.represent(x)
    assert z1.shape == (8,)
    assert np.array_equal(z1.data, z2.data)


def test_represent_matches_manual_composition(rng):
    backbone = tiny_backbone()
    x = Tensor(rng.normal(size=(2, 32)).astype(np.float32))
    with no_grad():
        z = backbone.represent(x)
        manual = ops.mean_pool(backbone.encode(backbone.tokens_with_pe(Tensor(x.data[None]))))
    assert np.array_equal(z.data, manual.data[0])


def test_classify_zero_head_gives_zero_logits(rng):
    backbone = tiny_backbone()
    backbone.head.weight.data[...] = 0.0
    backbone.head.bias.data[...] = 0.0
    with no_grad():
        logits = backbone.classify(Tensor(rng.normal(size=(8,)).astype(np.float32)))
    assert np.array_equal(logits.data, np.zeros(3))


def test_classify_identity_head_passthrough(rng):
    enc = EncoderConfig(model_dim=8, heads=2, depth=0, ffn_multiplier=2, dropout=0.0)
    backbone = Backbone(TINY_PATCHER, enc, class_count=8, seed=0)
    backbone.head.weight.data[...] = np.eye(8)
    backbone.head.bias.data[...] = 0.0
    z = Tensor(np.arange(8.0, dtype=np.float32))
    with no_grad():
        assert np.allclose(backbone.classify(z).data, z.data, atol=1e-6)


def test_classify_represent_gradient(rng):
    with use_dtype(np.float64):
        backbone = tiny_backbone()
        x = Tensor(rng.normal(size=(2, 32)))
        w = backbone.head.weight
        loss = backbone.classify(backbone.represent(x, training=False)).sum()
        loss.backward()
        analytic = w.grad.copy()
        fd = central_diff(
            lambda: float(backbone.classify(backbone.represent(x, training=False)).sum().data),
            w.data)
        assert_grads_close(analytic, fd, rtol=1e-4, label="classify head weight")


# -- state dict ------------------------------------------------------------------


def test_named_params_stable_and_unique():
    a = tiny_backbone(seed=0, depth=2)
    b = tiny_backbone(seed=1, depth=2)
    names_a = list(a.named_params())
    names_b = list(b.named_params())
    assert names_a == names_b
    assert len(names_a) == len(set(names_a))
    assert "patcher.conv1.weight" in names_a
    assert "encoder.block1.attn.wq.weight" in names_a
    assert "head.weight" in names_a


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(model_dim=10, heads=3)
    with pytest.raises(ConfigError):
        Backbone(PatcherConfig(channel_widths=(4, 4, 4, 8), input_channels=1),
                 EncoderConfig(model_dim=16, heads=2), class_count=2)
