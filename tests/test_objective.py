"""Objective tests: mask sampling, visible encoding, decoding, and losses."""

import math

import numpy as np
import pytest

from mtslof import ops
from mtslof.backbone import Backbone, EncoderConfig, PatcherConfig, positional_encoding
from mtslof.errors import ConfigError, NumericError, ShapeError
from mtslof.objective import (
    Decoder,
    MaskConfig,
    TCRConfig,
    _mask_indices,
    assemble_decoder_input,
    decode_full,
    encode_visible,
    hidden_count,
    lof_loss,
    mae_recon_loss,
    masked_mse,
    masked_view_representation,
    sample_masks,
    sim_loss,
    tcr_loss,
)
from mtslof.tensor import Tensor, no_grad, use_dtype
from mtslof.training import AdamW, OptimConfig, _pretrain_params, build_model

PATCHER = PatcherConfig(first_kernel=8, first_stride=1,
                        channel_widths=(4, 4, 4, 8), input_channels=2)
ENCODER = EncoderConfig(model_dim=8, heads=2, depth=1, ffn_multiplier=2, dropout=0.0)


def tiny_model(seed=0, decoder_depth=2, with_recon_head=False):
    return build_model(PATCHER, ENCODER, class_count=3, decoder_depth=decoder_depth,
                       seed=seed, with_recon_head=with_recon_head)


# -- mask sampling -------------------------------------------------------


def test_hidden_count_examples():
    assert hidden_count(16, 0.8) == 13
    assert hidden_count(4, 0.8) == 3
    assert hidden_count(10, 0.05) == 1      # clamped to at least one hidden
    assert hidden_count(10, 0.99) == 9      # clamped to at least one visible


def test_sample_masks_counts_and_distinct():
    masks = sample_masks(16, MaskConfig(ratio=0.8, count=20, rng_seed=5))
    assert isinstance(masks, np.ndarray) and masks.dtype == bool
    assert masks.shape == (20, 16)
    assert np.all(masks.sum(axis=1) == 13)
    assert len({tuple(row) for row in masks}) == 20
    visible, hidden = _mask_indices(masks)
    for i in range(20):
        assert np.array_equal(np.flatnonzero(masks[i]), hidden[i])
        assert np.array_equal(np.flatnonzero(~masks[i]), visible[i])


def test_sample_masks_deterministic():
    a = sample_masks(16, MaskConfig(ratio=0.8, count=20, rng_seed=9))
    b = sample_masks(16, MaskConfig(ratio=0.8, count=20, rng_seed=9))
    assert np.array_equal(a, b)


def test_sample_masks_infeasible_count():
    # C(4, 3) = 4 distinct masks exist
    with pytest.raises(ConfigError, match="distinct"):
        sample_masks(4, MaskConfig(ratio=0.8, count=5, rng_seed=0))


def test_sample_masks_batch_hides_h_and_n_distinct_masks_per_sample():
    masks = sample_masks(16, MaskConfig(ratio=0.8, count=20), np.random.default_rng(3), batch=64)
    assert masks.shape == (64, 20, 16) and masks.dtype == bool
    assert np.all(masks.sum(axis=-1) == 13)
    for sample in masks:
        assert len({tuple(row) for row in sample}) == 20


def test_sample_masks_redraws_repeats_until_every_mask_is_distinct():
    # C(4, 3) = 4: every sample must end with all four masks, so most first
    # draws repeat one and are redrawn.
    masks = sample_masks(4, MaskConfig(ratio=0.8, count=4), np.random.default_rng(0), batch=50)
    assert np.all(masks.sum(axis=-1) == 3)
    for sample in masks:
        assert sorted(map(tuple, sample.astype(int))) == sorted(
            tuple(1 - np.eye(4, dtype=int)[i]) for i in range(4))


def test_sample_masks_batch_hides_every_position_equally_often():
    masks = sample_masks(16, MaskConfig(ratio=0.8, count=20), np.random.default_rng(4), batch=2000)
    freq = masks.reshape(-1, 16).mean(axis=0)
    # 40,000 masks: the standard error of each frequency is about 0.002.
    assert np.all(np.abs(freq - 13 / 16) <= 0.01), freq


def test_sample_masks_batch_rejects_an_infeasible_count():
    with pytest.raises(ConfigError, match=r"only C\(4,3\)=4 exist"):
        sample_masks(4, MaskConfig(ratio=0.8, count=5), np.random.default_rng(0), batch=3)


def test_mask_ratio_validation():
    with pytest.raises(ConfigError):
        MaskConfig(ratio=0.0, count=1)
    with pytest.raises(ConfigError):
        MaskConfig(ratio=1.0, count=1)


# -- encode_visible --------------------------------------------------------


def test_encode_visible_all_visible_equals_full(rng):
    backbone, _ = tiny_model()
    x = Tensor(rng.normal(size=(1, 2, 32)).astype(np.float32))
    mask = np.zeros(4, dtype=bool)
    with no_grad():
        tokens = backbone.tokens_with_pe(x)
        via_visible = encode_visible(tokens, mask[None], backbone)
        full = backbone.encode(tokens)
    assert np.array_equal(via_visible.data, full.data)


def test_encode_visible_single_token(rng):
    backbone, _ = tiny_model()
    x = Tensor(rng.normal(size=(1, 2, 32)).astype(np.float32))
    mask = np.array([True, True, True, False])
    with no_grad():
        out = encode_visible(backbone.tokens_with_pe(x), mask[None], backbone)
    assert out.shape == (1, 1, 8)


def test_encode_visible_ignores_hidden_tokens(rng):
    backbone, _ = tiny_model()
    mask = np.array([True, False, True, False])
    tokens = rng.normal(size=(4, 8)).astype(np.float32)
    perturbed = tokens.copy()
    perturbed[0] += 100.0
    perturbed[2] -= 50.0
    with no_grad():
        a = encode_visible(Tensor(tokens[None]), mask[None], backbone).data
        b = encode_visible(Tensor(perturbed[None]), mask[None], backbone).data
    assert np.array_equal(a, b)


# -- decode_full --------------------------------------------------------------


def test_assemble_decoder_input_construction(rng):
    _, decoder = tiny_model()
    mask = np.array([True, False, True, False, True])
    z_vis = rng.normal(size=(2, 8)).astype(np.float32)
    with no_grad():
        assembled = assemble_decoder_input(Tensor(z_vis[None]), mask[None], decoder).data[0]
    pe = positional_encoding(5, 8)
    expect = pe.copy()
    expect[1] += z_vis[0]
    expect[3] += z_vis[1]
    for h in (0, 2, 4):
        expect[h] += decoder.mask_token.data
    assert np.allclose(assembled, expect, atol=1e-6)


def test_swapping_hidden_positions_changes_only_positional_rows(rng):
    # The mask token is shared, so two assembled inputs that differ in which
    # hidden slot is which are equal row-for-row after removing the table.
    _, decoder = tiny_model()
    z_vis = rng.normal(size=(2, 8)).astype(np.float32)
    mask = np.array([True, False, True, False])
    with no_grad():
        assembled = assemble_decoder_input(Tensor(z_vis[None]), mask[None], decoder).data[0]
    pe = positional_encoding(4, 8)
    stripped = assembled - pe
    assert np.allclose(stripped[0], stripped[2], atol=1e-6)


def test_decode_full_no_hidden(rng):
    backbone, decoder = tiny_model()
    mask = np.zeros(4, dtype=bool)
    z_vis = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32))
    with no_grad():
        out = decode_full(z_vis, mask[None], decoder)
    assert out.shape == (1, 4, 8)


def test_decode_full_output_shape(rng):
    backbone, decoder = tiny_model()
    mask = np.array([True, True, False, True])
    with no_grad():
        out = decode_full(Tensor(rng.normal(size=(1, 1, 8)).astype(np.float32)), mask[None], decoder)
    assert out.shape == (1, 4, 8)


def test_stacked_views_match_single_view_calls(rng):
    with use_dtype(np.float64):
        backbone, decoder = tiny_model()
        masks = sample_masks(4, MaskConfig(0.5, 3, rng_seed=1))             # (3, 4)
        hidden = np.stack([np.flatnonzero(m) for m in masks])
        tokens = rng.normal(size=(3, 4, 8))
        target = rng.normal(size=(3, 4, 8))
        with no_grad():
            z_vis = encode_visible(Tensor(tokens), masks, backbone)
            dec = decode_full(z_vis, masks, decoder)
            loss = masked_mse(dec, target, hidden)
            singles = []
            for i in range(3):
                z_i = encode_visible(Tensor(tokens[i][None]), masks[i][None], backbone)
                dec_i = decode_full(z_i, masks[i][None], decoder)
                assert np.array_equal(z_vis.data[i], z_i.data[0])
                assert np.array_equal(dec.data[i], dec_i.data[0])
                singles.append(float(masked_mse(dec_i, target[i][None], hidden[i][None]).data))
    assert z_vis.shape == (3, 2, 8) and dec.shape == (3, 4, 8)
    assert float(loss.data) == pytest.approx(np.mean(singles), rel=1e-12)


def test_masked_view_representation_composition(rng):
    backbone, decoder = tiny_model()
    x = Tensor(rng.normal(size=(1, 2, 32)).astype(np.float32))
    mask = np.array([True, False, True, True])
    with no_grad():
        direct = masked_view_representation(x, mask[None], backbone, decoder)
        tokens = backbone.tokens_with_pe(x)
        manual = ops.mean_pool(decode_full(encode_visible(tokens, mask[None], backbone),
                                           mask[None], decoder))
    assert direct.shape == (1, 8)
    assert np.array_equal(direct.data, manual.data)


def test_all_visible_pipeline_equals_plain_encoder(rng):
    backbone, _ = tiny_model()
    x = Tensor(rng.normal(size=(1, 2, 32)).astype(np.float32))
    mask = np.zeros(4, dtype=bool)
    with no_grad():
        tokens = backbone.tokens_with_pe(x)
        via_mask = ops.mean_pool(encode_visible(tokens, mask[None], backbone))
        plain = ops.mean_pool(backbone.encode(tokens))
    assert np.allclose(via_mask.data, plain.data, atol=1e-6)


# -- sim loss -------------------------------------------------------------------


def test_sim_loss_self_views():
    z = Tensor(np.array([1.0, 2.0, 2.0]))
    loss = sim_loss(z, Tensor(np.stack([z.data] * 3)))
    assert float(loss.data) == pytest.approx(-1.0, abs=1e-6)


def test_sim_loss_orthogonal_view():
    z = Tensor(np.array([1.0, 0.0]))
    v = Tensor(np.array([0.0, 1.0]))
    assert float(sim_loss(z, Tensor(v.data[None])).data) == pytest.approx(0.0, abs=1e-7)


def test_sim_loss_opposite_views_cancel():
    z = Tensor(np.array([1.0, 1.0]))
    assert float(sim_loss(z, Tensor(np.stack([z.data, (z * -1.0).data]))).data) == pytest.approx(0.0, abs=1e-6)


def test_sim_loss_bounded(rng):
    z = Tensor(rng.normal(size=6).astype(np.float32))
    views = Tensor(np.stack([rng.normal(size=6).astype(np.float32) for _ in range(5)]))
    value = float(sim_loss(z, views).data)
    assert -1.0 <= value <= 1.0


def test_sim_loss_minimum_iff_positive_multiples(rng):
    z = Tensor(np.array([1.0, -2.0, 0.5]))
    scaled = Tensor(np.array([2.0, -4.0, 1.0]))
    assert float(sim_loss(z, Tensor(scaled.data[None])).data) == pytest.approx(-1.0, abs=1e-6)
    other = Tensor(np.array([1.0, -2.0, 0.6]))
    assert float(sim_loss(z, Tensor(other.data[None])).data) > -1.0 + 1e-6


def test_sim_loss_stacked_views_match_per_pair_cosines(rng):
    zs = rng.normal(size=(4, 6))
    views = rng.normal(size=(4, 3, 6))
    ref = np.mean([[zs[i] @ views[i, j] / (np.linalg.norm(zs[i]) * np.linalg.norm(views[i, j]))
                    for j in range(3)] for i in range(4)])
    with use_dtype(np.float64):
        value = float(sim_loss(Tensor(zs), Tensor(views)).data)
    assert value == pytest.approx(-ref, abs=1e-12)


# -- tcr loss --------------------------------------------------------------------


def test_tcr_identical_rows_closed_form():
    b, d = 8, 16
    eps = math.sqrt(0.2)
    u = np.zeros(d)
    u[3] = 1.0
    z = Tensor(np.tile(u, (b, 1)))
    with use_dtype(np.float64):
        value = float(tcr_loss(Tensor(np.tile(u, (b, 1)), dtype=np.float64),
                               TCRConfig(epsilon=eps)).data)
    expect = 0.5 * math.log(1.0 + d / eps**2)
    assert value == pytest.approx(expect, abs=1e-6)


def test_tcr_orthonormal_rows_closed_form():
    b, d = 8, 16
    eps = math.sqrt(0.2)
    z = np.eye(d)[:b]
    with use_dtype(np.float64):
        value = float(tcr_loss(Tensor(z, dtype=np.float64), TCRConfig(epsilon=eps)).data)
    expect = (b / 2.0) * math.log(1.0 + d / (b * eps**2))
    assert value == pytest.approx(expect, abs=1e-6)


def test_tcr_square_orthonormal_closed_form():
    d = 8
    eps = math.sqrt(0.2)
    with use_dtype(np.float64):
        value = float(tcr_loss(Tensor(np.eye(d), dtype=np.float64),
                               TCRConfig(epsilon=eps)).data)
    expect = (d / 2.0) * math.log(1.0 + d / (d * eps**2))
    assert value == pytest.approx(expect, abs=1e-6)


def test_tcr_orthonormal_beats_collapsed():
    b, d = 8, 16
    eps = math.sqrt(0.2)
    cfg = TCRConfig(epsilon=eps)
    with use_dtype(np.float64):
        orth = float(tcr_loss(Tensor(np.eye(d)[:b], dtype=np.float64), cfg).data)
        u = np.zeros(d)
        u[0] = 1.0
        coll = float(tcr_loss(Tensor(np.tile(u, (b, 1)), dtype=np.float64), cfg).data)
    assert orth > coll


def test_tcr_nonnegative_and_permutation_invariant(rng):
    with use_dtype(np.float64):
        z = rng.normal(size=(6, 10))
        cfg = TCRConfig()
        a = float(tcr_loss(Tensor(z), cfg).data)
        assert a >= 0.0
        perm = rng.permutation(6)
        b = float(tcr_loss(Tensor(z[perm]), cfg).data)
        assert a == pytest.approx(b, rel=1e-10)


def test_tcr_orthonormal_is_empirical_maximum(rng):
    with use_dtype(np.float64):
        b, d = 6, 8
        cfg = TCRConfig()
        base = np.eye(d)[:b]
        best = float(tcr_loss(Tensor(base), cfg).data)
        for _ in range(25):
            pert = base + 0.3 * rng.normal(size=base.shape)
            value = float(tcr_loss(Tensor(pert), cfg).data)
            assert value <= best + 1e-9


def test_tcr_rejects_nonfinite():
    z = np.ones((3, 4))
    z[1, 2] = np.nan
    with pytest.raises(NumericError):
        tcr_loss(Tensor(z), TCRConfig())


def test_tcr_grad(rng):
    from conftest import assert_grads_close, central_diff
    from mtslof.tensor import parameter

    with use_dtype(np.float64):
        z = parameter(rng.normal(size=(5, 6)))
        cfg = TCRConfig()
        tcr_loss(z, cfg).backward()
        fd = central_diff(lambda: float(tcr_loss(Tensor(z.data), cfg).data), z.data)
        assert_grads_close(z.grad, fd, rtol=1e-4, label="tcr")


def test_tcr_stack_is_mean_of_its_slices(rng):
    with use_dtype(np.float64):
        z = rng.normal(size=(3, 5, 4))
        cfg = TCRConfig()
        stacked = float(tcr_loss(Tensor(z), cfg).data)
        slices = [float(tcr_loss(Tensor(z[i]), cfg).data) for i in range(3)]
    assert stacked == pytest.approx(np.mean(slices), rel=1e-12)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 5, 4)])
def test_tcr_rejects_other_ranks(shape):
    with pytest.raises(ShapeError, match="coding rate"):
        tcr_loss(Tensor(np.ones(shape)), TCRConfig())


# -- lof loss ----------------------------------------------------------------------


def test_lof_lambda_zero_is_negative_mean_tcr(rng):
    with use_dtype(np.float64):
        backbone, decoder = tiny_model()
        x = Tensor(rng.normal(size=(2, 2, 32)))
        cfg = TCRConfig(lam=0.0)
        loss, metrics = lof_loss(x, backbone, decoder, MaskConfig(0.8, 2),
                                 cfg, rng=np.random.default_rng(0), training=False)
        assert float(loss.data) == pytest.approx(-metrics["tcr_mean"], rel=1e-8)


def test_lof_nan_mask_token_raises_from_the_coding_rate(rng):
    backbone, decoder = tiny_model()
    decoder.mask_token.data[0] = np.nan
    x = Tensor(rng.normal(size=(2, 2, 32)).astype(np.float32))
    with pytest.raises(NumericError, match="coding rate received non-finite"):
        lof_loss(x, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
                 rng=np.random.default_rng(0), training=False)


def test_lof_single_mask_boundary(rng):
    backbone, decoder = tiny_model()
    x = Tensor(rng.normal(size=(2, 2, 32)).astype(np.float32))
    loss, metrics = lof_loss(x, backbone, decoder, MaskConfig(0.8, 1), TCRConfig(),
                             rng=np.random.default_rng(0), training=False)
    assert np.isfinite(float(loss.data))


def test_lof_stacked_matches_per_sample_composition(rng):
    with use_dtype(np.float64):
        backbone, decoder = tiny_model()
        b, n = 3, 2
        xs = rng.normal(size=(b, 2, 32))
        masks = np.stack([sample_masks(4, MaskConfig(0.8, n, rng_seed=j)) for j in range(b)])
        cfg = TCRConfig(lam=7.0)
        with no_grad():
            loss, _ = lof_loss(Tensor(xs), backbone, decoder, MaskConfig(0.8, n),
                               cfg, masks=masks, training=False)
            # manual per-sample composition
            full = []
            views = np.zeros((n, b, 8))
            for j in range(b):
                x = Tensor(xs[j][None])
                tokens = backbone.tokens_with_pe(x)
                full.append(ops.mean_pool(backbone.encode(tokens)).data[0])
                for i in range(n):
                    views[i, j] = masked_view_representation(
                        x, masks[j, i][None], backbone, decoder).data[0]
            cos_total = 0.0
            for j in range(b):
                fj = full[j] / np.linalg.norm(full[j])
                for i in range(n):
                    vij = views[i, j] / np.linalg.norm(views[i, j])
                    cos_total += float(fj @ vij)
            sim = -cos_total / (b * n)
            tcr = np.mean([float(tcr_loss(Tensor(views[i]), cfg).data) for i in range(n)])
            expect = cfg.lam * sim - tcr
        assert float(loss.data) == pytest.approx(expect, rel=1e-8)


def test_lof_loss_grads_match_finite_differences(rng):
    from conftest import assert_grads_close, central_diff

    with use_dtype(np.float64):
        backbone, decoder = tiny_model()
        x = rng.normal(size=(2, 2, 32))
        masks = np.stack([sample_masks(4, MaskConfig(0.5, 2, rng_seed=j)) for j in range(2)])
        cfg = TCRConfig(lam=10.0)

        def value():
            loss, _ = lof_loss(Tensor(x), backbone, decoder, MaskConfig(0.5, 2), cfg,
                               masks=masks, training=False)
            return loss

        value().backward()
        weight = backbone.named_params()["encoder.block0.attn.wv.weight"]
        for label, param in (("mask_token", decoder.mask_token), ("encoder wv", weight)):
            fd = central_diff(lambda: float(value().data), param.data, step=1e-6)
            assert_grads_close(param.grad, fd, rtol=1e-5, atol=1e-8, label=label)


def test_lof_lambda_target_switch(rng):
    with use_dtype(np.float64):
        backbone, decoder = tiny_model()
        xs = rng.normal(size=(2, 2, 32))
        masks = np.stack([sample_masks(4, MaskConfig(0.8, 2, rng_seed=j)) for j in range(2)])
        with no_grad():
            on_sim, m1 = lof_loss(Tensor(xs), backbone, decoder, MaskConfig(0.8, 2),
                                  TCRConfig(lam=10.0, lambda_target="sim"),
                                  masks=masks, training=False)
            on_tcr, m2 = lof_loss(Tensor(xs), backbone, decoder, MaskConfig(0.8, 2),
                                  TCRConfig(lam=10.0, lambda_target="tcr"),
                                  masks=masks, training=False)
        assert float(on_sim.data) == pytest.approx(10.0 * m1["sim_loss"] - m1["tcr_mean"], rel=1e-8)
        assert float(on_tcr.data) == pytest.approx(m2["sim_loss"] - 10.0 * m2["tcr_mean"], rel=1e-8)


def test_lof_loss_decreases_over_optimization(rng):
    backbone, decoder = tiny_model(seed=3)
    x = Tensor(rng.normal(size=(8, 2, 32)).astype(np.float32))
    maskcfg = MaskConfig(0.8, 4)
    tcrcfg = TCRConfig(lam=10.0)
    optim = AdamW(_pretrain_params(backbone, decoder),
                  OptimConfig(learning_rate=2e-3, epochs=1, batch_size=8))
    masks = np.stack([sample_masks(4, MaskConfig(0.8, 4, rng_seed=j)) for j in range(8)])
    first = None
    last = None
    for step in range(50):
        loss, _ = lof_loss(x, backbone, decoder, maskcfg, tcrcfg, masks=masks, training=True)
        optim.zero_grad()
        loss.backward()
        optim.step()
        value = float(loss.data)
        if first is None:
            first = value
        last = value
    assert last < first


# -- MAE baseline -------------------------------------------------------------------


def test_masked_mse_perfect_reconstruction_is_zero(rng):
    target = rng.normal(size=(4, 8)).astype(np.float32)
    hidden = np.array([1, 3])
    loss = masked_mse(Tensor(target[None].copy()), target[None], hidden[None])
    assert float(loss.data) == 0.0


def test_masked_mse_empty_hidden_is_zero(rng):
    target = rng.normal(size=(4, 8)).astype(np.float32)
    loss = masked_mse(Tensor(target[None] + 1.0), target[None], np.zeros((1, 0), dtype=np.int64))
    assert float(loss.data) == 0.0


def test_mae_recon_all_visible_is_zero(rng):
    backbone, decoder = tiny_model(with_recon_head=True)
    x = Tensor(rng.normal(size=(2, 2, 32)).astype(np.float32))
    masks = np.zeros((2, 4), dtype=bool)
    loss = mae_recon_loss(x, backbone, decoder, MaskConfig(0.8, 1), masks=masks,
                          training=False)
    assert float(loss.data) == 0.0


def test_mae_recon_requires_head(rng):
    backbone, decoder = tiny_model(with_recon_head=False)
    x = Tensor(rng.normal(size=(1, 2, 32)).astype(np.float32))
    with pytest.raises(ConfigError, match="reconstruction head"):
        mae_recon_loss(x, backbone, decoder, MaskConfig(0.8, 1))


def test_mae_recon_matches_loop_oracle(rng):
    with use_dtype(np.float64):
        backbone, decoder = tiny_model(with_recon_head=True)
        xs = rng.normal(size=(2, 2, 32))
        masks = np.array([[True, False, True, False],
                          [False, True, True, False]])
        with no_grad():
            loss = mae_recon_loss(Tensor(xs), backbone, decoder, MaskConfig(0.8, 1),
                                  masks=masks, training=False)
            # oracle: per-sample forward, masked squared error over hidden entries
            total, count = 0.0, 0
            for j in range(2):
                x = Tensor(xs[j][None])
                target = backbone.patcher(x).data[0]
                tokens = backbone.tokens_with_pe(x)
                z_vis = encode_visible(tokens, masks[j][None], backbone)
                recon = decoder.recon_head(decode_full(z_vis, masks[j][None], decoder)).data[0]
                hidden = np.flatnonzero(masks[j])
                total += ((recon[hidden] - target[hidden]) ** 2).sum()
                count += hidden.size * 8
        assert float(loss.data) == pytest.approx(total / count, rel=1e-6)


def test_mae_recon_grads_match_finite_differences(rng):
    from conftest import assert_grads_close, central_diff

    with use_dtype(np.float64):
        backbone, decoder = tiny_model(with_recon_head=True)
        x = rng.normal(size=(3, 2, 32))
        masks = sample_masks(4, MaskConfig(0.5, 3, rng_seed=2))

        def value():
            return mae_recon_loss(Tensor(x), backbone, decoder, MaskConfig(0.5, 1),
                                  masks=masks, training=False)

        value().backward()
        recon_weight = decoder.named_params()["recon.weight"]
        for label, param in (("mask_token", decoder.mask_token), ("recon.weight", recon_weight)):
            fd = central_diff(lambda: float(value().data), param.data, step=1e-6)
            assert_grads_close(param.grad, fd, rtol=1e-5, atol=1e-8, label=label)


def test_stacked_masks_hiding_different_counts_name_the_mask(rng):
    backbone, decoder = tiny_model(with_recon_head=True)
    x = Tensor(rng.normal(size=(3, 2, 32)).astype(np.float32))
    masks = np.array([[True, False, True, False], [False, True, True, False],
                      [True, False, False, False]])
    with pytest.raises(ShapeError, match="mask 2 hides 1"):
        mae_recon_loss(x, backbone, decoder, MaskConfig(0.8, 1), masks=masks)
    tokens = Tensor(rng.normal(size=(3, 4, 8)).astype(np.float32))
    with pytest.raises(ShapeError, match="mask 2"):
        encode_visible(tokens, masks, backbone)


@pytest.mark.parametrize("shape", [(3, 2, 4), (2, 2, 5), (2, 3, 4), (2, 4)],
                         ids=["batch", "patches", "count", "rank"])
def test_lof_loss_rejects_masks_of_the_wrong_shape(rng, shape):
    backbone, decoder = tiny_model()
    x = Tensor(rng.normal(size=(2, 2, 32)).astype(np.float32))
    with pytest.raises(ShapeError, match=r"must have shape \(2, 2, 4\)"):
        lof_loss(x, backbone, decoder, MaskConfig(0.5, 2), TCRConfig(),
                 masks=np.zeros(shape, dtype=bool), training=False)


@pytest.mark.parametrize("shape", [(3, 4), (2, 5), (2, 1, 4)], ids=["batch", "patches", "rank"])
def test_mae_recon_rejects_masks_of_the_wrong_shape(rng, shape):
    backbone, decoder = tiny_model(with_recon_head=True)
    x = Tensor(rng.normal(size=(2, 2, 32)).astype(np.float32))
    with pytest.raises(ShapeError, match=r"must have shape \(2, 4\)"):
        mae_recon_loss(x, backbone, decoder, MaskConfig(0.5, 1),
                       masks=np.zeros(shape, dtype=bool), training=False)
