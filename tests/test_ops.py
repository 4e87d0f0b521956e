"""Neural-op tests: forward oracles and finite-difference gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import assert_grads_close, central_diff
from mtslof import ops
from mtslof.errors import (
    DegenerateBatchError,
    InputTooShortError,
    NotPositiveDefiniteError,
    ShapeError,
)
from mtslof.tensor import Tensor, parameter, use_dtype


# -- conv1d -------------------------------------------------------------


def test_conv_output_length_formula():
    assert ops.conv_output_length(16, 8, 2, 3) == 8


def test_conv1d_unit_impulse_is_identity(rng):
    x = Tensor(rng.normal(size=(1, 12)).astype(np.float32))
    kernel = Tensor(np.ones((1, 1, 1), dtype=np.float32))
    out = ops.conv1d(x, kernel, stride=1, padding=0)
    assert np.allclose(out.data, x.data)


def test_conv1d_matches_sliding_window_oracle(rng):
    with use_dtype(np.float64):
        x = rng.normal(size=(1, 12))
        w = rng.normal(size=(2, 1, 3))
        out = ops.conv1d(Tensor(x), Tensor(w), stride=1, padding=0)
        expect = np.zeros((2, 10))
        for c in range(2):
            for o in range(10):
                expect[c, o] = (x[0, o : o + 3] * w[c, 0]).sum()
        assert np.array_equal(out.data, expect) or np.allclose(out.data, expect, rtol=1e-15)


def test_conv1d_too_short_raises():
    x = Tensor(np.zeros((1, 4)))
    w = Tensor(np.zeros((1, 1, 8)))
    with pytest.raises(InputTooShortError):
        ops.conv1d(x, w, stride=1, padding=0)


def test_conv1d_channel_mismatch():
    with pytest.raises(ShapeError):
        ops.conv1d(Tensor(np.zeros((2, 10))), Tensor(np.zeros((3, 1, 3))))


def test_conv1d_grads_match_finite_differences(rng):
    with use_dtype(np.float64):
        xv = rng.normal(size=(2, 3, 10))
        wv = rng.normal(size=(4, 3, 3))
        bv = rng.normal(size=(4,))
        x, w, b = parameter(xv.copy()), parameter(wv.copy()), parameter(bv.copy())
        r = Tensor(rng.normal(size=(2, 4, 5)))
        loss = (ops.conv1d(x, w, b, stride=2, padding=1) * r).sum()
        loss.backward()
        for tensor, label in ((x, "x"), (w, "w"), (b, "b")):
            fd = central_diff(
                lambda: float((ops.conv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                                          stride=2, padding=1) * r).sum().data),
                tensor.data)
            assert_grads_close(tensor.grad, fd, rtol=1e-4, label=f"conv1d {label}")


@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_conv1d_length_formula_property(t, k, s, pad):
    t_out = (t + 2 * pad - k) // s + 1
    if t_out < 1:
        return
    x = Tensor(np.zeros((1, t), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, k), dtype=np.float32))
    out = ops.conv1d(x, w, stride=s, padding=pad)
    assert out.shape == (1, t_out)


# -- batchnorm ----------------------------------------------------------


def _bn_state(c):
    gamma = parameter(np.ones(c))
    beta = parameter(np.full(c, 0.5))
    return gamma, beta, np.zeros(c), np.ones(c)


def test_batchnorm_constant_input_gives_shift():
    with use_dtype(np.float64):
        gamma, beta, rm, rv = _bn_state(2)
        x = Tensor(np.full((3, 2, 5), 7.0))
        out = ops.batchnorm1d(x, gamma, beta, rm, rv, 0.1, 1e-5, training=True)
        assert np.allclose(out.data, 0.5, atol=1e-6)


def test_batchnorm_train_normalizes_per_channel(rng):
    with use_dtype(np.float64):
        gamma = parameter(np.ones(3))
        beta = parameter(np.zeros(3))
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 3, 7)))
        out = ops.batchnorm1d(x, gamma, beta, np.zeros(3), np.ones(3), 0.1, 1e-5, True)
        assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-10)
        assert np.allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-4)


def test_batchnorm_eval_reproduces_formula_after_one_step(rng):
    with use_dtype(np.float64):
        gamma = parameter(np.full(2, 1.5))
        beta = parameter(np.full(2, -0.5))
        rm, rv = np.zeros(2), np.ones(2)
        xb = rng.normal(size=(3, 2, 6))
        ops.batchnorm1d(Tensor(xb), gamma, beta, rm, rv, 1.0, 1e-5, training=True)
        mu = xb.mean(axis=(0, 2))
        var = xb.var(axis=(0, 2))
        y = ops.batchnorm1d(Tensor(xb), gamma, beta, rm, rv, 1.0, 1e-5, training=False)
        oracle = ((xb - mu[None, :, None]) / np.sqrt(var[None, :, None] + 1e-5)) * 1.5 - 0.5
        assert np.allclose(y.data, oracle, rtol=1e-10)


def test_batchnorm_degenerate_batch_raises():
    gamma, beta, rm, rv = _bn_state(2)
    with pytest.raises(DegenerateBatchError):
        ops.batchnorm1d(Tensor(np.zeros((1, 2, 1))), gamma, beta, rm, rv, 0.1, 1e-5, True)


def test_batchnorm_grad_matches_finite_differences(rng):
    with use_dtype(np.float64):
        xv = rng.normal(size=(3, 2, 5))
        x = parameter(xv.copy())
        gamma = parameter(rng.uniform(0.5, 1.5, 2))
        beta = parameter(rng.normal(size=2))
        r = Tensor(rng.normal(size=(3, 2, 5)))

        def fwd():
            return (ops.batchnorm1d(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data),
                                    np.zeros(2), np.ones(2), 0.1, 1e-5, True) * r).sum()

        loss = (ops.batchnorm1d(x, gamma, beta, np.zeros(2), np.ones(2), 0.1, 1e-5, True) * r).sum()
        loss.backward()
        fd = central_diff(lambda: float(fwd().data), x.data)
        assert_grads_close(x.grad, fd, rtol=1e-4, label="batchnorm x")


# -- gelu ---------------------------------------------------------------


def test_gelu_zero():
    assert float(ops.gelu(Tensor(np.zeros(()))).data) == 0.0


def test_gelu_asymptotics():
    with use_dtype(np.float64):
        assert abs(float(ops.gelu(Tensor(np.array(6.0))).data) - 6.0) < 1e-6
        assert abs(float(ops.gelu(Tensor(np.array(-6.0))).data)) < 1e-6


def test_gelu_uses_exact_erf_form(rng):
    with use_dtype(np.float64):
        x = rng.normal(size=17)
        out = ops.gelu(Tensor(x))
        expect = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        assert np.allclose(out.data, expect, rtol=1e-14)


def test_gelu_grad_at_half():
    with use_dtype(np.float64):
        x = parameter(np.array(0.5))
        ops.gelu(x).backward()
        fd = central_diff(lambda: float(ops.gelu(Tensor(x.data)).data), x.data, step=1e-5)
        assert_grads_close(x.grad, fd, rtol=1e-6, label="gelu@0.5")


# -- softmax ------------------------------------------------------------


def test_softmax_equal_logits_uniform():
    out = ops.softmax(Tensor(np.zeros((2, 5))))
    assert np.allclose(out.data, 0.2)


def test_softmax_shift_invariance(rng):
    with use_dtype(np.float64):
        x = rng.normal(size=(3, 4))
        a = ops.softmax(Tensor(x)).data
        b = ops.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-12)


def test_softmax_closed_form():
    with use_dtype(np.float64):
        out = ops.softmax(Tensor(np.array([[0.0, np.log(3.0)]])))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_grad(rng):
    with use_dtype(np.float64):
        x = parameter(rng.normal(size=(3, 5)))
        r = Tensor(rng.normal(size=(3, 5)))
        (ops.softmax(x) * r).sum().backward()
        fd = central_diff(lambda: float((ops.softmax(Tensor(x.data)) * r).sum().data), x.data)
        assert_grads_close(x.grad, fd, rtol=1e-4, label="softmax")


@given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one_and_nonnegative(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols)).astype(np.float32)
    out = ops.softmax(Tensor(x)).data
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)


# -- layer norm ----------------------------------------------------------


def test_layer_norm_constant_slice_gives_shift():
    with use_dtype(np.float64):
        scale = parameter(np.ones(6))
        shift = parameter(np.full(6, 2.0))
        out = ops.layer_norm(Tensor(np.full((3, 6), 4.0)), scale, shift)
        assert np.allclose(out.data, 2.0, atol=1e-6)


def test_layer_norm_moments(rng):
    with use_dtype(np.float64):
        scale = parameter(np.ones(8))
        shift = parameter(np.zeros(8))
        out = ops.layer_norm(Tensor(rng.normal(3.0, 2.0, size=(4, 8))), scale, shift)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_grad_on_4x8(rng):
    # The (2, 3, 8) input makes the scale and shift gradients reduce over
    # two leading axes.
    for shape in ((4, 8), (2, 3, 8)):
        with use_dtype(np.float64):
            x = parameter(rng.normal(size=shape))
            scale = parameter(rng.uniform(0.5, 1.5, 8))
            shift = parameter(rng.normal(size=8))
            r = Tensor(rng.normal(size=shape))
            (ops.layer_norm(x, scale, shift) * r).sum().backward()
            for tensor, label in ((x, "x"), (scale, "scale"), (shift, "shift")):
                fd = central_diff(
                    lambda: float((ops.layer_norm(Tensor(x.data), Tensor(scale.data),
                                                  Tensor(shift.data)) * r).sum().data),
                    tensor.data)
                assert_grads_close(tensor.grad, fd, rtol=1e-4, label=f"layer_norm {label} {shape}")


def test_layer_norm_forward_bit_equal_to_composed_expression(rng):
    x = parameter(rng.normal(3.0, 2.0, size=(5, 7, 16)))
    scale = parameter(rng.uniform(0.5, 1.5, 16))
    shift = parameter(rng.normal(size=16))
    composed = ops.normalize_moments(x, (-1,), 1e-5) * scale + shift
    out = ops.layer_norm(x, scale, shift, 1e-5)
    assert out.data.dtype == np.float32
    assert np.array_equal(out.data, composed.data)


# -- linear --------------------------------------------------------------


def test_linear_grads_match_finite_differences(rng):
    with use_dtype(np.float64):
        x = parameter(rng.normal(size=(2, 3, 4)))
        weight = parameter(rng.normal(size=(5, 4)))
        bias = parameter(rng.normal(size=5))
        r = Tensor(rng.normal(size=(2, 3, 5)))
        (ops.linear(x, weight, bias) * r).sum().backward()
        for tensor, label in ((x, "x"), (weight, "weight"), (bias, "bias")):
            fd = central_diff(
                lambda: float((ops.linear(Tensor(x.data), Tensor(weight.data),
                                          Tensor(bias.data)) * r).sum().data),
                tensor.data)
            assert_grads_close(tensor.grad, fd, rtol=1e-5, label=f"linear {label}")


def test_linear_forward_bit_equal_to_composed_expression(rng):
    weight = parameter(rng.normal(size=(24, 16)))
    bias = parameter(rng.normal(size=24))
    for shape in ((9, 16), (5, 7, 16)):
        x = parameter(rng.normal(size=shape))
        flat = x.reshape(-1, 16) @ weight.transpose() + bias
        composed = flat.reshape(shape[:-1] + (24,))
        out = ops.linear(x, weight, bias)
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, composed.data)


def test_linear_rejects_mismatched_input():
    with pytest.raises(ShapeError, match=r"\(3, 6\).*\(5, 4\)"):
        ops.linear(Tensor(np.zeros((3, 6))), parameter(np.zeros((5, 4))), parameter(np.zeros(5)))


# -- l2 normalize --------------------------------------------------------


def test_l2_normalize_closed_form():
    out = ops.l2_normalize(Tensor(np.array([3.0, 4.0])))
    assert np.allclose(out.data, [0.6, 0.8])


def test_l2_normalize_zero_vector():
    out = ops.l2_normalize(Tensor(np.zeros(4)))
    assert np.array_equal(out.data, np.zeros(4))


def test_l2_normalize_unit_norm(rng):
    with use_dtype(np.float64):
        v = rng.normal(size=(5, 7))
        out = ops.l2_normalize(Tensor(v))
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-12)


def test_l2_normalize_grad(rng):
    with use_dtype(np.float64):
        x = parameter(rng.normal(size=(3, 6)))
        r = Tensor(rng.normal(size=(3, 6)))
        (ops.l2_normalize(x) * r).sum().backward()
        fd = central_diff(lambda: float((ops.l2_normalize(Tensor(x.data)) * r).sum().data), x.data)
        assert_grads_close(x.grad, fd, rtol=1e-4, label="l2_normalize")


# -- logdet --------------------------------------------------------------


def test_logdet_identity_is_zero():
    assert float(ops.logdet_psd(Tensor(np.eye(4))).data) == pytest.approx(0.0, abs=1e-7)


def test_logdet_diagonal_closed_form():
    with use_dtype(np.float64):
        out = ops.logdet_psd(Tensor(np.diag([2.0, 3.0])))
        assert float(out.data) == pytest.approx(np.log(6.0), rel=1e-12)


def test_logdet_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError):
        ops.logdet_psd(Tensor(np.diag([1.0, -1.0])))


def test_logdet_grad_random_spd(rng):
    # The gradient is defined under the symmetric parametrization, so the
    # finite-difference oracle perturbs mirrored entries together.
    with use_dtype(np.float64):
        m = rng.normal(size=(5, 5))
        spd = m @ m.T + 5.0 * np.eye(5)
        a = parameter(spd.copy())
        ops.logdet_psd(a).backward()
        h = 1e-4
        for i in range(5):
            for j in range(i, 5):
                pert = np.zeros((5, 5))
                pert[i, j] += h
                pert[j, i] += h
                fp = float(ops.logdet_psd(Tensor(spd + pert)).data)
                fm = float(ops.logdet_psd(Tensor(spd - pert)).data)
                fd = (fp - fm) / (2.0 * h)
                analytic = a.grad[i, j] + a.grad[j, i] if i != j else a.grad[i, i] * 2.0
                if i == j:
                    analytic = a.grad[i, i]
                    fd /= 2.0
                assert_grads_close(analytic, fd, rtol=1e-4, label=f"logdet[{i},{j}]")


def test_logdet_grad_through_gram_construction(rng):
    # End-to-end check through the symmetric construction used in practice.
    from mtslof.tensor import transpose

    with use_dtype(np.float64):
        v = parameter(rng.normal(size=(4, 6)))
        scale = 1.7

        def loss_from(data):
            z = Tensor(data)
            gram = transpose(z) @ z * scale + Tensor(np.eye(6))
            return float(ops.logdet_psd(gram).data)

        gram = transpose(v) @ v * scale + Tensor(np.eye(6))
        ops.logdet_psd(gram).backward()
        fd = central_diff(lambda: loss_from(v.data), v.data)
        assert_grads_close(v.grad, fd, rtol=1e-4, label="logdet via gram")


def test_logdet_inverse_cancellation(rng):
    with use_dtype(np.float64):
        for _ in range(5):
            m = rng.normal(size=(6, 6))
            spd = m @ m.T + 6.0 * np.eye(6)
            total = float(ops.logdet_psd(Tensor(spd)).data) + float(
                ops.logdet_psd(Tensor(np.linalg.inv(spd))).data)
            assert abs(total) < 1e-8


def test_logdet_batched(rng):
    with use_dtype(np.float64):
        ms = rng.normal(size=(3, 4, 4))
        spds = ms @ np.swapaxes(ms, -1, -2) + 4.0 * np.eye(4)
        out = ops.logdet_psd(Tensor(spds))
        assert out.shape == (3,)
        expect = [np.linalg.slogdet(spds[i])[1] for i in range(3)]
        assert np.allclose(out.data, expect, rtol=1e-10)


# -- mean pool and attention ----------------------------------------------


def test_mean_pool_single_row():
    z = Tensor(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(ops.mean_pool(z).data, [1.0, 2.0, 3.0])


def test_mean_pool_closed_form():
    z = Tensor(np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert np.allclose(ops.mean_pool(z).data, [2.0, 2.0])


def test_mean_pool_grad_distributes():
    with use_dtype(np.float64):
        z = parameter(np.ones((4, 3)))
        ops.mean_pool(z).sum().backward()
        assert np.allclose(z.grad, 0.25)


def test_attention_single_position_returns_v(rng):
    with use_dtype(np.float64):
        q = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 4)))
        out = ops.attention(q, k, v)
        assert np.allclose(out.data, v.data)


def test_attention_identical_keys_average_values(rng):
    with use_dtype(np.float64):
        q = Tensor(rng.normal(size=(3, 2)))
        k = Tensor(np.tile(rng.normal(size=(1, 2)), (3, 1)))
        v = Tensor(rng.normal(size=(3, 2)))
        out = ops.attention(q, k, v)
        assert np.allclose(out.data, np.tile(v.data.mean(0), (3, 1)), atol=1e-12)


def test_attention_matches_three_loop_oracle(rng):
    with use_dtype(np.float64):
        q = rng.normal(size=(3, 2))
        k = rng.normal(size=(3, 2))
        v = rng.normal(size=(3, 2))
        out = ops.attention(Tensor(q), Tensor(k), Tensor(v))
        expect = np.zeros((3, 2))
        for i in range(3):
            scores = np.array([q[i] @ k[j] / np.sqrt(2.0) for j in range(3)])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            for j in range(3):
                expect[i] += w[j] * v[j]
        assert np.allclose(out.data, expect, atol=1e-6)


def test_attention_weights_row_stochastic(rng):
    out, weights = ops.attention(Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32)),
                                 Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32)),
                                 Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32)),
                                 return_weights=True)
    assert np.all(weights.data >= 0)
    assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


# -- cross entropy ---------------------------------------------------------


def test_cross_entropy_matches_manual(rng):
    with use_dtype(np.float64):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        loss = ops.cross_entropy(Tensor(logits), labels)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expect = -np.log(p[np.arange(4), labels]).mean()
        assert float(loss.data) == pytest.approx(expect, rel=1e-10)


def test_cross_entropy_grad(rng):
    with use_dtype(np.float64):
        x = parameter(rng.normal(size=(3, 4)))
        labels = np.array([1, 3, 0])
        ops.cross_entropy(x, labels).backward()
        fd = central_diff(lambda: float(ops.cross_entropy(Tensor(x.data), labels).data), x.data)
        assert_grads_close(x.grad, fd, rtol=1e-4, label="cross_entropy")


def test_dropout_eval_is_identity(rng):
    x = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
    assert ops.dropout(x, 0.5, training=False, rng=np.random.default_rng(0)) is x
    assert ops.dropout(x, 0.5, training=True, rng=None) is x
