"""Neural-op tests: forward oracles and finite-difference gradient checks."""

import contextlib

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
from mtslof.tensor import Tensor, _from_op, accumulate, no_grad, parameter, use_dtype


# -- conv1d -------------------------------------------------------------


def test_conv_output_length_formula():
    assert ops.conv_output_length(16, 8, 2, 3) == 8


def test_conv1d_unit_impulse_is_identity(rng):
    x = Tensor(rng.normal(size=(1, 1, 12)).astype(np.float32))
    kernel = Tensor(np.ones((1, 1, 1), dtype=np.float32))
    out = ops.conv1d(x, kernel, stride=1, padding=0)
    assert np.allclose(out.data, x.data)


def test_conv1d_matches_sliding_window_oracle(rng):
    with use_dtype(np.float64):
        x = rng.normal(size=(1, 12))
        w = rng.normal(size=(2, 1, 3))
        out = ops.conv1d(Tensor(x[None]), Tensor(w), stride=1, padding=0).data[0]
        expect = np.zeros((2, 10))
        for c in range(2):
            for o in range(10):
                expect[c, o] = (x[0, o : o + 3] * w[c, 0]).sum()
        assert np.array_equal(out, expect) or np.allclose(out, expect, rtol=1e-15)


def test_conv1d_too_short_raises():
    x = Tensor(np.zeros((1, 1, 4)))
    w = Tensor(np.zeros((1, 1, 8)))
    with pytest.raises(InputTooShortError):
        ops.conv1d(x, w, stride=1, padding=0)


def test_conv1d_channel_mismatch():
    with pytest.raises(ShapeError, match="channel mismatch"):
        ops.conv1d(Tensor(np.zeros((1, 2, 10))), Tensor(np.zeros((3, 1, 3))))
    # Batch-only: one unbatched (c_in, t) series is rejected, not lifted.
    with pytest.raises(ShapeError, match=r"\(b, c_in, t\)"):
        ops.conv1d(Tensor(np.zeros((1, 10))), Tensor(np.zeros((3, 1, 3))))


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


def test_conv1d_multichannel_matches_loop_oracle(rng):
    # c_in > 1, so the order in which channels and kernel taps are summed shows.
    with use_dtype(np.float64):
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 5))
        bias = rng.normal(size=4)
        out = ops.conv1d(Tensor(x), Tensor(w), Tensor(bias), stride=2, padding=3).data
        xp = np.pad(x, ((0, 0), (0, 0), (3, 3)))
        t_out = ops.conv_output_length(11, 5, 2, 3)
        expect = np.zeros((2, 4, t_out))
        for n in range(2):
            for c in range(4):
                for o in range(t_out):
                    expect[n, c, o] = bias[c] + sum(xp[n, ci, 2 * o + j] * w[c, ci, j]
                                                    for ci in range(3) for j in range(5))
        assert out.shape == expect.shape
        assert np.allclose(out, expect, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
def test_conv1d_transposed_input_bit_equal_to_contiguous_copy(rng, grad):
    # A patcher activation is a (b, c_in, t) transposed view of a (b, t, c_in) array.
    xt = rng.normal(size=(5, 37, 6)).astype(np.float32).transpose(0, 2, 1)
    assert not xt.flags.c_contiguous
    wv = rng.normal(size=(4, 6, 5)).astype(np.float32)
    bv = rng.normal(size=4).astype(np.float32)
    r = rng.normal(size=(5, 4, ops.conv_output_length(37, 5, 2, 2))).astype(np.float32)
    results = []
    for xv in (xt, np.ascontiguousarray(xt)):
        x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv.copy(), bv.copy()))
        with contextlib.nullcontext() if grad else no_grad():
            out = ops.conv1d(x, w, b, stride=2, padding=2)
            if grad:
                (out * Tensor(r)).sum().backward()
        results.append([out.data] + ([x.grad, w.grad, b.grad] if grad else []))
    for name, a, c in zip(("out", "x.grad", "w.grad", "b.grad"), *results):
        assert a.shape == c.shape and np.array_equal(a.view(np.uint32), c.view(np.uint32)), name


def _col2im_per_offset(gcols, stride, length):
    """One strided slice add over time per kernel offset: the reference for `ops._col2im`."""
    b, t_out, k, c = gcols.shape
    out = np.zeros((b, length, c), dtype=gcols.dtype)
    for j in range(k):
        out[:, j:j + stride * t_out:stride] += gcols[:, :, j]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 8])
def test_col2im_bit_equal_to_one_slice_add_per_offset(rng, dtype, stride, k):
    # k divisible and not divisible by the stride; odd padded lengths such as
    # 129 + 2*3, and lengths whose last steps no window reaches.
    for t, pad in ((129, 3), (64, 3), (k + stride, 0), (k, 1)):
        length = t + 2 * pad
        t_out = ops.conv_output_length(t, k, stride, pad)
        gcols = rng.normal(size=(3, t_out, k, 5)).astype(dtype)
        out = ops._col2im(gcols, stride, length)
        expect = _col2im_per_offset(gcols, stride, length)
        assert out.shape == expect.shape == (3, length, 5)
        assert np.ascontiguousarray(out).tobytes() == expect.tobytes(), (t, pad)


@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_conv1d_length_formula_property(t, k, s, pad):
    t_out = (t + 2 * pad - k) // s + 1
    if t_out < 1:
        return
    x = Tensor(np.zeros((1, 1, t), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, k), dtype=np.float32))
    out = ops.conv1d(x, w, stride=s, padding=pad)
    assert out.shape == (1, 1, t_out)


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
def test_linear_and_conv1d_rows_bit_equal_to_items_run_alone(rng, grad):
    # The batches cross a 256-row GEMM block without filling the last one.
    weight, bias = parameter(rng.normal(size=(24, 16))), parameter(rng.normal(size=24))
    conv_w, conv_b = parameter(rng.normal(size=(6, 3, 8))), parameter(rng.normal(size=6))
    with contextlib.nullcontext() if grad else no_grad():
        for n in (1, 2, 300):
            x = rng.normal(size=(n, 16)).astype(np.float32)
            rows = ops.linear(Tensor(x), weight, bias).data
            alone = np.stack([ops.linear(Tensor(x[i]), weight, bias).data for i in range(n)])
            assert np.array_equal(rows, alone), f"linear, {n} rows"
        xs = rng.normal(size=(10, 3, 129)).astype(np.float32)
        rows = ops.conv1d(Tensor(xs), conv_w, conv_b, stride=2, padding=3).data
        alone = np.concatenate([ops.conv1d(Tensor(xs[i][None]), conv_w, conv_b, stride=2,
                                           padding=3).data for i in range(10)])
        assert np.array_equal(rows, alone), "conv1d"


# -- row reductions -------------------------------------------------------


def test_row_max_bit_equal_to_numpy_max(rng):
    for width in (1, 2, 3, 5, 7, 8, 16, 17, 31, 32, 33):
        x = rng.normal(size=(3, 5, width)).astype(np.float32)
        assert np.array_equal(ops._row_max(x), x.max(axis=-1, keepdims=True)), width


def test_row_sum_within_ulp_bound_of_numpy_sum(rng):
    # Both sums are within (d - 1) eps/2 sum|x| of the exact one, so they lie
    # within (d - 1) eps sum|x| of each other. On non-negative rows that
    # bound is loose: the measured gap is at most 2 ulp, and 4 is asserted.
    eps = np.finfo(np.float32).eps
    for width in (1, 2, 3, 7, 16, 17, 32, 33, 64, 129):
        x = rng.normal(size=(300, width)).astype(np.float32)
        got, ref = ops._row_sum(x), x.sum(axis=-1, keepdims=True)
        assert got.shape == ref.shape and got.dtype == np.float32
        bound = (width - 1) * eps * np.abs(x).astype(np.float64).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(got.astype(np.float64) - ref) <= bound), width
        pos = np.abs(x)
        ulps = (ops._row_sum(pos).view(np.int32).astype(np.int64)
                - pos.sum(axis=-1, keepdims=True).view(np.int32))
        assert np.abs(ulps).max() <= 4, width


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
def test_row_ops_rows_bit_equal_to_rows_run_alone(rng, grad):
    # 300 rows cross a 256-row GEMM block of _row_sum without filling the last one.
    scale, shift = parameter(rng.uniform(0.5, 1.5, 32)), parameter(rng.normal(size=32))
    row_ops = {
        "_row_sum": lambda x: ops._row_sum(x.data),
        "softmax": lambda x: ops.softmax(x).data,
        "layer_norm": lambda x: ops.layer_norm(x, scale, shift).data,
        "l2_normalize": lambda x: ops.l2_normalize(x).data,
    }
    with contextlib.nullcontext() if grad else no_grad():
        for n in (1, 2, 300):
            x = rng.normal(size=(n, 32)).astype(np.float32)
            for name, f in row_ops.items():
                rows = f(parameter(x))
                alone = np.concatenate([f(parameter(x[i:i + 1])) for i in range(n)])
                assert np.array_equal(rows, alone), f"{name}, {n} rows"


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


def _bn_layout(x, layout):
    """x (b, c, t) as given, or as the transposed view of a time-major copy,
    the layout a conv output has."""
    return np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1) if layout == "time" else x


def test_batchnorm_running_stats_are_the_forward_moments(rng):
    # With momentum 1 the running stats become the moments the train forward
    # normalized with, so eval on the same batch is the train output bit for bit.
    for layout in ("channel", "time"):
        gamma = parameter(rng.uniform(0.5, 1.5, 16))
        beta = parameter(rng.normal(size=16))
        rm, rv = np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32)
        x = _bn_layout(rng.normal(1.0, 2.0, size=(4, 16, 9)).astype(np.float32), layout)
        train = ops.batchnorm1d(Tensor(x), gamma, beta, rm, rv, 1.0, 1e-5, training=True).data
        with no_grad():
            no_graph = ops.batchnorm1d(Tensor(x), gamma, beta, rm, rv, 1.0, 1e-5, training=False).data
        graph = ops.batchnorm1d(Tensor(x), gamma, beta, rm, rv, 1.0, 1e-5, training=False).data
        assert train.dtype == np.float32
        assert np.array_equal(train.view(np.uint32), no_graph.view(np.uint32)), layout
        assert np.array_equal(train.view(np.uint32), graph.view(np.uint32)), layout


def test_batchnorm_degenerate_batch_raises():
    gamma, beta, rm, rv = _bn_state(2)
    for layout in ("channel", "time"):
        with pytest.raises(DegenerateBatchError):
            ops.batchnorm1d(Tensor(_bn_layout(np.zeros((1, 2, 1)), layout)), gamma, beta, rm, rv,
                            0.1, 1e-5, True)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batchnorm_rejects_unbatched_input(training):
    gamma, beta, rm, rv = _bn_state(2)
    with pytest.raises(ShapeError, match=r"\(b, c, t\)"):
        ops.batchnorm1d(Tensor(np.zeros((2, 5))), gamma, beta, rm, rv, 0.1, 1e-5, training)


def test_batchnorm_grad_matches_finite_differences(rng):
    for layout in ("channel", "time"):
        with use_dtype(np.float64):
            x = parameter(_bn_layout(rng.normal(size=(3, 2, 5)), layout))
            gamma = parameter(rng.uniform(0.5, 1.5, 2))
            beta = parameter(rng.normal(size=2))
            r = Tensor(rng.normal(size=(3, 2, 5)))

            def loss(*args):
                return (ops.batchnorm1d(*args, np.zeros(2), np.ones(2), 0.1, 1e-5, True) * r).sum()

            loss(x, gamma, beta).backward()
            # central_diff perturbs a C-contiguous array in place: for the
            # time-major x that is the (b, t, c) array behind the transposed view.
            time_major = (lambda a: a.transpose(0, 2, 1)) if layout == "time" else (lambda a: a)
            for label, data, grad in (("x", time_major(x.data), time_major(x.grad)),
                                      ("gamma", gamma.data, gamma.grad),
                                      ("beta", beta.data, beta.grad)):
                fd = central_diff(
                    lambda: float(loss(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data)).data),
                    data)
                assert_grads_close(grad, fd, rtol=1e-4, label=f"batchnorm {label} {layout}")


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
def test_batchnorm_train_time_major_input_bit_equal_to_channel_major(rng, grad):
    # The node works on x as a time-major matrix, a free view of a conv
    # output; a channel-major input is copied into it and gives the same bits.
    x0 = rng.normal(size=(4, 3, 11)).astype(np.float32)
    r = rng.normal(size=(4, 3, 11)).astype(np.float32)
    results = []
    for xv in (x0, _bn_layout(x0, "time")):
        x = Tensor(xv, requires_grad=True)
        gamma = parameter(np.linspace(0.5, 1.5, 3))
        beta = parameter(np.linspace(-1.0, 1.0, 3))
        rm, rv = np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)
        with contextlib.nullcontext() if grad else no_grad():
            out = ops.batchnorm1d(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
            if grad:
                (out * Tensor(r)).sum().backward()
        results.append([out.data, rm, rv] + ([x.grad, gamma.grad, beta.grad] if grad else []))
    for name, a, c in zip(("out", "mean", "var", "x", "gamma", "beta"), *results):
        assert a.shape == c.shape and np.array_equal(a.view(np.uint32), c.view(np.uint32)), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_eval_without_graph_equals_the_composed_expression(rng, dtype):
    with use_dtype(dtype):
        gamma = parameter(rng.uniform(0.5, 1.5, 3))
        beta = parameter(rng.normal(size=3))
        rm = rng.normal(size=3).astype(dtype)
        rv = rng.uniform(0.1, 3.0, size=3).astype(dtype)
        x = rng.normal(1.0, 4.0, size=(5, 3, 7)).astype(dtype)
        composed = ops.batchnorm1d(Tensor(x), gamma, beta, rm, rv, 0.1, 1e-5, training=False)
        assert composed._backward is not None  # gamma and beta record a graph here
        with no_grad():
            in_place = ops.batchnorm1d(Tensor(x), gamma, beta, rm, rv, 0.1, 1e-5,
                                       training=False)
    assert in_place.data.dtype == composed.data.dtype == dtype
    assert np.array_equal(in_place.data, composed.data)
    assert not np.shares_memory(in_place.data, x)


def test_batchnorm_eval_grads_match_finite_differences(rng):
    with use_dtype(np.float64):
        x = parameter(rng.normal(size=(3, 2, 5)))
        gamma = parameter(rng.uniform(0.5, 1.5, 2))
        beta = parameter(rng.normal(size=2))
        rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
        r = Tensor(rng.normal(size=(3, 2, 5)))

        def loss():
            return (ops.batchnorm1d(x, gamma, beta, rm, rv, 0.1, 1e-5, False) * r).sum()

        loss().backward()
        for label, p in (("x", x), ("gamma", gamma), ("beta", beta)):
            fd = central_diff(lambda: float(loss().data), p.data)
            assert_grads_close(p.grad, fd, rtol=1e-6, label=f"batchnorm eval {label}")


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


def test_normal_cdf_float32_within_4e7_of_float64_erf():
    x = np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32)
    phi = ops.normal_cdf(x)
    assert phi.dtype == np.float32
    expect = 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
    assert np.abs(phi - expect).max() <= 4e-7


def test_erf_float64_within_1e15_of_scipy_tails_included():
    branch_edges = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    x = np.concatenate([np.linspace(-12.0, 12.0, 2_400_001), branch_edges,
                        np.nextafter(branch_edges, np.inf), np.nextafter(branch_edges, -np.inf)])
    assert np.abs(ops.erf(x) - erf(x)).max() <= 1e-15


def test_gelu_float32_blocks_bit_equal_to_elements_alone(rng):
    x = (3.0 * rng.normal(size=3 * 2**15 + 7)).astype(np.float32)
    out = ops.gelu(Tensor(x)).data
    assert out.dtype == np.float32
    alone = np.concatenate([ops.gelu(Tensor(x[i:i + 1])).data for i in range(x.size)])
    assert np.array_equal(out.view(np.uint32), alone.view(np.uint32))


def test_gelu_and_normal_cdf_keep_a_transposed_layout(rng):
    # More elements than one normal_cdf block, laid out as a conv output.
    x = (3.0 * rng.normal(size=(8, 130, 40))).astype(np.float32).transpose(0, 2, 1)
    contiguous = np.ascontiguousarray(x)
    for f in (ops.normal_cdf, lambda a: ops.gelu(Tensor(a)).data):
        out, expect = f(x), f(contiguous)
        assert out.strides == x.strides
        assert np.array_equal(out.view(np.uint32), expect.view(np.uint32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (33,), (4, 70, 9)], ids=["0d", "1d", "transposed"])
def test_gelu_backward_bit_equal_to_the_expression(rng, dtype, shape):
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    if x.ndim == 3:  # a conv output's layout
        x, g = x.transpose(0, 2, 1), g.transpose(0, 2, 1)
    with use_dtype(dtype):
        xt = Tensor(x, requires_grad=True)
        (ops.gelu(xt) * Tensor(g)).sum().backward()
    pdf = ops._INV_SQRT_2PI * np.exp(-0.5 * x * x)
    expect = g * (ops.normal_cdf(x) + x * pdf)
    assert xt.grad.shape == x.shape and xt.grad.dtype == dtype
    assert np.ascontiguousarray(xt.grad).tobytes() == np.ascontiguousarray(expect).tobytes()


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


def normalize_moments(x: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) over the last axis as one graph node,
    differentiating through the stats: the composed reference for
    `ops.layer_norm`."""
    inv, xhat = ops._moments(x.data, eps)

    def backward(g):
        accumulate(x, ops._moments_backward(g, xhat, inv))

    return _from_op(xhat, (x,), backward)


def test_layer_norm_forward_bit_equal_to_composed_expression(rng):
    x = parameter(rng.normal(3.0, 2.0, size=(5, 7, 16)))
    scale = parameter(rng.uniform(0.5, 1.5, 16))
    shift = parameter(rng.normal(size=16))
    composed = normalize_moments(x, 1e-5) * scale + shift
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


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d_k)), read as attention over one-hot values:
    weights @ I is the weights, bit for bit."""
    p = k.data.shape[-2]
    eye = np.broadcast_to(np.eye(p, dtype=k.data.dtype), k.data.shape[:-1] + (p,))
    return ops.attention(q, k, Tensor(eye.copy()))


def test_attention_weights_row_stochastic(rng):
    weights = attention_weights(Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32)),
                                Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32)))
    assert np.all(weights.data >= 0)
    assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


def test_attention_is_one_node_on_q_k_v(rng):
    q, k, v = (parameter(rng.normal(size=(2, 3, 5, 4))) for _ in range(3))
    out = ops.attention(q, k, v)
    assert len(out._parents) == 3
    assert all(p is t for p, t in zip(out._parents, (q, k, v)))


def test_attention_return_weights_match_numpy_reference(rng):
    q, k, v = (rng.normal(size=(2, 3, 6, 4)).astype(np.float32) for _ in range(3))
    out = ops.attention(Tensor(q), Tensor(k), Tensor(v))
    weights = attention_weights(Tensor(q), Tensor(k))
    scores = q.astype(np.float64) @ np.swapaxes(k, -1, -2) / 2.0
    expect = np.exp(scores - scores.max(axis=-1, keepdims=True))
    expect /= expect.sum(axis=-1, keepdims=True)
    assert weights.data.dtype == np.float32
    assert np.allclose(weights.data, expect, rtol=1e-5, atol=1e-6)
    assert np.allclose(out.data, expect @ v, rtol=1e-5, atol=1e-6)


def test_attention_grads_match_finite_differences(rng):
    with use_dtype(np.float64):
        q, k, v = (parameter(rng.normal(size=(2, 2, 5, 4))) for _ in range(3))
        r = Tensor(rng.normal(size=(2, 2, 5, 4)))

        def fwd():
            return float((ops.attention(Tensor(q.data), Tensor(k.data), Tensor(v.data)) * r)
                         .sum().data)

        (ops.attention(q, k, v) * r).sum().backward()
        for tensor, label in ((q, "q"), (k, "k"), (v, "v")):
            fd = central_diff(fwd, tensor.data, step=1e-5)
            assert_grads_close(tensor.grad, fd, rtol=1e-6, label=f"attention {label}")


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
