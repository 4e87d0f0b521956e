"""Engine-level tests: arithmetic, broadcasting, indexing, backward semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtslof.tensor as T
from conftest import assert_grads_close, central_diff
from mtslof.errors import GraphConsumedError, ShapeError
from mtslof.tensor import Tensor, no_grad, parameter, use_dtype


def test_matmul_identity():
    a = Tensor(np.arange(4.0).reshape(2, 2))
    eye = Tensor(np.eye(2))
    assert np.allclose((eye @ a).data, a.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    assert np.array_equal((a @ b).data, [[2.0], [4.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        a @ b


def test_matmul_grad_matches_finite_differences(rng):
    with use_dtype(np.float64):
        av = rng.normal(size=(3, 4))
        bv = rng.normal(size=(4, 2))
        a = parameter(av.copy())
        b = Tensor(bv.copy())
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ bv.T, rtol=1e-12)

        a2 = parameter(av.copy())
        fd = central_diff(lambda: float((Tensor(a2.data) @ b).sum().data), a2.data)
        assert_grads_close(np.ones((3, 2)) @ bv.T, fd, rtol=1e-4, label="matmul")


def test_matmul_batched_broadcast_grad(rng):
    with use_dtype(np.float64):
        a = parameter(rng.normal(size=(5, 3, 4)))
        w = parameter(rng.normal(size=(4, 2)))
        out = a @ w
        assert out.shape == (5, 3, 2)
        out.sum().backward()
        assert w.grad.shape == (4, 2)
        fd = central_diff(lambda: float((Tensor(a.data) @ Tensor(w.data, requires_grad=False)).sum().data), a.data)
        assert_grads_close(a.grad, fd, rtol=1e-4, label="batched matmul input")


def test_backward_sum_gives_ones():
    x = parameter(np.array([1.0, 2.0, 3.0]))
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_quadratic_gives_2x():
    x = parameter(np.array([1.0, -2.0, 3.0]))
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2.0 * x.data)


def test_backward_rejects_nonscalar():
    x = parameter(np.ones(3))
    with pytest.raises(ShapeError, match="scalar"):
        (x * 2.0).backward()


def test_backward_twice_raises_every_time():
    x = parameter(np.ones(3))
    loss = (x * x).sum()
    loss.backward()
    for _ in range(3):
        with pytest.raises(GraphConsumedError):
            loss.backward()


def test_backward_on_leaf_raises():
    x = parameter(np.ones(()))
    with pytest.raises(GraphConsumedError, match="no recorded graph"):
        x.backward()


def test_off_path_leaf_keeps_zero_grad():
    x = parameter(np.ones(3))
    y = parameter(np.ones(3))
    (x * 2.0).sum().backward()
    assert y.grad is None or not y.grad.any()


def test_grad_accumulates_across_backwards():
    x = parameter(np.array([2.0]))
    (x * x).sum().backward()
    (x * x).sum().backward()
    assert np.allclose(x.grad, 8.0)


def test_accumulate_rejects_mismatched_gradient_naming_both():
    x = parameter(np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match=r"\(4,\).*\(3, 4\)"):
        T.accumulate(x, np.ones(4, dtype=np.float32))
    with pytest.raises(ShapeError, match="float64.*float32"):
        T.accumulate(x, np.ones((3, 4), dtype=np.float64))
    assert x.grad is None


def test_accumulate_into_one_parent_leaves_shared_grad_of_other_unchanged():
    a = parameter(np.zeros(3))
    b = parameter(np.zeros(3))
    (a + b).sum().backward()
    assert np.shares_memory(a.grad, b.grad)
    T.accumulate(a, np.full(3, 2.0, dtype=np.float32))
    assert np.array_equal(a.grad, [3.0, 3.0, 3.0])
    assert np.array_equal(b.grad, [1.0, 1.0, 1.0])


def test_broadcast_add_grad():
    with use_dtype(np.float64):
        a = parameter(np.zeros((3, 4)))
        b = parameter(np.zeros(4))
        (a + b).sum().backward()
        assert np.array_equal(a.grad, np.ones((3, 4)))
        assert np.array_equal(b.grad, 3.0 * np.ones(4))


def test_div_grad(rng):
    with use_dtype(np.float64):
        a = parameter(rng.normal(size=(3,)) + 5.0)
        b = parameter(rng.normal(size=(3,)) + 5.0)
        (a / b).sum().backward()
        assert np.allclose(a.grad, 1.0 / b.data)
        assert np.allclose(b.grad, -a.data / b.data**2)


def test_exp_log_sqrt_grads(rng):
    with use_dtype(np.float64):
        for fn, deriv in [
            (lambda t: t.exp(), lambda v: np.exp(v)),
            (lambda t: t.log(), lambda v: 1.0 / v),
            (lambda t: t.sqrt(), lambda v: 0.5 / np.sqrt(v)),
        ]:
            x = parameter(rng.uniform(0.5, 2.0, size=(4,)))
            fn(x).sum().backward()
            assert np.allclose(x.grad, deriv(x.data), rtol=1e-10)


def test_mean_and_sum_axis_grads():
    with use_dtype(np.float64):
        x = parameter(np.arange(12.0).reshape(3, 4))
        x.mean(axis=0).sum().backward()
        assert np.allclose(x.grad, 1.0 / 3.0)
        y = parameter(np.arange(12.0).reshape(3, 4))
        y.sum(axis=1).sum().backward()
        assert np.array_equal(y.grad, np.ones((3, 4)))


def test_take_rows_2d_and_3d():
    with use_dtype(np.float64):
        x = parameter(np.arange(12.0).reshape(1, 4, 3))
        idx = np.array([2, 0, 3])
        out = T.take_rows(x, idx[None])
        assert np.array_equal(out.data[0], x.data[0, idx])
        out.sum().backward()
        expect = np.zeros((1, 4, 3))
        expect[0, [2, 0, 3]] = 1.0
        assert np.array_equal(x.grad, expect)

        # Positions repeated within a row are rejected.
        with pytest.raises(ShapeError, match="distinct within a row; row 0"):
            T.take_rows(x, np.array([[2, 0, 2]]))

        xb = parameter(np.arange(24.0).reshape(2, 4, 3))
        idxb = np.array([[1, 2], [0, 3]])
        outb = T.take_rows(xb, idxb)
        assert outb.shape == (2, 2, 3)
        assert np.array_equal(outb.data[1, 1], xb.data[1, 3])

        # Batch-only: an unbatched (p, d) tensor or a batch-count mismatch is rejected.
        with pytest.raises(ShapeError, match="take_rows"):
            T.take_rows(Tensor(x.data[0]), idx)
        with pytest.raises(ShapeError, match="take_rows"):
            T.take_rows(xb, idxb[:1])


def test_take_rows_and_pick_gradients_bit_equal_the_add_at_scatter():
    # The masked-view shape: (320, 16, 32) rows gathered at 3 visible positions.
    r = np.random.default_rng(0)
    x = parameter(r.normal(size=(320, 16, 32)).astype(np.float32))
    idx = np.sort(np.argsort(r.random((320, 16)), axis=-1)[:, :3], axis=-1)
    g = r.normal(size=(320, 3, 32)).astype(np.float32)
    (T.take_rows(x, idx) * Tensor(g)).sum().backward()
    expect = np.zeros_like(x.data)
    np.add.at(expect, (np.arange(320)[:, None], idx), g)
    assert x.grad.tobytes() == expect.tobytes()

    y = parameter(r.normal(size=(64, 5)).astype(np.float32))
    labels = r.integers(0, 5, size=64)
    gp = r.normal(size=64).astype(np.float32)
    (T.pick(y, labels) * Tensor(gp)).sum().backward()
    expect = np.zeros_like(y.data)
    np.add.at(expect, (np.arange(64), labels), gp)
    assert y.grad.tobytes() == expect.tobytes()


def test_scatter_rows_roundtrip():
    with use_dtype(np.float64):
        v = parameter(np.arange(6.0).reshape(1, 2, 3))
        idx = np.array([[3, 1]])
        placed = T.scatter_rows(v, idx, 5)
        assert placed.shape == (1, 5, 3)
        assert np.array_equal(placed.data[0, 3], v.data[0, 0])
        assert np.array_equal(placed.data[0, 0], np.zeros(3))
        back = T.take_rows(placed, idx)
        assert np.array_equal(back.data, v.data)
        back.sum().backward()
        assert np.array_equal(v.grad, np.ones((1, 2, 3)))

        with pytest.raises(ShapeError, match="scatter_rows"):
            T.scatter_rows(Tensor(v.data[0]), idx[0], 5)
        with pytest.raises(ShapeError, match="scatter_rows"):
            T.scatter_rows(v, idx[:, :1], 5)


def test_pick_selects_and_scatters_grad():
    with use_dtype(np.float64):
        x = parameter(np.arange(6.0).reshape(2, 3))
        out = T.pick(x, np.array([2, 0]))
        assert np.array_equal(out.data, [2.0, 3.0])
        out.sum().backward()
        expect = np.zeros((2, 3))
        expect[0, 2] = 1.0
        expect[1, 0] = 1.0
        assert np.array_equal(x.grad, expect)


def test_expand_grad_sums_over_new_axes():
    with use_dtype(np.float64):
        x = parameter(np.ones((1, 3)))
        T.expand(x, (4, 3)).sum().backward()
        assert np.array_equal(x.grad, 4.0 * np.ones((1, 3)))


def test_no_grad_builds_no_graph():
    x = parameter(np.ones(3))
    with no_grad():
        out = (x * 2.0).sum()
    assert out._backward is None
    with pytest.raises(GraphConsumedError):
        out.backward()


def test_use_dtype_controls_creation():
    assert Tensor(np.zeros(2)).dtype == np.float32
    with use_dtype(np.float64):
        assert Tensor(np.zeros(2)).dtype == np.float64
    assert Tensor(np.zeros(2)).dtype == np.float32


def test_graph_freed_after_backward():
    x = parameter(np.ones(3))
    mid = x * 2.0
    loss = mid.sum()
    loss.backward()
    assert mid._parents == () and mid._backward is None


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_matmul_matches_numpy(i, k, j, seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(i, k))
    b = r.normal(size=(k, j))
    with use_dtype(np.float64):
        out = Tensor(a) @ Tensor(b)
    assert np.allclose(out.data, a @ b, rtol=1e-10)


def test_no_module_imports_a_concurrency_layer():
    # The engine flags (use_dtype, no_grad) are process-wide, so workers
    # in one process would share them; a pool has to be added on purpose.
    # The one worker process, which has flags of its own, lives in parallel.py.
    import ast
    import pathlib

    for path in sorted(pathlib.Path(T.__file__).parent.glob("*.py")):
        banned = {"threading", "concurrent"}
        if path.name != "parallel.py":
            banned.add("multiprocessing")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, f"{path.name} imports {name}"
