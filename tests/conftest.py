import numpy as np
import pytest


def central_diff(f, arr, step=1e-4):
    """Central finite-difference gradient of scalar f w.r.t. a numpy array,
    perturbing it in place."""
    if not arr.flags.c_contiguous:
        # reshape(-1) would copy, and f would never see a perturbation.
        raise ValueError("central_diff needs a C-contiguous array to perturb in place")
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7, label=""):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), atol)
    rel = np.abs(a - n) / denom
    worst = float(rel.max()) if rel.size else 0.0
    assert worst <= rtol or np.abs(a - n).max() <= atol, (
        f"{label}: gradient mismatch, worst relative error {worst:.3e} "
        f"(analytic {a.reshape(-1)[np.argmax(rel)]:.6e}, "
        f"numeric {n.reshape(-1)[np.argmax(rel)]:.6e})"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
