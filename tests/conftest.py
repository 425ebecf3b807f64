import threading
import tracemalloc

import numpy as np
import pytest

import movkl.funcspace
import movkl.learn
from movkl import Curve, CurveVec, GaussianKernel, Grid, ScaledKernel


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves more threads running than it found."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, "a test left a thread running"


def force_workers(monkeypatch, count: int) -> None:
    """Run the thread engine on ``count`` threads, whatever the CPU count;
    batch prediction starts as many drain tasks."""
    monkeypatch.setattr(movkl.funcspace, "_worker_count", lambda tasks: count)
    monkeypatch.setattr(movkl.learn, "_worker_count", lambda tasks: count)


def random_curve(rng, grid: Grid) -> Curve:
    return Curve(grid, rng.normal(size=grid.size))


def random_curve_vec(rng, grid: Grid, n: int) -> CurveVec:
    return CurveVec(grid, rng.normal(size=(n, grid.size)))


def writeable_through(a: np.ndarray) -> bool:
    """True if a or any ndarray in its .base chain can be written to."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return True
        a = a.base
    return False


def reference_decompose(op):
    """The dense O(m^3) eigendecomposition that IntegralOperator used before
    its tridiagonal path, kept as the oracle for its spectrum."""
    # symmetrize with sqrt-weights so a plain eigh gives the
    # quadrature-orthonormal eigenbasis
    sw = np.sqrt(op.grid.weights)
    sym = sw[:, None] * op._kernel_matrix() / sw[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order] / sw[:, None]


def quadrature_residual(basis, vecs, weights):
    """Largest quadrature norm of a column of ``vecs`` outside the span of
    the quadrature-orthonormal columns of ``basis``."""
    outside = vecs - basis @ (basis.T @ (weights[:, None] * vecs))
    return float(np.max(np.sqrt((outside * outside).T @ weights), initial=0.0))


def traced_peak(call, *args):
    """call(*args) and the bytes it allocated at its peak, above what was
    allocated before it, as traced by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def plain_kernel_values(kernel, ip, sq_dist):
    """A scalar kernel's values by its plain formulas, each step a fresh
    array: the bits that an evaluation into a buffer must reproduce."""
    if isinstance(kernel, ScaledKernel):
        return kernel.factor * plain_kernel_values(kernel.base, ip, sq_dist)
    if isinstance(kernel, GaussianKernel):
        return np.exp(-sq_dist / (2.0 * kernel.bandwidth ** 2))
    b = ip + kernel.offset
    out = b
    for _ in range(kernel.degree - 1):
        out = out * b
    return out
