import tracemalloc

import numpy as np
import pytest

from movkl import Curve, CurveVec, Grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
