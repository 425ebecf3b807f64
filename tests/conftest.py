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
