"""Discretized function spaces: grids, curves and quadrature inner products.

A curve is a real-valued function sampled on a fixed grid of locations
t_1 < ... < t_m with positive quadrature weights w_j.  All inner products
and norms are the weighted sums

    <a, b> = sum_j w_j a_j b_j,

which is the trapezoid-rule approximation of the L2 inner product when the
weights come from :meth:`Grid.uniform` or :meth:`Grid.from_points`.
"""

from __future__ import annotations

import collections
import contextvars
import itertools
import numbers
import os
import threading

import numpy as np

from .errors import DimensionError

__all__ = [
    "Grid",
    "Curve",
    "CurveVec",
    "l2_inner",
    "l2_norm_sq",
    "l2_norm",
    "vec_inner",
    "vec_norm_sq",
    "vec_norm",
]


# Rows per block of numeric work: large enough to amortize numpy call
# overhead, small enough that a block's temporaries stay well under a MB
# each on the desk task's 200-point grid.
_BLOCK = 256


def _worker_count(blocks: int) -> int:
    """Threads for block arithmetic: one per CPU available to the process,
    and no more than there are blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _in_order(tasks, count: int):
    """Run ``count`` zero-argument ``tasks``; yield their results in order.

    The package's one thread engine, for the synthetic generator and batch
    prediction.  It runs on at most ``_worker_count(count)`` threads: the
    caller plus helpers, up to one per further available CPU, each helper
    in its own copy of the caller's context, so numpy's error state holds
    in every task.  The caller takes the tasks from the iterator, so what
    the iterator does between them (the generator's random draws) stays on
    it in order, at most helpers + 1 tasks ahead of the next result; while
    that result is not ready, it runs a queued task itself.  The generator
    passes one task per block, so the caller can wait behind a slow helper's
    block; batch prediction passes one drain task per thread instead, each
    taking row slices from one shared list until none is left, so no thread
    waits while a block is untaken.  After a task fails no queued task
    starts, and its error is raised in place of the next result.  On
    return, error or ``close()`` every helper is joined; one thread starts
    none.  Tasks that write only their own memory give the same results
    for any thread count.
    """
    helpers = _worker_count(count) - 1
    cond = threading.Condition()
    queue = collections.deque()  # (index, task) taken and not begun
    done = {}                    # results not yet yielded, by index
    stop = []                    # the first error, or None once returned

    def run(index, task):
        try:
            done[index] = task()
        except BaseException as exc:
            stop.append(exc)
        with cond:
            cond.notify_all()

    def serve():
        while True:
            with cond:
                cond.wait_for(lambda: queue or stop)
                if stop:
                    return
                item = queue.popleft()
            run(*item)

    def take(k):
        items = list(itertools.islice(numbered, k))
        with cond:
            queue.extend(items)
            cond.notify_all()
        return len(items)

    numbered = enumerate(tasks)
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(serve,), daemon=True)
               for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        taken, index = take(helpers + 2), 0
        while index < taken:
            with cond:
                cond.wait_for(lambda: stop or index in done or queue)
                if stop:
                    raise stop[0]
                item = None if index in done else queue.popleft()
            if item is None:
                yield done.pop(index)
                index += 1
                taken += take(1)
            else:
                run(*item)
    finally:
        with cond:
            stop.append(None)
            cond.notify_all()
        for thread in threads:
            thread.join()


def _readonly(a, copy: bool = True) -> np.ndarray:
    # copy=False takes a float64 array as it is, or raises ValueError;
    # a frozen float64 array is shared either way (Curve's sharing rule)
    if copy and _frozen(a):
        return a
    out = np.array(a, dtype=float, copy=copy)
    out.setflags(write=False)
    return out


def _frozen(a) -> bool:
    """True for a float64 ndarray that nothing can write through: it and
    every ndarray in its ``.base`` chain are read-only, and the chain ends
    in an array that owns its memory rather than in a foreign buffer such
    as bytes or an mmap."""
    if type(a) is not np.ndarray or a.dtype != np.float64:
        return False
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        if a.base is None:
            return True
        a = a.base
    return False


_TOO_FEW_POINTS = "a grid needs at least 2 points"


def as_int(name: str, value, minimum: int = 1) -> int:
    """Validate an integer setting such as a count, rank, grid size or seed.

    An integer, or an integral float (3.0 becomes 3), no smaller than
    ``minimum``; booleans, strings and fractional or non-finite floats raise
    ``ValueError``.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return int(value)


def as_real(name: str, value) -> float:
    """Validate a real setting such as a ridge value, tolerance or bandwidth.

    An integer or float, returned as a float; booleans (JSON's ``true``
    would otherwise read as 1), strings and other types raise
    ``ValueError``.  Range and finiteness checks stay with the caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class Grid:
    """Sampling locations and quadrature weights over a 1-d domain.

    Parameters
    ----------
    points : array_like
        Strictly increasing sample locations, length m >= 2.
    weights : array_like
        Positive quadrature weights, same length as ``points``.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        points = _readonly(points)
        weights = _readonly(weights)
        if points.ndim != 1 or weights.ndim != 1:
            raise DimensionError("grid points and weights must be 1-d")
        if points.size != weights.size:
            raise DimensionError(
                f"got {points.size} points but {weights.size} weights"
            )
        if points.size < 2:
            raise ValueError(_TOO_FEW_POINTS)
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("grid weights must all be positive")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise ValueError("grid points and weights must be finite")
        self.points = points
        self.weights = weights

    @classmethod
    def uniform(cls, start: float, stop: float, size: int) -> "Grid":
        """Uniform grid on [start, stop] with trapezoid weights."""
        if size < 2:
            raise ValueError(_TOO_FEW_POINTS)
        points = np.linspace(start, stop, size)
        step = (stop - start) / (size - 1)
        weights = np.full(size, step)
        weights[0] = weights[-1] = step / 2.0
        return cls(points, weights)

    @classmethod
    def from_points(cls, points) -> "Grid":
        """Trapezoid weights for arbitrary strictly increasing points."""
        points = np.asarray(points, dtype=float)
        if points.size < 2:
            raise ValueError(_TOO_FEW_POINTS)
        gaps = np.diff(points)
        weights = np.empty_like(points)
        weights[0] = gaps[0] / 2.0
        weights[-1] = gaps[-1] / 2.0
        weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2.0
        return cls(points, weights)

    @property
    def size(self) -> int:
        return self.points.size

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash((self.points.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Grid(m={self.size}, span=[{self.points[0]:g}, {self.points[-1]:g}])"
        )


class Curve:
    """One function discretized on a :class:`Grid`.

    Values are stored read-only; operations that derive new curves return
    new instances, so curves can be shared freely across solver iterations.

    Sharing rule: a float64 array that nothing can write through is shared,
    not copied.  That is an array which, like every ndarray in its ``.base``
    chain, is read-only, for example a slice of another curve's or curve
    vector's values.  Every other input is copied: a writeable array, a
    read-only view of a writeable array, or an array over a buffer that is
    not an ndarray (bytes, mmap).  Shared values are validated as usual.

    With ``copy=False`` a fresh float64 array is taken over instead of
    copied: it is made read-only in place and validated as usual, and its
    creator must not write to it again.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, *, copy: bool = True):
        values = _readonly(values, copy)
        if values.ndim != 1:
            raise DimensionError("curve values must be 1-d")
        if values.size != grid.size:
            raise DimensionError(
                f"curve has {values.size} values for a grid of size {grid.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite (no NaN/Inf)")
        self.grid = grid
        self.values = values

    @classmethod
    def zero(cls, grid: Grid) -> "Curve":
        return cls(grid, np.zeros(grid.size))

    @classmethod
    def _wrap(cls, grid: Grid, values: np.ndarray) -> "Curve":
        """A curve over ``values`` as they are, neither copied nor checked:
        the caller vouches for a read-only, finite float64 (m,) array."""
        curve = object.__new__(cls)
        curve.grid = grid
        curve.values = values
        return curve

    def __add__(self, other: "Curve") -> "Curve":
        _check_same_grid(self, other)
        return Curve(self.grid, self.values + other.values)

    def __sub__(self, other: "Curve") -> "Curve":
        _check_same_grid(self, other)
        return Curve(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Curve":
        return Curve(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Curve(m={self.values.size})"


class CurveVec:
    """A stack of n curves sharing one grid, stored as an (n, m) array.

    Values follow :class:`Curve`'s sharing rule, so the train/test idiom
    ``CurveVec(grid, ds.inputs.values[a:b])`` is zero-copy: the slice is a
    read-only view of read-only values.  ``copy=False`` takes over a fresh
    float64 array as :class:`Curve` does.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, *, copy: bool = True):
        values = _readonly(np.atleast_2d(values), copy)
        if values.ndim != 2:
            raise DimensionError("curve-vector values must be 2-d")
        if values.shape[1] != grid.size:
            raise DimensionError(
                f"curves have {values.shape[1]} values for a grid of size {grid.size}"
            )
        # by blocks of rows: no boolean mask larger than one block
        if not all(np.isfinite(values[lo:lo + _BLOCK]).all()
                   for lo in range(0, values.shape[0], _BLOCK)):
            raise ValueError("curve values must be finite (no NaN/Inf)")
        self.grid = grid
        self.values = values

    @classmethod
    def from_curves(cls, curves) -> "CurveVec":
        curves = list(curves)
        if not curves:
            raise ValueError("need at least one curve")
        grid = curves[0].grid
        for c in curves[1:]:
            if c.grid != grid:
                raise DimensionError("all curves in a vector must share one grid")
        # np.stack builds a new array that nothing else holds
        return cls(grid, np.stack([c.values for c in curves]), copy=False)

    @classmethod
    def _wrap(cls, grid: Grid, values: np.ndarray) -> "CurveVec":
        """A curve vector over ``values`` as they are, neither copied nor
        checked: the caller vouches for a read-only, finite float64 (n, m)
        array, as for :meth:`Curve._wrap`."""
        vec = object.__new__(cls)
        vec.grid = grid
        vec.values = values
        return vec

    @classmethod
    def zero(cls, grid: Grid, n: int) -> "CurveVec":
        return cls(grid, np.zeros((n, grid.size)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> Curve:
        """Curve i over a view of row i, which is already validated and
        read-only, so it is neither copied nor checked again.  A slice or a
        2-d index raises ``DimensionError``."""
        row = self.values[i]
        if row.ndim != 1:
            raise DimensionError("curve values must be 1-d")
        return Curve._wrap(self.grid, row)

    def curves(self):
        return [self[i] for i in range(self.n)]

    def __add__(self, other: "CurveVec") -> "CurveVec":
        _check_same_shape(self, other)
        return CurveVec(self.grid, self.values + other.values)

    def __sub__(self, other: "CurveVec") -> "CurveVec":
        _check_same_shape(self, other)
        return CurveVec(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "CurveVec":
        return CurveVec(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CurveVec(n={self.n}, m={self.grid.size})"


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise DimensionError("curves live on different grids")


def _check_same_shape(a: CurveVec, b: CurveVec) -> None:
    _check_same_grid(a, b)
    if a.n != b.n:
        raise DimensionError(f"curve vectors have lengths {a.n} and {b.n}")


def l2_inner(a: Curve, b: Curve) -> float:
    """Quadrature inner product sum_j w_j a_j b_j."""
    _check_same_grid(a, b)
    return float(np.dot(a.grid.weights, a.values * b.values))


def l2_norm_sq(a: Curve) -> float:
    return l2_inner(a, a)


def l2_norm(a: Curve) -> float:
    return float(np.sqrt(max(l2_norm_sq(a), 0.0)))


def vec_inner(a: CurveVec, b: CurveVec) -> float:
    """Sum of per-curve inner products."""
    _check_same_shape(a, b)
    return float(np.sum((a.values * b.values) @ a.grid.weights))


def vec_norm_sq(a: CurveVec) -> float:
    return vec_inner(a, a)


def vec_norm(a: CurveVec) -> float:
    return float(np.sqrt(max(vec_norm_sq(a), 0.0)))
