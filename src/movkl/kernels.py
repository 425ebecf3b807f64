"""Scalar kernels, output operators and block operator Gram matrices.

An operator-valued kernel term couples a scalar kernel G_k on input curves
with a linear output operator T_k, weighted by d_k >= 0:

    K_k(w, z) = d_k * G_k(w, z) * T_k.

A stack of such terms defines K = sum_k d_k G_k T_k, and the n x n block
Gram matrix [K(x_i, x_j)] is kept in factored form: one n x n scalar Gram
per term plus the structured operators.  The dense (n*m) x (n*m) matrix is
only materialized through the explicit :meth:`BlockGram.densify` escape
hatch used by the reference solver and the tests.  Scalar kernels evaluate
from shared statistics: the quadrature inner products and norms that
:class:`CurveStats` computes once per curve set.

Output operators act on curves over a fixed grid and are self-adjoint and
positive semidefinite with respect to the quadrature inner product.  Three
kinds are provided: the identity, pointwise multiplication by exp(-t^2),
and the integral operator with kernel exp(-|t - s|) (optionally truncated
to its leading eigenfunctions, which is the rank tuned by cross-validation).
The first two are diagonal on the grid and a truncated integral operator is
low-rank.  The integral operator's spectrum costs O(m^2), not the O(m^3) of a
dense eigensolver: on sorted points its kernel is an Ornstein-Uhlenbeck
covariance, whose inverse is tridiagonal in closed form (:func:`_ou_precision`),
so one tridiagonal eigensolve gives the eigenvectors, and one bidiagonal solve
their eigenvalues.  A truncated operator solves for its q retained pairs
alone, in O(m q), when q is small enough against m for that to pay (a
measured crossover, :func:`_subset_pays`), and its narrower truncations
(:meth:`OutputOperator.truncated`) read theirs from that one solve.  Every
operator gives its q = :attr:`~OutputOperator.retained` eigenvalues
(:meth:`OutputOperator.eigvals`; q < m only for a truncated integral
operator, which stores just those pairs) and two maps
between grid values and coordinates in its quadrature-orthonormal
eigenvectors V: :meth:`~OutputOperator.coords` (A W V) and
:meth:`~OutputOperator.expand` (C V^T).  For the identity and multiplication
operators V = W^-1/2 in grid order, so both maps rescale elementwise and no
m x m matrix is built.  Every direction outside V maps to zero.  Each
operator also gives its mean eigenvalue, the scale of trace normalization
and of the operators folded into the preconditioner of
:func:`movkl.linsolve.pcg_solve`.

Kernels, operators, terms and stacks are immutable values: frozen
dataclasses whose fields are their parameters.  Kernels and operators with
equal fields are equal and hash alike; ``dataclasses.replace`` makes a
changed one, with caches of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dtbtrs

from .errors import DimensionError
from .funcspace import Curve, CurveVec, Grid, as_int, as_real

__all__ = [
    "ScalarKernel",
    "GaussianKernel",
    "PolynomialKernel",
    "OutputOperator",
    "IdentityOperator",
    "MultiplicationOperator",
    "IntegralOperator",
    "OvKernelTerm",
    "ScaledKernel",
    "trace_normalized",
    "block_trace_normalized",
    "KernelStack",
    "BlockGram",
    "assemble_gram",
    "median_pairwise_distance",
    "scalar_kernel_from_config",
    "operator_from_config",
]


# ---------------------------------------------------------------------------
# kernel statistics and scalar kernels on curves
# ---------------------------------------------------------------------------

def _sq_norms(values: np.ndarray, weights: np.ndarray):
    """Squared quadrature norm of each row, one product (a scalar for one
    curve's values)."""
    return (values * values) @ weights


class CurveStats:
    """Weighted values X * w and squared quadrature norms of a curve set."""

    def __init__(self, xs: CurveVec):
        self.curves = xs
        self.weighted = xs.values * xs.grid.weights
        self.sq_norms = _sq_norms(xs.values, xs.grid.weights)

    def pairs(self, zs: CurveVec | None = None):
        """Inner products and squared distances of every pair (x_i, z_j), the
        arguments of :meth:`ScalarKernel.evaluate`; zs defaults to xs, whose
        squared norms are already held."""
        if zs is None:
            return self._pairs(self.curves.values, self.sq_norms)
        return self.cross(zs.grid, zs.values)

    def cross(self, grid: Grid, z: np.ndarray):
        """:meth:`pairs` for raw values on ``grid``: the rows of a (p, m)
        array give (n, p) arrays, one curve's (m,) values give (n,) arrays.
        Lets a single validated curve skip the CurveVec wrapper."""
        if grid != self.curves.grid:
            raise DimensionError("kernel arguments live on different grids")
        return self._pairs(z, _sq_norms(z, grid.weights))

    def _pairs(self, z: np.ndarray, zn):
        ip = self.weighted @ z.T
        if z.ndim == 1:
            # one curve's norm is a scalar: the values of add.outer, without
            # its overhead
            sq_dist = self.sq_norms + zn
        else:
            sq_dist = np.add.outer(self.sq_norms, zn)
        sq_dist -= 2.0 * ip
        return ip, np.maximum(sq_dist, 0.0, out=sq_dist)


class ScalarKernel:
    """Positive definite kernel on pairs of curves over a shared grid."""

    def __call__(self, x: Curve, z: Curve) -> float:
        xs, zs = (CurveVec.from_curves([c]) for c in (x, z))
        return float(self.gram(xs, zs)[0, 0])

    def gram(self, xs: CurveVec, zs: CurveVec | None = None) -> np.ndarray:
        """Gram matrix G[i, j] = G(xs_i, zs_j); zs defaults to xs."""
        return self.evaluate(*CurveStats(xs).pairs(zs))

    def evaluate(self, ip: np.ndarray, sq_dist: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Kernel values from the quadrature inner products and squared
        distances of curve pairs, elementwise.

        With ``out``, a float array of the arguments' shape, the values are
        written into it and it is returned; the values are bit-identical
        either way.  ``out`` must not be ``ip`` or ``sq_dist``.
        """
        raise NotImplementedError

    def unscaled(self) -> tuple["ScalarKernel", float]:
        """The kernel under any ScaledKernel wrappers and their total factor."""
        return self, 1.0

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(ScalarKernel):
    """G(x, z) = exp(-||x - z||^2 / (2 sigma^2)) with the quadrature norm."""

    bandwidth: float

    def __post_init__(self):
        bandwidth = as_real("bandwidth", self.bandwidth)
        if not 0 < bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        object.__setattr__(self, "bandwidth", bandwidth)

    def evaluate(self, ip, sq_dist, out=None):
        # dividing by the negated divisor is exact; the exponential is taken
        # in place, unless the arguments were scalars
        out = np.divide(sq_dist, -(2.0 * self.bandwidth ** 2), out=out)
        return np.exp(out, out=out if isinstance(out, np.ndarray) else None)

    def to_config(self) -> dict:
        return {"kind": "gaussian", "bandwidth": self.bandwidth}


@dataclass(frozen=True)
class PolynomialKernel(ScalarKernel):
    """G(x, z) = (<x, z> + offset)^degree with the quadrature inner product."""

    degree: int
    offset: float = 1.0

    def __post_init__(self):
        degree = as_int("degree", self.degree)
        offset = as_real("offset", self.offset)
        if degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        if not 0 <= offset < math.inf:
            raise ValueError("offset must be nonnegative and finite")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "offset", offset)

    def evaluate(self, ip, sq_dist, out=None):
        # repeated products: numpy's power has a fast path for squares only
        if self.degree == 1:
            return np.add(ip, self.offset, out=out)
        b = ip + self.offset
        out = np.multiply(b, b, out=out)
        if self.degree == 3:
            out *= b
        return out

    def to_config(self) -> dict:
        return {"kind": "polynomial", "degree": self.degree, "offset": self.offset}


@dataclass(frozen=True)
class ScaledKernel(ScalarKernel):
    """A scalar kernel multiplied by a fixed positive factor.

    Used to bring kernels of very different magnitudes onto a comparable
    scale before combining them (for example trace normalization of the
    training Gram), which keeps evenly weighted sums meaningful.
    """

    base: ScalarKernel
    factor: float

    def __post_init__(self):
        factor = as_real("scale factor", self.factor)
        if not 0 < factor < math.inf:
            raise ValueError("scale factor must be positive and finite")
        object.__setattr__(self, "factor", factor)

    def evaluate(self, ip, sq_dist, out=None):
        out = self.base.evaluate(ip, sq_dist, out)
        out *= self.factor
        return out

    def unscaled(self):
        base, factor = self.base.unscaled()
        return base, self.factor * factor

    def to_config(self) -> dict:
        return {"kind": "scaled", "factor": self.factor,
                "base": self.base.to_config()}


def trace_normalized(kernel: ScalarKernel, xs: CurveVec) -> ScalarKernel:
    """Rescale a kernel so its Gram on ``xs`` has unit mean diagonal."""
    return block_trace_normalized(kernel, IdentityOperator(xs.grid), xs)


def block_trace_normalized(kernel: ScalarKernel, operator, xs: CurveVec) -> ScalarKernel:
    """Rescale a kernel so the term's block Gram has unit mean diagonal.

    The factor folds in both the scalar Gram diagonal on ``xs`` and the
    operator's mean eigenvalue, so terms built from operators of very
    different trace (the identity versus a truncated integral operator,
    say) compete on an even footing in a weighted combination.
    """
    # the pairs (x_i, x_i), in O(n m)
    sq = _sq_norms(xs.values, xs.grid.weights)
    gram_scale = float(kernel.evaluate(sq, np.zeros_like(sq)).mean())
    scale = gram_scale * operator.mean_eigenvalue()
    if scale <= 0:
        return kernel
    return ScaledKernel(kernel, 1.0 / scale)


def median_pairwise_distance(xs: CurveVec) -> float:
    """Median quadrature distance over distinct curve pairs."""
    curves = CurveStats(xs)
    if len(xs) < 2:
        return float(np.sqrt(curves.sq_norms[0]))
    _, sq_dist = curves.pairs()
    return float(np.median(np.sqrt(sq_dist[np.triu_indices(len(xs), k=1)])))


def scalar_kernel_from_config(cfg: dict) -> ScalarKernel:
    kind = cfg.get("kind")
    if kind == "gaussian":
        return GaussianKernel(cfg["bandwidth"])
    if kind == "polynomial":
        return PolynomialKernel(cfg["degree"], cfg.get("offset", 1.0))
    if kind == "scaled":
        return ScaledKernel(scalar_kernel_from_config(cfg["base"]), cfg["factor"])
    raise ValueError(f"unknown scalar kernel kind: {kind!r}")


# ---------------------------------------------------------------------------
# output operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputOperator:
    """Structured self-adjoint PSD linear map on curves over one grid."""

    grid: Grid

    def apply(self, a: Curve) -> Curve:
        if a.grid != self.grid:
            raise DimensionError("curve does not live on the operator grid")
        return Curve(self.grid, self.apply_rows(a.values[None, :])[0])

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        """Apply the operator to each row of an (k, m) array."""
        raise NotImplementedError

    def factored_rows(self, A: np.ndarray):
        """:meth:`apply_rows` as factors (L, R) with L @ R the result, for an
        operator of rank q < m: L is (k, q) and R is (q, m).  Operators kept
        at full rank return (apply_rows(A), None).  L may be A itself, so
        callers must not write to it."""
        return self.apply_rows(A), None

    @property
    def retained(self) -> int:
        """q, the number of retained eigenpairs: m unless the operator is
        truncated."""
        return self.grid.size

    def truncated(self, q: int) -> "OutputOperator":
        """The operator kept to its q leading eigenpairs, equal to one built
        at rank q, which reads them from this operator's eigensolve.  This
        default serves the operators that have no truncation: each is its
        own at q = m, and any other q raises ``ValueError``."""
        if q != self.retained:
            raise ValueError(f"{self!r} has no rank-{q} truncation")
        return self

    def eigvals(self) -> np.ndarray:
        """The q retained eigenvalues, (q,), in the order of the eigenvectors
        V of :meth:`coords` and :meth:`expand`.  The operator maps every
        direction outside V to zero.  Callers must not write to it."""
        raise NotImplementedError

    def coords(self, A: np.ndarray) -> np.ndarray:
        """Coordinates A W V, (k, q), of the rows of a (k, m) array in the
        retained eigenvectors V ((m, q), orthonormal under the quadrature
        inner product).  This default serves the diagonal operators, whose
        V = W^-1/2 in grid order: it scales by sqrt(w)."""
        return A * np.sqrt(self.grid.weights)

    def expand(self, C: np.ndarray) -> np.ndarray:
        """Grid values C V^T, (k, m), a fresh array, of (k, q) coordinates;
        so coords(expand(C)) = C.  The default scales by 1 / sqrt(w)."""
        return C / np.sqrt(self.grid.weights)

    def mean_eigenvalue(self) -> float:
        """Mean of all m eigenvalues, the null space's zeros included: 1 for
        the identity, the mean of the diagonal for multiplication."""
        return float(self.eigvals().sum()) / self.grid.size

    def matrix(self) -> np.ndarray:
        """Dense coordinate-space matrix (the dense oracle and tests)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityOperator(OutputOperator):
    """T a = a."""

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        return np.array(A, copy=True)

    def factored_rows(self, A: np.ndarray):
        # A itself: the copy of apply_rows buys nothing in a product
        return A, None

    def eigvals(self):
        return np.ones(self.grid.size)

    def matrix(self):
        return np.eye(self.grid.size)

    def to_config(self):
        return {"kind": "identity"}


@dataclass(frozen=True)
class MultiplicationOperator(OutputOperator):
    """(T a)(t) = exp(-t^2) a(t), diagonal in the coordinate basis."""

    def __post_init__(self):
        diag = np.exp(-self.grid.points ** 2)
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        return A * self.diag[None, :]

    def eigvals(self):
        return self.diag

    def matrix(self):
        return np.diag(self.diag)

    def to_config(self):
        return {"kind": "multiplication"}


def _ou_precision(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (m,) and off-diagonal (m - 1,) of Q = K^-1 for the kernel
    matrix K_jl = exp(-|t_j - t_l|) on strictly increasing points.

    K is the covariance of an Ornstein-Uhlenbeck process, which is Markov,
    so Q is tridiagonal in closed form: with e_j = exp(-(t_j+1 - t_j)),
    Q_j,j+1 = -e_j / (1 - e_j^2) and Q_jj = 1 + e_j-1^2 / (1 - e_j-1^2)
    + e_j^2 / (1 - e_j^2), leaving out the terms past either end of the
    grid (Rybicki & Press, Phys. Rev. Lett. 74, 1995).
    """
    gaps = np.diff(points)
    e = np.exp(-gaps)
    denom = -np.expm1(-2.0 * gaps)  # 1 - e^2 without cancellation
    ratio = e * e / denom
    diag = np.ones(points.size)
    diag[:-1] += ratio
    diag[1:] += ratio
    return diag, -e / denom


def _subset_pays(m: int, q: int) -> bool:
    """Whether MRRR should solve for the q leading pairs alone, not all m.

    The subset solve costs about m q against the full solve's m^2, with a
    larger constant and a fixed overhead on tiny grids.  Measured on one
    BLAS thread, whole decomposition of a random grid, subset time over
    full time: 0.70 at m = 200, q = 40, 0.88 at q = 50, 1.06 at q = 60;
    0.94 at m = 500, q = 125, 1.19 at q = 150; 0.88 at m = 2,000,
    q = 500, 1.10 at q = 600; 0.95 at m = 16, q = 4; but 0.98 to 1.11 for
    q <= m / 4 at m = 4 and 8, where either solve takes about 0.1 ms.
    """
    return m >= 16 and 4 * q <= m


def _ou_quadratic_forms(points: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x^T K x for each column x of the (m, k) array X, with K as in
    :func:`_ou_precision`, in O(m k).

    K = L^-1 + L^-T - I, where L is unit lower bidiagonal with -e_j below
    the diagonal: (L^-1)_jl = exp(-(t_j - t_l)) for j >= l.  So
    x^T K x = 2 x^T L^-1 x - x^T x, from one bidiagonal solve.
    """
    bands = np.zeros((2, points.size))
    bands[0] = 1.0
    bands[1, :-1] = -np.exp(-np.diff(points))
    y, _ = dtbtrs(bands, X, uplo="L", diag="U")  # a unit diagonal: no failure
    return 2.0 * np.einsum("jk,jk->k", X, y) - np.einsum("jk,jk->k", X, X)


@dataclass(frozen=True)
class IntegralOperator(OutputOperator):
    """(T a)(t) = integral of exp(-|t - s|) a(s) ds over the grid domain.

    With ``rank=None`` the quadrature discretization of the full operator is
    used.  With ``rank=q < m`` the operator *is* the best rank-q
    approximation: application, eigenvalues and coordinate maps all refer
    to the truncated map.

    The spectrum of W^1/2 K W^1/2 (K the kernel matrix on the grid points,
    W the quadrature weights) costs O(m^2).  Its eigenvectors are those of
    the tridiagonal W^-1/2 Q W^-1/2, Q = K^-1 in closed form
    (:func:`_ou_precision`), from one MRRR eigensolve.  A truncated operator
    asks MRRR for the index range of its q leading pairs alone, in O(m q),
    when q is below the measured crossover of :func:`_subset_pays`, and for
    all m pairs otherwise; it keeps only the q, in order of decreasing
    eigenvalue.  :meth:`truncated` gives a narrower rank read-only views of
    their leading columns, with no second solve: the index-range solve for
    q pairs holds every smaller range's (Dhillon, Parlett & Vomel, ACM TOMS
    32, 2006).  Each eigenvalue is then the Rayleigh quotient of K at its
    eigenvector
    (:func:`_ou_quadratic_forms`): the reciprocal of Q's eigenvalue would
    lose the leading eigenvalues' accuracy on grids with close points,
    where Q's entries are large.  The dense m x m kernel matrix is built
    only for :meth:`matrix` and the full-rank :meth:`apply_rows`.
    """

    rank: int | None = None
    # caches, not fields: the dense kernel matrix and the retained
    # eigenpairs, set on first use; _weighted is W V, the basis that
    # coords() multiplies by
    _tmat = _eigvals = _eigvecs = _weighted = None

    def __post_init__(self):
        rank, m = self.rank, self.grid.size
        if rank is not None:
            rank = as_int("rank", rank)
            if rank > m:
                raise ValueError(f"rank must be in [1, {m}]")
            object.__setattr__(self, "rank", None if rank == m else rank)

    def _kernel_matrix(self) -> np.ndarray:
        """Operator matrix in coordinates, (T a)_j = sum_l w_l
        exp(-|t_j - t_l|) a_l, the dense kernel formula; built on first
        use and kept."""
        if self._tmat is None:
            t = self.grid.points
            kernel = np.exp(-np.abs(t[:, None] - t[None, :]))
            object.__setattr__(self, "_tmat", kernel * self.grid.weights[None, :])
        return self._tmat

    def _decompose(self):
        if self._eigvals is None:
            t, w = self.grid.points, self.grid.weights
            sw = np.sqrt(w)
            diag, off = _ou_precision(t)
            diag = diag / w
            off = off / (sw[:-1] * sw[1:])
            # scale by a power of two, which is exact: unscaled, MRRR failed
            # to converge (LAPACK info 22) on grids with gaps near 1e-6,
            # where the entries reach 1e12
            _, exp2 = np.frexp(diag.max())
            q = self.retained
            # Q's q smallest eigenvalues are K's q largest: MRRR solves for
            # that index range alone when it pays.  It is asked for two pairs
            # at least: alone, the leading pair's residual reached 1e-4 of
            # its eigenvalue on grids that mix gaps near 1e-6 with ordinary
            # ones, where two matched the full solve's 5e-10
            subset = {}
            if _subset_pays(t.size, q):
                subset = {"select": "i", "select_range": (0, max(q, 2) - 1)}
            _, vecs = eigh_tridiagonal(np.ldexp(diag, -exp2), np.ldexp(off, -exp2),
                                       lapack_driver="stemr", **subset)
            vals = _ou_quadratic_forms(t, vecs * sw[:, None])
            # only the retained pairs are kept: m x q, not m x m
            keep = np.argsort(-vals, kind="stable")[:q]
            # quadrature-orthonormal: v^T W v = 1; dividing in place is
            # several times faster than a new array here
            vecs = vecs[:, keep]
            vecs /= sw[:, None]
            self._keep(vals[keep], vecs, w[:, None] * vecs)
        return self._eigvals, self._eigvecs

    def _keep(self, vals, vecs, weighted):
        """Hold the retained eigenpairs and W V, read-only."""
        for name, a in zip(("_eigvals", "_eigvecs", "_weighted"),
                           (vals, vecs, weighted)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def retained(self) -> int:
        return self.grid.size if self.rank is None else self.rank

    def truncated(self, q: int) -> "IntegralOperator":
        # read-only views of this operator's leading pairs: no eigensolve
        q = as_int("rank", q)
        if q >= self.retained:
            return super().truncated(q)
        vals, vecs = self._decompose()
        out = IntegralOperator(self.grid, rank=q)
        out._keep(vals[:q], vecs[:, :q], self._weighted[:, :q])
        return out

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        left, right = self.factored_rows(A)
        return left if right is None else left @ right

    def factored_rows(self, A: np.ndarray):
        # truncated: T a = V_q Lambda_q V_q^T W a, so the rows of A map to
        # (A W V_q Lambda_q) V_q^T
        if self.rank is None:
            return A @ self._kernel_matrix().T, None
        vals, vecs = self._decompose()
        return self.coords(A) * vals, vecs.T

    def eigvals(self):
        return self._decompose()[0]

    def coords(self, A):
        self._decompose()
        return A @ self._weighted

    def expand(self, C):
        return C @ self._decompose()[1].T

    def matrix(self):
        if self.rank is None:
            return self._kernel_matrix().copy()
        vals, vecs = self._decompose()
        return (vecs * vals[None, :]) @ (vecs.T * self.grid.weights[None, :])

    def to_config(self):
        return {"kind": "integral", "rank": self.rank}


def operator_from_config(cfg: dict, grid: Grid) -> OutputOperator:
    kind = cfg.get("kind")
    if kind == "identity":
        return IdentityOperator(grid)
    if kind == "multiplication":
        return MultiplicationOperator(grid)
    if kind == "integral":
        return IntegralOperator(grid, cfg.get("rank"))
    raise ValueError(f"unknown output operator kind: {kind!r}")


# ---------------------------------------------------------------------------
# kernel terms, stacks and the block Gram matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OvKernelTerm:
    """One weighted operator-valued kernel term d * G(w, z) * T."""

    scalar: ScalarKernel
    operator: OutputOperator
    weight: float = 1.0

    def __post_init__(self):
        weight = as_real("term weight", self.weight)
        if not 0 <= weight < math.inf:
            raise ValueError("term weight must be nonnegative and finite")
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True, eq=False)
class KernelStack:
    """Weighted collection of kernel terms sharing one output grid, kept
    as a tuple; stacks compare by identity."""

    terms: tuple[OvKernelTerm, ...]
    norm_exponent: float = 2.0

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a kernel stack needs at least one term")
        grid = terms[0].operator.grid
        for t in terms[1:]:
            if t.operator.grid != grid:
                raise DimensionError("all terms must share the output grid")
        norm_exponent = as_real("norm exponent", self.norm_exponent)
        if not norm_exponent >= 1:
            raise ValueError("norm exponent must be >= 1")
        d = np.array([t.weight for t in terms])
        if weight_constraint(d, norm_exponent) > 1.0 + 1e-9:
            raise ValueError("term weights violate the norm constraint")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "norm_exponent", norm_exponent)
        object.__setattr__(self, "output_grid", grid)

    @classmethod
    def uniform(cls, pairs, norm_exponent: float = 2.0) -> "KernelStack":
        """Stack with weights 1/M from (scalar, operator) pairs."""
        pairs = list(pairs)
        d0 = 1.0 / len(pairs)
        return cls(
            [OvKernelTerm(s, op, d0) for s, op in pairs], norm_exponent
        )

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([t.weight for t in self.terms])

    def with_weights(self, d) -> "KernelStack":
        d = np.asarray(d, dtype=float)
        if d.size != len(self.terms):
            raise DimensionError("weight vector length does not match the stack")
        return KernelStack(
            [OvKernelTerm(t.scalar, t.operator, w) for t, w in zip(self.terms, d)],
            self.norm_exponent,
        )


def group_by_operator(pairs):
    """Sum the values of (key, value) pairs over equal operators or kernels.

    Groups keep the order in which their keys first appear.  Values may be
    scalars, arrays or lists; arrays and lists are summed (concatenated) in
    place into the first value of their group, so pass fresh ones.
    """
    groups: list[list] = []
    for op, value in pairs:
        for entry in groups:
            if op is entry[0] or op == entry[0]:
                entry[1] += value
                break
        else:
            groups.append([op, value])
    return [(op, value) for op, value in groups]


def weight_constraint(d: np.ndarray, r: float) -> float:
    """Value of the norm constraint: sum d^r, or max d when r is infinite."""
    d = np.asarray(d, dtype=float)
    if math.isinf(r):
        return float(np.max(d)) if d.size else 0.0
    return float(np.sum(d ** r))


class BlockGram:
    """Factored block operator Gram matrix sum_k d_k (G_k kron T_k).

    Stores one n x n scalar Gram per term and the structured operators.
    Terms sharing an operator are merged for matrix-vector work.  G_o acts
    on the rows' index and T_o on the grid, so the two commute, and each
    distinct operator o adds G_o (T_o A) with T_o A in the factors (L_o, R_o)
    of :meth:`OutputOperator.factored_rows`, as (G_o L_o) R_o.  One
    application costs one n^2 m product per full-rank operator and
    O(n^2 q + n m q) per operator of rank q, plus the full-rank integral
    operator's O(n m^2) application.
    """

    def __init__(self, scalar_grams, operators, weights, grid: Grid):
        self.scalar_grams = [np.asarray(g, dtype=float) for g in scalar_grams]
        self.operators = list(operators)
        self.weights = np.asarray(weights, dtype=float)
        self.grid = grid
        if not (
            len(self.scalar_grams) == len(self.operators) == self.weights.size
        ):
            raise DimensionError("grams, operators and weights must align")
        self.n = self.scalar_grams[0].shape[0]
        for g in self.scalar_grams:
            if g.shape != (self.n, self.n):
                raise DimensionError("scalar Gram matrices must share one shape")
        live = [k for k, d in enumerate(self.weights) if d != 0.0]
        self._groups = group_by_operator(
            (self.operators[k], self.weights[k] * self.scalar_grams[k]) for k in live
        )
        # the indices of the terms on each distinct operator, zero weights too
        self._members = group_by_operator(
            (op, [k]) for k, op in enumerate(self.operators))

    @property
    def n_terms(self) -> int:
        return len(self.scalar_grams)

    @property
    def merged_groups(self):
        """(operator, combined weighted Gram) pairs, zero weights dropped."""
        return self._groups

    def with_weights(self, d) -> "BlockGram":
        return BlockGram(self.scalar_grams, self.operators, d, self.grid)

    def apply_values(self, A: np.ndarray) -> np.ndarray:
        """Block matrix action on stacked curve values (n, m)."""
        out = None
        for op, gmat in self._groups:
            left, right = op.factored_rows(A)
            part = gmat @ left
            if right is not None:
                part = part @ right
            # every part is a fresh product: the first one is kept as the sum
            if out is None:
                out = part
            else:
                out += part
        return np.zeros_like(A) if out is None else out

    def apply(self, alpha: CurveVec) -> CurveVec:
        if alpha.grid != self.grid:
            raise DimensionError("curve vector does not live on the output grid")
        if alpha.n != self.n:
            raise DimensionError(
                f"curve vector has {alpha.n} entries for a block size {self.n}"
            )
        return CurveVec(self.grid, self.apply_values(alpha.values))

    def quad_forms(self, A: np.ndarray) -> np.ndarray:
        """Unweighted quadratic forms <(G_k kron T_k) a, a> of every term, in
        the quadrature pairing, the terms of zero weight included: the
        duality gap of :func:`movkl.learn.movkl_fit` needs them all.

        Term k's form is the Frobenius product <G_k, M_o> with
        M_o = (A W)(T_o A)^T, one n x n matrix per distinct operator o:
        ((A W) R_o^T) L_o^T from the factors of
        :meth:`OutputOperator.factored_rows`, so a rank-q operator costs
        O(n m q + n^2 q) in place of an n^2 m product.
        """
        out = np.zeros(self.n_terms)
        weighted = A * self.grid.weights
        for op, terms in self._members:
            left, right = op.factored_rows(A)
            M = (weighted if right is None else weighted @ right.T) @ left.T
            for k in terms:
                out[k] = np.vdot(self.scalar_grams[k], M)
        return out

    def densify(self) -> np.ndarray:
        """Explicit (n*m) x (n*m) matrix; testing escape hatch."""
        m = self.grid.size
        out = np.zeros((self.n * m, self.n * m))
        for op, gmat in self._groups:
            out += np.kron(gmat, op.matrix())
        return out


def assemble_gram(stack: KernelStack, inputs: CurveVec, pairs=None) -> BlockGram:
    """Compute the per-term scalar Gram matrices for a set of input curves.

    ``pairs`` may pass in ``CurveStats(inputs).pairs()``, computed once by a
    caller that assembles several stacks on the same inputs.
    """
    if pairs is None:
        pairs = CurveStats(inputs).pairs()
    grams = [t.scalar.evaluate(*pairs) for t in stack.terms]
    return BlockGram(
        grams, [t.operator for t in stack.terms], stack.weights, stack.output_grid
    )
