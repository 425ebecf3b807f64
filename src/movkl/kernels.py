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
low-rank.  Every operator gives its quadrature-orthonormal eigenbasis
(:meth:`OutputOperator.full_basis`), from which it solves its shifted system
(scale * T + c * I) u = b, and its mean eigenvalue, which sets the scale of
trace normalization and of the operators folded into the solver's
preconditioner of :func:`movkl.linsolve.pcg_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DimensionError
from .funcspace import Curve, CurveVec, Grid, as_int

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
        arguments of :meth:`ScalarKernel.evaluate`; zs defaults to xs."""
        zs = self.curves if zs is None else zs
        return self.cross(zs.grid, zs.values)

    def cross(self, grid: Grid, z: np.ndarray):
        """:meth:`pairs` for raw values on ``grid``: the rows of a (p, m)
        array give (n, p) arrays, one curve's (m,) values give (n,) arrays.
        Lets a single validated curve skip the CurveVec wrapper."""
        if grid != self.curves.grid:
            raise DimensionError("kernel arguments live on different grids")
        ip = self.weighted @ z.T
        sq_dist = np.add.outer(self.sq_norms, _sq_norms(z, grid.weights))
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

    def evaluate(self, ip: np.ndarray, sq_dist: np.ndarray) -> np.ndarray:
        """Kernel values from the quadrature inner products and squared
        distances of curve pairs, elementwise."""
        raise NotImplementedError

    def unscaled(self) -> tuple["ScalarKernel", float]:
        """The kernel under any ScaledKernel wrappers and their total factor."""
        return self, 1.0

    def to_config(self) -> dict:
        raise NotImplementedError


class GaussianKernel(ScalarKernel):
    """G(x, z) = exp(-||x - z||^2 / (2 sigma^2)) with the quadrature norm."""

    def __init__(self, bandwidth: float):
        bandwidth = float(bandwidth)
        if not 0 < bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        self.bandwidth = bandwidth

    def evaluate(self, ip, sq_dist):
        return np.exp(-sq_dist / (2.0 * self.bandwidth ** 2))

    def __eq__(self, other):
        return isinstance(other, GaussianKernel) and other.bandwidth == self.bandwidth

    def __hash__(self):
        return hash(("gaussian", self.bandwidth))

    def __repr__(self):
        return f"GaussianKernel(bandwidth={self.bandwidth:g})"

    def to_config(self) -> dict:
        return {"kind": "gaussian", "bandwidth": self.bandwidth}


class PolynomialKernel(ScalarKernel):
    """G(x, z) = (<x, z> + offset)^degree with the quadrature inner product."""

    def __init__(self, degree: int, offset: float = 1.0):
        degree = int(degree)
        offset = float(offset)
        if degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        if not 0 <= offset < math.inf:
            raise ValueError("offset must be nonnegative and finite")
        self.degree = degree
        self.offset = offset

    def evaluate(self, ip, sq_dist):
        # repeated products: numpy's power has a fast path for squares only
        b = ip + self.offset
        out = b
        for _ in range(self.degree - 1):
            out = out * b
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialKernel)
            and other.degree == self.degree
            and other.offset == self.offset
        )

    def __hash__(self):
        return hash(("polynomial", self.degree, self.offset))

    def __repr__(self):
        return f"PolynomialKernel(degree={self.degree}, offset={self.offset:g})"

    def to_config(self) -> dict:
        return {"kind": "polynomial", "degree": self.degree, "offset": self.offset}


class ScaledKernel(ScalarKernel):
    """A scalar kernel multiplied by a fixed positive factor.

    Used to bring kernels of very different magnitudes onto a comparable
    scale before combining them (for example trace normalization of the
    training Gram), which keeps evenly weighted sums meaningful.
    """

    def __init__(self, base: ScalarKernel, factor: float):
        factor = float(factor)
        if not 0 < factor < math.inf:
            raise ValueError("scale factor must be positive and finite")
        self.base = base
        self.factor = factor

    def evaluate(self, ip, sq_dist):
        return self.factor * self.base.evaluate(ip, sq_dist)

    def unscaled(self):
        base, factor = self.base.unscaled()
        return base, self.factor * factor

    def __eq__(self, other):
        return (
            isinstance(other, ScaledKernel)
            and other.factor == self.factor
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("scaled", self.factor, self.base))

    def __repr__(self):
        return f"ScaledKernel({self.base!r}, factor={self.factor:g})"

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
    sq = CurveStats(xs).sq_norms  # the pairs (x_i, x_i), in O(n m)
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

class OutputOperator:
    """Structured self-adjoint PSD linear map on curves over one grid."""

    def __init__(self, grid: Grid):
        self.grid = grid

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
        at full rank return (apply_rows(A), None)."""
        return self.apply_rows(A), None

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (descending) and eigenvectors, orthonormal under the
        quadrature inner product.  Truncated operators return their retained
        pairs only."""
        raise NotImplementedError

    def full_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """All m eigenpairs of the operator's action (zeros filled in for
        directions a truncated operator annihilates)."""
        raise NotImplementedError

    def mean_eigenvalue(self) -> float:
        """Mean of the m eigenvalues of :meth:`full_basis`: 1 for the
        identity, the mean of the diagonal for multiplication."""
        vals, _ = self.full_basis()
        return float(vals.sum()) / vals.size

    def shifted_solve(self, c: float, scale: float, b: Curve) -> Curve:
        """Solve (scale * T + c * I) u = b through the spectrum.

        Directions outside the retained eigenvectors see the shift alone,
        so truncated operators invert exactly.
        """
        if c <= 0:
            raise ValueError("shift c must be positive")
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        if b.grid != self.grid:
            raise DimensionError("curve does not live on the operator grid")
        vals, vecs = self.spectrum()
        coeffs = (b.values * self.grid.weights) @ vecs
        corr = 1.0 / (scale * vals + c) - 1.0 / c
        return Curve(self.grid, vecs @ (coeffs * corr) + b.values / c)

    def matrix(self) -> np.ndarray:
        """Dense coordinate-space matrix (the dense oracle and tests)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


class IdentityOperator(OutputOperator):
    """T a = a."""

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        return np.array(A, copy=True)

    def spectrum(self):
        m = self.grid.size
        vecs = np.zeros((m, m))
        np.fill_diagonal(vecs, 1.0 / np.sqrt(self.grid.weights))
        return np.ones(m), vecs

    def full_basis(self):
        return self.spectrum()

    def matrix(self):
        return np.eye(self.grid.size)

    def __eq__(self, other):
        return isinstance(other, IdentityOperator) and other.grid == self.grid

    def __hash__(self):
        return hash(("identity", self.grid))

    def __repr__(self):
        return f"IdentityOperator(m={self.grid.size})"

    def to_config(self):
        return {"kind": "identity"}


class MultiplicationOperator(OutputOperator):
    """(T a)(t) = exp(-t^2) a(t), diagonal in the coordinate basis."""

    def __init__(self, grid: Grid):
        super().__init__(grid)
        self.diag = np.exp(-grid.points ** 2)
        self.diag.setflags(write=False)

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        return A * self.diag[None, :]

    def spectrum(self):
        order = np.argsort(-self.diag, kind="stable")
        m = self.grid.size
        vecs = np.zeros((m, m))
        vecs[order, np.arange(m)] = 1.0 / np.sqrt(self.grid.weights[order])
        return self.diag[order].copy(), vecs

    def full_basis(self):
        return self.spectrum()

    def matrix(self):
        return np.diag(self.diag)

    def __eq__(self, other):
        return isinstance(other, MultiplicationOperator) and other.grid == self.grid

    def __hash__(self):
        return hash(("multiplication", self.grid))

    def __repr__(self):
        return f"MultiplicationOperator(m={self.grid.size})"

    def to_config(self):
        return {"kind": "multiplication"}


class IntegralOperator(OutputOperator):
    """(T a)(t) = integral of exp(-|t - s|) a(s) ds over the grid domain.

    With ``rank=None`` the quadrature discretization of the full operator is
    used.  With ``rank=q < m`` the operator *is* the best rank-q
    approximation: application, spectrum and shifted solves all refer to
    the truncated map.
    """

    def __init__(self, grid: Grid, rank: int | None = None):
        super().__init__(grid)
        m = grid.size
        if rank is not None:
            rank = as_int("rank", rank)
            if rank > m:
                raise ValueError(f"rank must be in [1, {m}]")
            if rank == m:
                rank = None
        self.rank = rank
        t = grid.points
        kernel = np.exp(-np.abs(t[:, None] - t[None, :]))
        # operator matrix in coordinates: (T a)_j = sum_l w_l kernel_jl a_l
        self._tmat = kernel * grid.weights[None, :]
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    def _decompose(self):
        # symmetrize with sqrt-weights so a plain eigh gives the
        # quadrature-orthonormal eigenbasis
        if self._eigvals is None:
            sw = np.sqrt(self.grid.weights)
            sym = sw[:, None] * self._tmat / sw[None, :]
            sym = 0.5 * (sym + sym.T)
            vals, vecs = np.linalg.eigh(sym)
            order = np.argsort(-vals, kind="stable")
            self._eigvals = vals[order]
            self._eigvecs = vecs[:, order] / sw[:, None]
        return self._eigvals, self._eigvecs

    @property
    def retained(self) -> int:
        return self.grid.size if self.rank is None else self.rank

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        left, right = self.factored_rows(A)
        return left if right is None else left @ right

    def factored_rows(self, A: np.ndarray):
        # truncated: T a = V_q Lambda_q V_q^T W a, so the rows of A map to
        # (A W V_q Lambda_q) V_q^T
        if self.rank is None:
            return A @ self._tmat.T, None
        vals, vecs = self._decompose()
        q = self.rank
        coeffs = A @ (self.grid.weights[:, None] * vecs[:, :q])
        return coeffs * vals[:q], vecs[:, :q].T

    def spectrum(self):
        vals, vecs = self._decompose()
        q = self.retained
        return vals[:q].copy(), vecs[:, :q].copy()

    def full_basis(self):
        vals, vecs = self._decompose()
        vals = vals.copy()
        if self.rank is not None:
            vals[self.rank:] = 0.0
        return vals, vecs.copy()

    def matrix(self):
        if self.rank is None:
            return self._tmat.copy()
        vals, vecs = self.spectrum()
        return (vecs * vals[None, :]) @ (vecs.T * self.grid.weights[None, :])

    def __eq__(self, other):
        return (
            isinstance(other, IntegralOperator)
            and other.grid == self.grid
            and other.rank == self.rank
        )

    def __hash__(self):
        return hash(("integral", self.grid, self.rank))

    def __repr__(self):
        return f"IntegralOperator(m={self.grid.size}, rank={self.rank})"

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
        if self.weight < 0:
            raise ValueError("term weight must be nonnegative")


class KernelStack:
    """Weighted collection of kernel terms sharing one output grid."""

    def __init__(self, terms, norm_exponent: float = 2.0):
        terms = list(terms)
        if not terms:
            raise ValueError("a kernel stack needs at least one term")
        grid = terms[0].operator.grid
        for t in terms[1:]:
            if t.operator.grid != grid:
                raise DimensionError("all terms must share the output grid")
        norm_exponent = float(norm_exponent)
        if not norm_exponent >= 1:
            raise ValueError("norm exponent must be >= 1")
        d = np.array([t.weight for t in terms])
        if weight_constraint(d, norm_exponent) > 1.0 + 1e-9:
            raise ValueError("term weights violate the norm constraint")
        self.terms = terms
        self.norm_exponent = norm_exponent
        self.output_grid = grid

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

    def shared_operator(self) -> OutputOperator | None:
        """The single output operator if all terms agree, else None."""
        groups = group_by_operator((t.operator, 0) for t in self.terms)
        return groups[0][0] if len(groups) == 1 else None


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
    Terms sharing an operator are merged for matrix-vector work, so the
    cost of one application is one scalar-Gram product plus one operator
    application per *distinct* operator.
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
        self._groups = group_by_operator(
            (op, d * gmat)
            for gmat, op, d in zip(self.scalar_grams, self.operators, self.weights)
            if d != 0.0
        )

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
        out = np.zeros_like(A)
        for op, gmat in self._groups:
            out += op.apply_rows(gmat @ A)
        return out

    def apply(self, alpha: CurveVec) -> CurveVec:
        if alpha.grid != self.grid:
            raise DimensionError("curve vector does not live on the output grid")
        if alpha.n != self.n:
            raise DimensionError(
                f"curve vector has {alpha.n} entries for a block size {self.n}"
            )
        return CurveVec(self.grid, self.apply_values(alpha.values))

    def quad_form_term(self, k: int, A: np.ndarray) -> float:
        """Unweighted quadratic form <(G_k kron T_k) a, a> for term k."""
        if not 0 <= k < self.n_terms:
            raise IndexError(f"term index {k} out of range")
        B = self.operators[k].apply_rows(self.scalar_grams[k] @ A)
        return float(np.sum((B * A) @ self.grid.weights))

    def densify(self) -> np.ndarray:
        """Explicit (n*m) x (n*m) matrix; testing escape hatch."""
        m = self.grid.size
        out = np.zeros((self.n * m, self.n * m))
        for op, gmat in self._groups:
            out += np.kron(gmat, op.matrix())
        return out


def assemble_gram(stack: KernelStack, inputs: CurveVec) -> BlockGram:
    """Compute the per-term scalar Gram matrices for a set of input curves."""
    stats = CurveStats(inputs).pairs()
    grams = [t.scalar.evaluate(*stats) for t in stack.terms]
    return BlockGram(
        grams, [t.operator for t in stack.terms], stack.weights, stack.output_grid
    )
