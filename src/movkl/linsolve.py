"""Solvers for the block operator ridge system (K + ridge*I) alpha = y.

Three routes are provided:

* :func:`dense_solve` densifies the block matrix and factorizes it; it is
  the reference oracle for small problems.
* :func:`kron_solve` handles stacks whose terms share one output operator,
  where the block matrix is a Kronecker product and the system diagonalizes
  in the eigenbases of the combined scalar Gram and of the operator.
* :func:`gauss_seidel_solve` sweeps over samples, solving one diagonal
  block [K(x_i, x_i) + ridge*I] at a time.  Identity terms join the ridge
  shift and a lone remaining operator is inverted directly.  A block that
  mixes operators is solved in closed form first (Woodbury identity, for
  one diagonal plus one low-rank operator), then by variable splitting,
  which decouples the operators so that every sub-step inverts a single
  shifted operator, and last by a cached dense LU factorization if the
  splitting stalls.  :func:`split_block_solve` runs that block solver on
  one block.

All residuals are measured in the quadrature norm of the output space,
relative to the norm of the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np
import scipy.linalg

from .errors import CapacityError, DimensionError, SolverError
from .funcspace import Curve, CurveVec
from .kernels import (
    BlockGram,
    DiagonalShiftedInverse,
    IdentityOperator,
    SpectralShiftedInverse,
    group_by_operator,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "dense_solve",
    "kron_solve",
    "gauss_seidel_solve",
    "split_block_solve",
]

log = logging.getLogger(__name__)

DENSE_GUARD = 5000
DENSE_FALLBACK_GUARD = 2000
DENSE_TOL = 1e-10
KRON_TOL = 1e-8


@dataclass
class SolveConfig:
    """Tolerances and iteration caps for the iterative solvers.

    The ridge shift itself is always passed to the solver calls; only the
    stopping behavior lives here.
    """

    outer_tol: float = 1e-8
    outer_max_iter: int = 500
    inner_tol: float = 1e-10
    inner_max_iter: int = 200

    def __post_init__(self):
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.outer_max_iter < 1 or self.inner_max_iter < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    solver_kind: str


def _wnorm(values: np.ndarray, w: np.ndarray) -> float:
    v = np.atleast_2d(values)
    return float(np.sqrt(max(np.sum((v * v) @ w), 0.0)))


def _rel_residual(gram: BlockGram, ridge: float, A, Y, w) -> float:
    R = Y - gram.apply_values(A) - ridge * A
    ynorm = _wnorm(Y, w)
    return _wnorm(R, w) / ynorm if ynorm > 0 else _wnorm(R, w)


def _check_solve_args(gram: BlockGram, ridge: float, y: CurveVec) -> None:
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    if y.grid != gram.grid:
        raise DimensionError("right-hand side does not live on the output grid")
    if y.n != gram.n:
        raise DimensionError(
            f"right-hand side has {y.n} curves for a block size {gram.n}"
        )


def dense_solve(gram: BlockGram, ridge: float, y: CurveVec):
    """Direct factorization of the densified system; the reference oracle.

    Guarded to n*m <= 5000 unknowns.  One step of iterative refinement
    keeps the residual near machine precision.
    """
    _check_solve_args(gram, ridge, y)
    n, m = gram.n, gram.grid.size
    if n * m > DENSE_GUARD:
        raise CapacityError(
            f"dense solve of size {n * m} exceeds the guard {DENSE_GUARD}"
        )
    A = gram.densify()
    A[np.diag_indices_from(A)] += ridge
    lu, piv = scipy.linalg.lu_factor(A)
    b = y.values.reshape(-1)
    x = scipy.linalg.lu_solve((lu, piv), b)
    x += scipy.linalg.lu_solve((lu, piv), b - A @ x)
    X = x.reshape(n, m)
    resid = _rel_residual(gram, ridge, X, y.values, gram.grid.weights)
    report = SolveReport(
        iterations=1,
        final_residual=resid,
        converged=resid <= DENSE_TOL,
        solver_kind="dense",
    )
    return CurveVec(gram.grid, X), report


def kron_solve(gram: BlockGram, ridge: float, y: CurveVec):
    """Eigendecomposition solve for stacks sharing one output operator.

    With G = U diag(g) U^T the combined scalar Gram and T = V diag(s) V^*
    (V orthonormal under the quadrature inner product), the solution is
    obtained coordinate-wise in the product basis without forming any
    Kronecker product.
    """
    _check_solve_args(gram, ridge, y)
    groups = gram.merged_groups
    if len(groups) > 1:
        raise SolverError(
            "kernel stack mixes output operators; use gauss_seidel_solve"
        )
    w = gram.grid.weights
    Y = y.values
    if groups:
        op, G = groups[0]
        G = 0.5 * (G + G.T)
        gvals, U = np.linalg.eigh(G)
        svals, V = op.full_basis()
        B = U.T @ Y @ (w[:, None] * V)
        Z = B / (np.multiply.outer(gvals, svals) + ridge)
        X = U @ Z @ V.T
    else:
        # all weights zero: pure ridge system
        X = Y / ridge
    resid = _rel_residual(gram, ridge, X, Y, w)
    return (
        CurveVec(gram.grid, X),
        SolveReport(1, resid, resid <= KRON_TOL, "kron"),
    )


def split_block_solve(diag_terms, ridge: float, s: Curve, cfg: SolveConfig | None = None,
                      warm: Curve | None = None) -> Curve:
    """Solve (sum_k c_k T_k + ridge*I) u = s for one diagonal block.

    ``diag_terms`` is a list of (c_k, T_k) pairs with c_k the weighted
    scalar-kernel diagonal value.  Terms sharing an operator are merged
    and the block goes through the solver that :func:`gauss_seidel_solve`
    uses for each sample update.
    """
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    diag_terms = list(diag_terms)
    if any(scale < 0 for scale, _ in diag_terms):
        raise ValueError("diagonal scalar values must be nonnegative")
    groups = group_by_operator((op, float(scale)) for scale, op in diag_terms)
    solver = _PreparedDiagSolver(groups, ridge, s.grid.weights, cfg or SolveConfig())
    return Curve(s.grid, solver.solve(s.values, None if warm is None else warm.values))


class _PreparedDiagSolver:
    """Solver for one diagonal block (sum_k c_k T_k + ridge*I) u = s.

    ``groups`` holds (operator, c_k) pairs with distinct operators.  Zero
    scales drop out and identity terms join the ridge shift.  The other
    operators are inverted through their prepared shifted inverses, tried
    in order: the closed form for one diagonal plus one low-rank operator,
    the splitting iteration (one auxiliary function per operator, so that
    every sub-step inverts a single shifted operator), and a cached dense
    factorization if the iteration does not reach ``inner_tol``.
    """

    def __init__(self, groups, ridge, weights, cfg):
        self.cfg = cfg
        self.w = weights
        shift = ridge
        kept = []
        for op, c in groups:
            if c <= 0:
                continue
            if isinstance(op, IdentityOperator):
                shift += c
            else:
                kept.append((op, c))
        self.shift = shift
        self.terms = [op.shifted_inverse(c, shift) for op, c in kept]
        self._ops = kept
        self._fallback = None
        self._woodbury = self._prepare_woodbury()

    def _prepare_woodbury(self):
        # a diagonal operator plus one truncated integral solves in closed
        # form through the low-rank update identity on the spectral factors
        if len(self.terms) != 2:
            return None
        diag, spec = self.terms
        if isinstance(diag, SpectralShiftedInverse):
            diag, spec = spec, diag
        if not (isinstance(diag, DiagonalShiftedInverse)
                and isinstance(spec, SpectralShiftedInverse)
                and spec.gain.size <= 64):
            return None
        b_inv = diag.inv
        core = np.linalg.inv(np.diag(1.0 / spec.gain)
                             + spec.wvecs.T @ (b_inv[:, None] * spec.vecs))
        return (b_inv, (b_inv[:, None] * spec.vecs) @ core, spec.wvecs,
                spec.gain, spec.vecs)

    def _dense_fallback(self, s):
        m = s.size
        if m > DENSE_FALLBACK_GUARD:
            raise CapacityError(
                f"diagonal block of size {m} exceeds the dense fallback guard"
            )
        if self._fallback is None:
            log.warning(
                "split solve did not reach %.1e in %d iterations; dense fallback",
                self.cfg.inner_tol,
                self.cfg.inner_max_iter,
            )
            A = sum(c * op.matrix() for op, c in self._ops)
            A[np.diag_indices_from(A)] += self.shift
            self._fallback = scipy.linalg.lu_factor(A)
        return scipy.linalg.lu_solve(self._fallback, s)

    def solve(self, s, warm=None):
        terms = self.terms
        if not terms:
            return s / self.shift
        if len(terms) == 1:
            return terms[0].solve(s)
        cfg = self.cfg
        snorm = max(1.0, _wnorm(s, self.w))
        if self._woodbury is not None:
            b_inv, correction, wv, gain, vecs = self._woodbury
            bs = b_inv * s
            u = bs - correction @ (wv.T @ bs)
            resid = s - u / b_inv - vecs @ ((wv.T @ u) * gain)
            if _wnorm(resid, self.w) <= cfg.inner_tol * snorm:
                return u
        alpha = np.zeros_like(s) if warm is None else warm
        gammas = [t.apply(alpha) for t in terms]
        for _ in range(cfg.inner_max_iter):
            total = sum(gammas)
            for k, t in enumerate(terms):
                alpha = t.solve(s - (total - gammas[k]))
                fresh = t.apply(alpha)
                total += fresh - gammas[k]
                gammas[k] = fresh
            resid = self.shift * alpha - s
            for t in terms:
                resid = resid + t.apply(alpha)
            if _wnorm(resid, self.w) <= cfg.inner_tol * snorm:
                return alpha
        return self._dense_fallback(s)


def gauss_seidel_solve(gram: BlockGram, ridge: float, y: CurveVec,
                       cfg: SolveConfig | None = None,
                       warm: CurveVec | None = None):
    """Sample-wise Gauss-Seidel sweeps for the block operator ridge system.

    Sweep order is the fixed ascending sample order.  Each sample update
    solves its diagonal block against the right-hand side

        s_i = y_i - sum_{j<i} K(x_i, x_j) alpha_j(new)
              - sum_{j>i} K(x_i, x_j) alpha_j(old),

    with the block solver of :func:`split_block_solve`: closed form
    first, then variable splitting, then dense LU.  The cheap per-sweep
    stopping test is the relative iterate change; convergence is only
    declared once the true relative residual is below ``outer_tol``.
    """
    cfg = cfg or SolveConfig()
    _check_solve_args(gram, ridge, y)
    n, m = gram.n, gram.grid.size
    w = gram.grid.weights
    Y = y.values
    if warm is None:
        A = np.zeros((n, m))
    else:
        if warm.grid != gram.grid or warm.n != n:
            raise DimensionError("warm start has the wrong shape")
        A = np.array(warm.values, copy=True)

    groups = gram.merged_groups
    caches = [op.apply_rows(A) for op, _ in groups]
    diag_solvers = [_PreparedDiagSolver(gram.diag_scalar_groups(i), ridge, w, cfg)
                    for i in range(n)]
    group_rows = [(gmat, np.diag(gmat).copy()) for _, gmat in groups]
    sweeps, resid = 0, None
    for sweeps in range(1, cfg.outer_max_iter + 1):
        prev = A.copy()
        for i in range(n):
            s_i = Y[i].copy()
            for (gmat, gdiag), cache in zip(group_rows, caches):
                s_i -= gmat[i] @ cache
                s_i += gdiag[i] * cache[i]
            A[i] = diag_solvers[i].solve(s_i, warm=A[i])
            row = A[i][None, :]
            for (op, _), cache in zip(groups, caches):
                cache[i] = op.apply_rows(row)[0]
        change = _wnorm(A - prev, w) / max(1.0, _wnorm(A, w))
        # a single block is solved exactly in one sweep, so skip the
        # iterate-change gate there; resid stays set only if it was
        # measured on the final iterate
        resid = None
        if change <= cfg.outer_tol or n == 1:
            resid = _rel_residual(gram, ridge, A, Y, w)
            if resid <= cfg.outer_tol:
                break
    if resid is None:
        resid = _rel_residual(gram, ridge, A, Y, w)
    report = SolveReport(
        iterations=sweeps,
        final_residual=resid,
        converged=resid <= cfg.outer_tol,
        solver_kind="gauss_seidel",
    )
    return CurveVec(gram.grid, A), report
