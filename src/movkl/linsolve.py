"""Solvers for the block operator ridge system (K + ridge*I) alpha = y.

Four routes are provided:

* :func:`dense_solve` densifies the block matrix and factorizes it; it is
  the reference oracle for small problems.
* :func:`kron_solve` handles stacks whose terms share one output operator,
  where the block matrix is a Kronecker product and the system diagonalizes
  in the eigenbases of the combined scalar Gram and of the operator.
* :func:`structured_solve` is exact for any mix of identity, multiplication
  and truncated integral operators.  The identity and multiplication parts
  are diagonal on the grid, so one generalized eigendecomposition of the
  two scalar Grams inverts their Kronecker sum; the integral operators add
  a term of rank n*Q (Q their summed rank), handled by the Woodbury
  identity with one dense (n*Q) x (n*Q) capacitance system.
* :func:`gauss_seidel_solve` sweeps over samples, solving one diagonal
  block [K(x_i, x_i) + ridge*I] at a time.  Identity terms join the ridge
  shift and a lone remaining operator is inverted directly.  A block that
  mixes operators is solved in closed form first (Woodbury identity, for
  one diagonal plus one low-rank operator), then by variable splitting,
  which decouples the operators so that every sub-step inverts a single
  shifted operator, and last by a cached dense LU factorization if the
  splitting stalls.  :func:`split_block_solve` runs that block solver on
  one block.

:func:`solve_route` names the route :func:`movkl.learn.movkl_fit` takes:
``kron`` when the stack has one operator; ``structured`` when it mixes
only identity, multiplication and truncated integral operators with
n*Q <= 5000; ``gauss_seidel`` otherwise (a full-rank integral operator, or
a capacitance system over the guard).  The fit accepts a structured answer
only if its residual meets ``outer_tol``, and otherwise warm-starts
Gauss-Seidel from it.

All residuals are measured in the quadrature norm of the output space,
relative to the norm of the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np
import scipy.linalg

from .errors import CapacityError, DimensionError, SolverError
from .funcspace import Curve, CurveVec, as_int
from .kernels import (
    BlockGram,
    DiagonalShiftedInverse,
    IdentityOperator,
    IntegralOperator,
    MultiplicationOperator,
    SpectralShiftedInverse,
    group_by_operator,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "dense_solve",
    "kron_solve",
    "structured_solve",
    "solve_route",
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
        self.outer_max_iter = as_int("outer_max_iter", self.outer_max_iter)
        self.inner_max_iter = as_int("inner_max_iter", self.inner_max_iter)


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
        gvals, U, svals, V, B = product_basis(op, G, w, Y)
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


def product_basis(op, G: np.ndarray, w: np.ndarray, Y: np.ndarray):
    """Eigenbasis of the one-operator system G kron T and Y in its coordinates.

    Returns ``(g, U, s, V, B)`` with G = U diag(g) U^T, ``(s, V) =
    op.full_basis()`` (V orthonormal under the quadrature weights ``w``) and
    B = U^T Y W V, so that (G kron T + ridge*I) decouples into the scalar
    equations (g_a s_l + ridge) z_al = B_al.  Shared by :func:`kron_solve`
    and the closed-form leave-one-out scores of :func:`movkl.evaluation.loo_cv`.
    """
    G = 0.5 * (G + G.T)
    g, U = np.linalg.eigh(G)
    s, V = op.full_basis()
    return g, U, s, V, U.T @ Y @ (w[:, None] * V)


def _low_rank_size(groups) -> int | None:
    """Summed rank Q of the integral groups when every group is an identity,
    multiplication or truncated integral operator; None otherwise."""
    total = 0
    for op, _ in groups:
        if isinstance(op, IntegralOperator) and op.rank is not None:
            total += op.rank
        elif not isinstance(op, (IdentityOperator, MultiplicationOperator)):
            return None
    return total


def solve_route(gram: BlockGram) -> str:
    """The route :func:`movkl.learn.movkl_fit` takes for this system:
    ``kron``, ``structured`` or ``gauss_seidel`` (see the module docstring)."""
    groups = gram.merged_groups
    if len(groups) <= 1:
        return "kron"
    q = _low_rank_size(groups)
    if q is not None and gram.n * q <= DENSE_GUARD:
        return "structured"
    return "gauss_seidel"


def structured_solve(gram: BlockGram, ridge: float, y: CurveVec):
    """Exact solve for stacks of identity, multiplication and truncated
    integral operators.

    In coordinates the system reads C X + G_M X D + sum_k G_k X W V_k L_k V_k^T
    = Y, with C = ridge*I + G_identity, D the multiplication diagonal, W the
    quadrature weights and (V_k, L_k) the retained spectrum of the k-th
    integral operator.  ``scipy.linalg.eigh(G_M, C)`` gives S with
    S^T C S = I and S^T G_M S = diag(mu), so the diagonal part B inverts as
    B^-1(R) = S [(S^T R) / (1 + mu d^T)].  The integral part has rank n*Q;
    with Z = X W V (n x Q) the Woodbury identity leaves one dense
    (n*Q) x (n*Q) capacitance system for Z, after which
    X = B^-1(Y - sum_k G_k Z_k L_k V_k^T).  Guarded to n*Q <= 5000.  Like
    :func:`dense_solve`, the report counts as converged at a relative
    residual of at most 1e-10.
    """
    _check_solve_args(gram, ridge, y)
    groups = gram.merged_groups
    q = _low_rank_size(groups)
    if q is None:
        raise SolverError(
            "kernel stack has a full-rank integral operator; use gauss_seidel_solve"
        )
    n = gram.n
    if n * q > DENSE_GUARD:
        raise CapacityError(
            f"capacitance system of size {n * q} exceeds the guard {DENSE_GUARD}"
        )
    w = gram.grid.weights
    Y = y.values
    C = ridge * np.eye(n)
    GM = np.zeros((n, n))
    D = np.zeros(gram.grid.size)
    low = []
    for op, G in groups:
        if isinstance(op, IdentityOperator):
            C = C + G
        elif isinstance(op, MultiplicationOperator):
            GM, D = G, op.diag
        else:
            vals, vecs = op.spectrum()
            low.append((G, vals, vecs))
    mu, S = scipy.linalg.eigh(GM, C)
    H = 1.0 / (1.0 + np.multiply.outer(mu, D))

    def b_inv(R):
        return S @ ((S.T @ R) * H)

    X = b_inv(Y)
    if low:
        gains = np.concatenate([vals for _, vals, _ in low])
        V = np.hstack([vecs for _, _, vecs in low])
        P = w[:, None] * V
        # capacitance I + (P^T B^-1 V) (G L), with row (s, c) and column
        # (a, b) equal to gain_b sum_i S[s, i] (S^T G_k)[i, a] F_b[i, c] for
        # F_b[i, c] = sum_l H[i, l] V[l, b] P[l, c]; built one column b at
        # a time, so no intermediate exceeds n*n*Q entries
        cap = np.empty((n, q, n, q))
        b = 0
        for G, vals, _ in low:
            A = S.T @ G
            for _ in range(vals.size):
                Fb = gains[b] * (H @ (V[:, b, None] * P))
                T = A[:, :, None] * Fb[:, None, :]
                cap[:, :, :, b] = (S @ T.reshape(n, n * q)).reshape(n, n, q) \
                    .transpose(0, 2, 1)
                b += 1
        cap = cap.reshape(n * q, n * q)
        cap[np.diag_indices_from(cap)] += 1.0
        Z = scipy.linalg.solve(cap, (X @ P).reshape(-1)).reshape(n, q)
        R = np.array(Y, copy=True)
        b = 0
        for G, vals, vecs in low:
            R -= G @ (Z[:, b:b + vals.size] * vals) @ vecs.T
            b += vals.size
        X = b_inv(R)
    resid = _rel_residual(gram, ridge, X, Y, w)
    return (
        CurveVec(gram.grid, X),
        SolveReport(1, resid, resid <= DENSE_TOL, "structured"),
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
