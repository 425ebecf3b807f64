"""Solvers for the block operator ridge system (K + ridge*I) alpha = y.

Three solvers are provided:

* :func:`dense_solve` densifies the block matrix and factorizes it; it is
  the reference oracle for small problems.
* :func:`kron_solve` handles stacks whose terms share one output operator,
  where the block matrix is a Kronecker product and the system diagonalizes
  in the eigenbases of the combined scalar Gram and of the operator.
* :func:`pcg_solve` runs conjugate gradients for any stack, preconditioned
  by the exact solve of a two-group system: one operator kept exact, every
  other one folded into the scalar side at its mean eigenvalue.  A stack of
  the identity plus one other operator is solved in one step.

:func:`solve_route` names the route :func:`movkl.learn.movkl_fit` takes:
``kron`` when the stack has at most one operator, ``pcg`` otherwise.

All residuals are measured in the quadrature norm of the output space,
relative to the norm of the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
import scipy.linalg

from .errors import CapacityError, DimensionError, SolverError
from .funcspace import CurveVec, as_int
from .kernels import BlockGram, IntegralOperator, MultiplicationOperator

__all__ = [
    "SolveConfig",
    "SolveReport",
    "dense_solve",
    "kron_solve",
    "pcg_solve",
    "solve_route",
]

DENSE_GUARD = 5000
DENSE_TOL = 1e-10
KRON_TOL = 1e-8


@dataclass
class SolveConfig:
    """Stopping rule of :func:`pcg_solve`: the relative residual to reach
    and the cap on conjugate-gradient steps.

    The ridge shift itself is always passed to the solver calls; only the
    stopping behavior lives here.
    """

    outer_tol: float = 1e-8
    outer_max_iter: int = 500

    def __post_init__(self):
        # written so that NaN fails the test
        if not 0 < self.outer_tol < math.inf:
            raise ValueError("outer_tol must be positive and finite")
        self.outer_max_iter = as_int("outer_max_iter", self.outer_max_iter)


@dataclass
class SolveReport:
    """A solve's step count, the relative residual of its answer, whether
    that met the solver's tolerance, and its route.  ``residual`` is the
    true residual Y - (K + ridge*I) X itself, from which ``final_residual``
    was measured; :func:`movkl.learn.movkl_fit` takes its misfit from it."""

    iterations: int
    final_residual: float
    converged: bool
    solver_kind: str
    residual: np.ndarray | None = field(default=None, repr=False, compare=False)


def _wnorm(values: np.ndarray, w: np.ndarray) -> float:
    v = np.atleast_2d(values)
    return float(np.sqrt(max(np.sum((v * v) @ w), 0.0)))


def _residual(gram: BlockGram, ridge: float, A, Y) -> np.ndarray:
    return Y - gram.apply_values(A) - ridge * A


def _rel_residual(gram: BlockGram, ridge: float, A, Y, w) -> float:
    return _relative(_residual(gram, ridge, A, Y), _wnorm(Y, w), w)


def _relative(R, ynorm: float, w) -> float:
    """Quadrature norm of the residual R relative to ``ynorm``, that of the
    right-hand side (absolute when it is zero)."""
    rnorm = _wnorm(R, w)
    return rnorm / ynorm if ynorm > 0 else rnorm


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
    w = gram.grid.weights
    R = _residual(gram, ridge, X, y.values)
    resid = _relative(R, _wnorm(y.values, w), w)
    report = SolveReport(
        iterations=1,
        final_residual=resid,
        converged=resid <= DENSE_TOL,
        solver_kind="dense",
        residual=R,
    )
    return CurveVec(gram.grid, X), report


def kron_solve(gram: BlockGram, ridge: float, y: CurveVec):
    """Eigendecomposition solve for stacks sharing one output operator.

    With G = U diag(g) U^T the combined scalar Gram and T = V diag(s) V^T W
    (its q retained eigenpairs, V orthonormal under the quadrature inner
    product), the solution X = expand(U [B / (g s^T + ridge)]) + Y0 / ridge,
    with B and Y0 from :func:`product_basis` and expand(C) = C V^T, needs no
    Kronecker product.  For a diagonal operator the operator's maps are
    elementwise rescalings, so the solve holds no m x m array.
    """
    _check_solve_args(gram, ridge, y)
    groups = gram.merged_groups
    if len(groups) > 1:
        route = solve_route(gram)
        raise SolverError(
            f"kernel stack mixes output operators; use {route}_solve "
            f"(solve_route gives {route!r})"
        )
    w = gram.grid.weights
    Y = y.values
    if groups:
        op, G = groups[0]
        gvals, U, svals, B, Y0 = product_basis(op, G, Y)
        Z = B / (np.multiply.outer(gvals, svals) + ridge)
        X = op.expand(U @ Z) + Y0 / ridge
    else:
        # all weights zero: pure ridge system
        X = Y / ridge
    R = _residual(gram, ridge, X, Y)
    resid = _relative(R, _wnorm(Y, w), w)
    return (
        CurveVec(gram.grid, X),
        SolveReport(1, resid, resid <= KRON_TOL, "kron", R),
    )


def product_basis(op, G: np.ndarray, Y: np.ndarray):
    """Eigenbasis of the one-operator system G kron T and Y in its coordinates.

    Returns ``(g, U, s, B, Y0)`` with G = U diag(g) U^T, s = ``op.eigvals()``,
    B = U^T ``op.coords(Y)`` and Y0 = Y - ``op.expand(op.coords(Y))``, the
    part of Y in the operator's null space (zero up to rounding at full
    rank).  So (G kron T + ridge*I) decouples into the scalar equations
    (g_a s_l + ridge) z_al = B_al and ridge * X0 = Y0.  Shared by
    :func:`kron_solve` and the closed-form leave-one-out scores of
    :func:`movkl.evaluation.loo_cv`.
    """
    G = 0.5 * (G + G.T)
    g, U = np.linalg.eigh(G)
    YV = op.coords(Y)
    return g, U, op.eigvals(), U.T @ YV, Y - op.expand(YV)


def solve_route(gram: BlockGram) -> str:
    """The route :func:`movkl.learn.movkl_fit` takes for this system:
    ``kron`` for at most one operator group, ``pcg`` for two or more."""
    return "kron" if len(gram.merged_groups) <= 1 else "pcg"


def _preconditioner_group(op) -> int:
    # the operator kept exact in the preconditioner: integral before
    # multiplication before identity
    if isinstance(op, IntegralOperator):
        return 0
    return 1 if isinstance(op, MultiplicationOperator) else 2


def _two_group_preconditioner(gram: BlockGram, ridge: float):
    """The exact inverse of the two-group system C kron I + G_B kron B, as a
    map on (n, m) arrays.

    B is the first integral operator of the stack, else its multiplication
    operator, else its identity.  Every other group (T, G_T) folds into
    C = ridge*I + sum_T mean-eigenvalue(T) * G_T.  With (nu, S) =
    ``scipy.linalg.eigh(G_B, C)``, so that S^T C S = I and S^T G_B S =
    diag(nu), and s = ``B.eigvals()``, the inverse is
    P(R) = C^-1 R + expand(S [(S^T coords(R)) o (H - 1)]), with
    H - 1 = -nu s^T / (1 + nu s^T) and B's maps coords(R) = R W V and
    expand(Z) = Z V^T: B's null space sees C alone.  The second term is
    taken from the thin side first, coords(R) before S^T, so the q retained
    directions cost O(n m q + n^2 q) and one application O(n^2 m + n m q);
    a diagonal B's maps cost O(n m).  That is the
    solve of :func:`kron_solve` with C in place of ridge*I, exact for any
    stack of the identity plus one other operator.
    nu is clipped at 0, so that rounding in a rank-deficient G_B cannot
    make P indefinite.
    """
    groups = sorted(gram.merged_groups, key=lambda g: _preconditioner_group(g[0]))
    if not groups:
        return lambda R: R / ridge
    C = ridge * np.eye(gram.n)
    for op, G in groups[1:]:
        C += op.mean_eigenvalue() * G
    op, GB = groups[0]
    nu, S = scipy.linalg.eigh(GB, C)
    nus = np.multiply.outer(np.maximum(nu, 0.0), op.eigvals())
    H1 = -nus / (1.0 + nus)
    Cinv = S @ S.T
    return lambda R: Cinv @ R + op.expand(S @ ((S.T @ op.coords(R)) * H1))


def pcg_solve(gram: BlockGram, ridge: float, y: CurveVec,
              cfg: SolveConfig | None = None, warm: CurveVec | None = None):
    """Conjugate gradients for any stack, preconditioned by the exact
    two-group solve of :func:`_two_group_preconditioner`.

    The block operator is self-adjoint and positive definite in the
    quadrature inner product <A, B> = sum_ij A_ij B_ij w_j, and CG runs in
    it (Saad, Iterative Methods for Sparse Linear Systems, 2003, ch. 9).
    The iteration starts from ``warm`` when given.  Once the recursively
    updated residual meets ``outer_tol``, the true relative residual is
    measured; convergence is declared only if it meets ``outer_tol`` too,
    and otherwise CG restarts from the true residual.  ``outer_max_iter``
    caps the CG steps.  The report counts the steps and gives the true
    residual of the returned answer and its relative norm.  One step makes
    one block application (:meth:`BlockGram.apply_values`) and one
    preconditioner application, plus O(n m) of vector work.
    """
    cfg = cfg or SolveConfig()
    _check_solve_args(gram, ridge, y)
    w = gram.grid.weights
    Y = y.values
    if warm is None:
        X = np.zeros_like(Y)
    else:
        if warm.grid != gram.grid or warm.n != gram.n:
            raise DimensionError("warm start has the wrong shape")
        X = np.array(warm.values, copy=True)
    precondition = _two_group_preconditioner(gram, ridge)

    def inner(A, B):
        return float(np.sum((A * B) @ w))

    ynorm = _wnorm(Y, w)
    R = _residual(gram, ridge, X, Y)
    resid = _relative(R, ynorm, w)
    steps = 0
    while resid > cfg.outer_tol and steps < cfg.outer_max_iter:
        Z = precondition(R)
        P, rz = Z, inner(R, Z)
        while steps < cfg.outer_max_iter:
            steps += 1
            Q = gram.apply_values(P) + ridge * P
            a = rz / inner(P, Q)
            X += a * P
            R -= a * Q
            if _relative(R, ynorm, w) <= cfg.outer_tol:
                break
            Z = precondition(R)
            rz, rz_old = inner(R, Z), rz
            P = Z + (rz / rz_old) * P
        # the true residual, the same arithmetic as _rel_residual
        R = _residual(gram, ridge, X, Y)
        resid = _relative(R, ynorm, w)
    report = SolveReport(steps, resid, resid <= cfg.outer_tol, "pcg", R)
    return CurveVec(gram.grid, X), report
