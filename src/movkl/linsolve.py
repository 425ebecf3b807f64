"""Solvers for the block operator ridge system (K + ridge*I) alpha = y.

Two solvers are provided:

* :func:`dense_solve` densifies the block matrix and factorizes it; it is
  the reference oracle for small problems.
* :func:`pcg_solve` runs conjugate gradients for any stack, preconditioned
  by the exact solve of a two-group system: one operator kept exact, every
  other one folded into the scalar side at its mean eigenvalue.  When every
  folded operator is a multiple of the identity the preconditioner is the
  exact inverse, and one step solves the system: a stack whose terms share
  one output operator, or the identity plus one other operator.

:func:`gram_eigh` and :func:`product_basis` give the eigenbasis of a
one-operator system, which the closed-form leave-one-out scores of
:func:`movkl.evaluation.loo_cv` and the preconditioner share.

All residuals are measured in the quadrature norm of the output space,
relative to the norm of the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
import scipy.linalg

from .errors import CapacityError, DimensionError
from .funcspace import CurveVec, as_int, as_real
from .kernels import BlockGram, IntegralOperator, MultiplicationOperator

__all__ = [
    "SolveConfig",
    "SolveReport",
    "dense_solve",
    "pcg_solve",
]

DENSE_GUARD = 5000
DENSE_TOL = 1e-10


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
        if not 0 < as_real("outer_tol", self.outer_tol) < math.inf:
            raise ValueError("outer_tol must be positive and finite")
        self.outer_max_iter = as_int("outer_max_iter", self.outer_max_iter)


@dataclass
class SolveReport:
    """A solve's step count, the relative residual of its answer, whether
    that met the solver's tolerance, and the solver (``dense`` or ``pcg``).
    ``residual`` is the true residual Y - (K + ridge*I) X itself, from which
    ``final_residual`` was measured; :func:`movkl.learn.movkl_fit` takes its
    misfit from it."""

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


def gram_eigh(G: np.ndarray):
    """Eigendecomposition ``(g, U)``, G = U diag(g) U^T, of a scalar Gram,
    symmetrized first."""
    return np.linalg.eigh(0.5 * (G + G.T))


def product_basis(op, U: np.ndarray, Y: np.ndarray):
    """Y in the eigenbasis of the one-operator system G kron T.

    With G = U diag(g) U^T (U from :func:`gram_eigh`, passed in so that
    several operators on one Gram share its decomposition), returns
    ``(s, B, Y0)``: s = ``op.eigvals()``, B = U^T ``op.coords(Y)`` and
    Y0 = Y - ``op.expand(op.coords(Y))``, the part of Y in the operator's
    null space.  Y0 is None for an operator that keeps all m pairs, whose
    null space is empty (the difference would be rounding alone).  So
    (G kron T + ridge*I) decouples into the scalar equations
    (g_a s_l + ridge) z_al = B_al and ridge * X0 = Y0, the closed-form
    leave-one-out scores of :func:`movkl.evaluation.loo_cv`.
    """
    YV = op.coords(Y)
    Y0 = None if op.retained == op.grid.size else Y - op.expand(YV)
    return op.eigvals(), U.T @ YV, Y0


def _preconditioner_group(op) -> int:
    # the operator kept exact in the preconditioner: integral before
    # multiplication before identity
    if isinstance(op, IntegralOperator):
        return 0
    return 1 if isinstance(op, MultiplicationOperator) else 2


def _two_group_preconditioner(gram: BlockGram, ridge: float):
    """The exact inverse of the two-group system C kron I + G_B kron B, as a
    map on (n, m) arrays, and whether it is the inverse of the whole system.

    B is the first integral operator of the stack, else its multiplication
    operator, else its identity.  Every other group (T, G_T) folds into
    C = ridge*I + sum_T mean-eigenvalue(T) * G_T.  With (nu, S) such that
    S^T C S = I and S^T G_B S = diag(nu), and s = ``B.eigvals()``,

        P(R) = expand(S [(S^T coords(R)) / (1 + nu s^T)]) + C^-1 R0,

    with B's maps coords(R) = R W V and expand(Z) = Z V^T, and
    R0 = R - expand(coords(R)) the part of R in B's null space, which sees
    C alone (formed only for a truncated B, as in :func:`product_basis`).
    Neither term is a difference of two large ones, so at a small ridge P
    keeps the accuracy of a direct solve.  coords(R) is taken before S^T, so
    the q retained directions cost O(n m q + n^2 q); a diagonal B's maps
    cost O(n m).  (nu, S) come from ``scipy.linalg.eigh(G_B, C)``, or, with
    no folded group (C = ridge*I), from :func:`gram_eigh` as
    nu = g / ridge and S = U / sqrt(ridge).  nu is clipped at 0, so that
    rounding in a rank-deficient G_B cannot make P indefinite.

    P is the exact inverse when every folded operator is a multiple of the
    identity, which is read from its spectrum: all m pairs retained and
    ``eigvals()`` constant.  Then sum_T G_T kron T = (C - ridge*I) kron I.
    That covers every stack of one operator group, and of the identity
    plus one other operator.
    """
    groups = sorted(gram.merged_groups, key=lambda g: _preconditioner_group(g[0]))
    if not groups:
        return (lambda R: R / ridge), True
    (op, GB), folded = groups[0], groups[1:]
    exact = all(T.retained == T.grid.size and np.ptp(T.eigvals()) == 0
                for T, _ in folded)
    if folded:
        C = ridge * np.eye(gram.n)
        for T, G in folded:
            C += T.mean_eigenvalue() * G
        nu, S = scipy.linalg.eigh(GB, C)
    else:
        g, U = gram_eigh(GB)
        nu, S = g / ridge, U / math.sqrt(ridge)
    D = 1.0 + np.multiply.outer(np.maximum(nu, 0.0), op.eigvals())
    Cinv = S @ S.T if op.retained < gram.grid.size else None

    def precondition(R):
        RV = op.coords(R)
        X = op.expand(S @ ((S.T @ RV) / D))
        if Cinv is not None:
            # R0 = R - expand(coords(R)), written into expand's fresh array
            R0 = op.expand(RV)
            np.subtract(R, R0, out=R0)
            X += Cinv @ R0
        return X

    return precondition, exact


def pcg_solve(gram: BlockGram, ridge: float, y: CurveVec,
              cfg: SolveConfig | None = None, warm: CurveVec | None = None):
    """Conjugate gradients for any stack, preconditioned by the exact
    two-group solve of :func:`_two_group_preconditioner`.

    The block operator is self-adjoint and positive definite in the
    quadrature inner product <A, B> = sum_ij A_ij B_ij w_j, and CG runs in
    it (Saad, Iterative Methods for Sparse Linear Systems, 2003, ch. 9).
    The iteration starts from ``warm`` when given, else from zero, whose
    residual is Y itself.  When the preconditioner is the exact inverse,
    the first step adds P(R) for the starting residual R, which solves the
    system up to rounding.  Once the recursively updated residual meets ``outer_tol``,
    the true relative residual is measured; convergence is declared only if
    it meets ``outer_tol`` too, and otherwise CG (re)starts from the true
    residual.  ``outer_max_iter`` caps the steps.  The report counts the
    steps and gives the true residual of the returned answer and its
    relative norm.  One step makes one block application
    (:meth:`BlockGram.apply_values`) and one preconditioner application,
    plus O(n m) of vector work.
    """
    cfg = cfg or SolveConfig()
    _check_solve_args(gram, ridge, y)
    w = gram.grid.weights
    Y = y.values
    if warm is None:
        X = np.zeros_like(Y)
        R = np.array(Y, copy=True)
    else:
        if warm.grid != gram.grid or warm.n != gram.n:
            raise DimensionError("warm start has the wrong shape")
        X = np.array(warm.values, copy=True)
        R = _residual(gram, ridge, X, Y)
    precondition, exact = _two_group_preconditioner(gram, ridge)

    def inner(A, B):
        return float(np.sum((A * B) @ w))

    ynorm = _wnorm(Y, w)
    resid = _relative(R, ynorm, w)
    steps = 0
    if exact and resid > cfg.outer_tol:
        steps = 1
        X += precondition(R)
        R = _residual(gram, ridge, X, Y)
        resid = _relative(R, ynorm, w)
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
