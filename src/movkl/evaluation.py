"""Prediction metrics and one-curve-leave-out cross-validation.

The curve-prediction score is the residual sum of squares integrated over
the output domain (RSSE); movement-state predictions are scored by the
percentage of labels correctly recognized (LCR) after thresholding the
regressed curve.  Hyperparameters (the ridge value and, when integral
operators are in play, their truncation rank) are selected by holding out
one full input-output curve pair per fold.

A stack whose fit keeps fixed weights (one term, or r = inf) and whose
terms share one output operator is scored in closed form: in the product
eigenbasis of the scalar Gram and the operator the fit splits into scalar
kernel ridge problems, whose exact leave-one-out residuals follow from the
hat matrix without refitting.  Any other stack (several terms under a
finite r, whose weights differ per fold, or several operators) refits
every fold.  One call builds the stacks of every rank before it scores
any, and scores every closed-form rank from one eigensolve: each distinct
scalar Gram is decomposed once, and an operator that equals a wider
one's truncation (:meth:`movkl.kernels.OutputOperator.truncated`) reads
its pairs from that one's solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .data import _off_binary
from .errors import DataError, DegenerateModelError, DimensionError, SolverError
from .funcspace import CurveVec, as_int, as_real
from .kernels import CurveStats, assemble_gram
from .learn import FitConfig, movkl_fit, predict, weights_fixed
from .linsolve import gram_eigh, product_basis

__all__ = ["CvSpec", "CvCandidate", "rsse", "rsse_by_curve", "lcr",
           "label_hits_by_curve", "loo_cv"]


@dataclass
class CvSpec:
    """Hyperparameter grids for leave-one-curve-out selection.

    ``rank_grid`` entries are integral-operator truncation ranks; ``None``
    keeps whatever rank the stack builder uses by default.  Ranks follow
    the rule of :func:`movkl.funcspace.as_int` (an integral float
    such as 3.0 becomes 3).  Selection minimizes accumulated RSSE over
    folds.
    """

    lambda_grid: list[float]
    rank_grid: list[int | None] = field(default_factory=lambda: [None])

    def __post_init__(self):
        if not self.lambda_grid:
            raise ValueError("lambda grid must be non-empty")
        if not all(0 < as_real("lambda candidate", lam) < math.inf
                   for lam in self.lambda_grid):
            raise ValueError("lambda candidates must be positive and finite")
        self.rank_grid = [None if q is None else as_int("rank candidate", q)
                          for q in self.rank_grid]
        if not self.rank_grid:
            raise ValueError("rank grid must be non-empty")


@dataclass
class CvCandidate:
    lam: float
    rank: int | None
    cv_rsse: float | None
    valid: bool


def _check_scored(truth: CurveVec, pred: CurveVec, what: str, curves: str):
    if truth.grid != pred.grid:
        raise DimensionError(f"{what} and prediction live on different grids")
    if truth.n != pred.n:
        raise DimensionError(
            f"{truth.n} {curves} scored against {pred.n} predictions")


def rsse(truth: CurveVec, pred: CurveVec) -> float:
    """Integrated residual sum of squares sum_i int (y_i - yhat_i)^2 dt."""
    return float(np.sum(rsse_by_curve(truth, pred)))


def rsse_by_curve(truth: CurveVec, pred: CurveVec) -> np.ndarray:
    """Each curve's integrated squared residual int (y_i - yhat_i)^2 dt,
    (n,); :func:`rsse` is their sum."""
    _check_scored(truth, pred, "truth", "truth curves")
    diff = truth.values - pred.values
    return (diff * diff) @ truth.grid.weights


def lcr(truth_labels: CurveVec, pred: CurveVec, threshold: float = 0.5) -> float:
    """Percentage of step-label samples recovered by thresholding ``pred``."""
    hits = label_hits_by_curve(truth_labels, pred, threshold)
    return float(100.0 * (np.sum(hits) / truth_labels.values.size))


def label_hits_by_curve(truth_labels: CurveVec, pred: CurveVec,
                        threshold: float = 0.5) -> np.ndarray:
    """Each curve's count of label samples that thresholding ``pred``
    recovers, (n,) integers; :func:`lcr` is their sum as a percentage of
    all samples."""
    _check_scored(truth_labels, pred, "labels", "label curves")
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    labels = truth_labels.values
    if _off_binary(labels):
        bad = np.argwhere(np.minimum(abs(labels), abs(labels - 1)) > 1e-9)[0]
        raise DataError(
            f"label curve {bad[0]} has non-binary value at sample {bad[1]}"
        )
    predicted = pred.values >= threshold
    actual = labels >= 0.5
    return np.count_nonzero(predicted == actual, axis=1)


def loo_cv(stack_builder, inputs: CurveVec, targets: CurveVec, spec: CvSpec,
           cfg: FitConfig):
    """Leave-one-curve-out selection of (lambda, rank).

    ``stack_builder`` maps a truncation rank (possibly ``None``) to a
    :class:`KernelStack`; it is the stack template, and it is called for
    every rank of the grid before any candidate is scored.  Every candidate
    pair is scored by the held-out RSSE accumulated over all n folds.  When
    the fit keeps fixed weights (the stack has one term, or ``cfg.r`` is
    infinite) and every term shares one output operator, the scores come
    in closed form, with no fold refit, and one call scores every such rank
    from one eigensolve: each distinct scalar Gram is decomposed once, and
    an operator that equals a wider one's truncation (an integral operator
    at rank 5 beside one at rank 20, say) reads its leading pairs from the
    wider one's solve.  Otherwise (several terms under a finite ``cfg.r``,
    whose learned weights differ from fold to fold, or several operators)
    each fold is refitted on the n-1 remaining curves.  Candidates whose
    folds fail are marked invalid and excluded.  Ties break toward the
    smallest lambda, then the smallest rank.  The input curves' statistics
    (their inner products and distances) are computed once per call and
    shared by every rank.

    Returns ``(best_lambda, best_rank, candidates)``.
    """
    n = inputs.n
    if n < 2:
        raise ValueError("leave-one-out needs at least two curves")
    if targets.n != n:
        raise DimensionError(f"{n} inputs paired with {targets.n} targets")

    candidates: list[CvCandidate] = []
    lams = list(spec.lambda_grid)
    stacks = [stack_builder(rank) for rank in spec.rank_grid]
    systems = _closed_form_systems(stacks, inputs, targets, cfg.r)
    for rank, stack, system in zip(spec.rank_grid, stacks, systems):
        if system is None:
            scores = _refit_scores(stack, inputs, targets, lams, cfg)
        else:
            scores = _closed_form_scores(*system, targets, lams)
        candidates += [CvCandidate(lam, rank, total, total is not None)
                       for lam, total in zip(lams, scores)]

    valid = [cand for cand in candidates if cand.valid]
    if not valid:
        raise SolverError("every cross-validation candidate failed")
    best = min(valid, key=lambda c: (c.cv_rsse, c.lam, _rank_key(c.rank)))
    return best.lam, best.rank, candidates


def _closed_form_systems(stacks, inputs: CurveVec, targets: CurveVec, r):
    """Per stack, the ``(operator, gram_eig)`` that
    :func:`_closed_form_scores` takes, or None for a stack that refits its
    folds.  Equal Grams share one decomposition.  Operators are taken
    widest first, and one that equals a wider one's truncation
    (:meth:`OutputOperator.truncated`) is replaced by that truncation,
    which reads its pairs from the wider one's eigensolve.
    """
    pairs = CurveStats(inputs).pairs()
    groups = []
    for stack in stacks:
        M = len(stack)
        merged = []
        if weights_fixed(M, r):
            merged = assemble_gram(stack.with_weights(np.full(M, 1.0 / M)),
                                   inputs, pairs).merged_groups
        if len(merged) == 1 and targets.grid != stack.output_grid:
            raise DimensionError("targets do not live on the stack's output grid")
        groups.append(merged[0] if len(merged) == 1 else None)

    systems = [None] * len(stacks)
    wide_ops, grams = [], []  # the operators and Grams decomposed so far
    live = [k for k, group in enumerate(groups) if group is not None]
    for k in sorted(live, key=lambda k: -groups[k][0].retained):
        op, G = groups[k]
        for wide in wide_ops:
            try:
                narrow = wide.truncated(op.retained)
            except ValueError:  # wide has no truncation at that rank
                continue
            if narrow == op:
                op = narrow
                break
        else:
            wide_ops.append(op)
        for G_seen, eig in grams:
            if np.array_equal(G_seen, G):
                break
        else:
            eig = gram_eigh(G)
            grams.append((G, eig))
        systems[k] = (op, eig)
    return systems


def _closed_form_scores(op, gram_eig, targets: CurveVec, lams):
    """Exact leave-one-out RSSE per lambda for a fixed-weight stack whose
    terms share the operator ``op``, from the eigendecomposition
    ``gram_eig`` of their merged scalar Gram
    (:func:`movkl.linsolve.gram_eigh`).  :func:`loo_cv` builds the stack
    of every rank before it scores any, and shares both among the ranks of
    one call, so that one call scores every rank from one eigensolve.

    With G = U diag(g) U^T the merged scalar Gram, s the operator's q
    retained eigenvalues and B = U^T Y W V in their quadrature-orthonormal
    eigenvectors V (:func:`movkl.linsolve.product_basis`, through the
    operator's ``coords``), each retained eigencomponent l
    is a scalar ridge problem with Gram s_l G, whose residual operator
    I - H_l = U diag(kappa_l) U^T has kappa = lambda / (g s^T + lambda).
    The held-out residual coordinates are then
    E = U (kappa o B) / ((U o U) kappa), the leave-one-out identity
    e_i = [(I - H) c]_i / (I - H)_ii (Rifkin & Lippert, "Notes on
    Regularized Least Squares", 2007).  The residual is formed from kappa
    directly, not as C - H C, which loses digits at small lambda.  The
    operator's null space has kappa = 1 and is predicted as zero, so
    RSSE(lambda) = sum E^2 + ||Y - (Y W V) V^T||_W^2; an operator that
    keeps all m pairs has no null space and no second term.
    """
    g, U = gram_eig
    s, B, Y0 = product_basis(op, U, targets.values)
    null_rsse = 0.0
    if Y0 is not None:
        null_rsse = float(np.sum((Y0 * Y0) @ targets.grid.weights))
    gs = np.multiply.outer(g, s)
    UU = U * U
    scores = []
    for lam in lams:
        kappa = lam / (gs + lam)
        E = (U @ (kappa * B)) / (UU @ kappa)
        total = float(np.sum(E * E)) + null_rsse
        scores.append(total if math.isfinite(total) else None)
    return scores


def _refit_scores(stack, inputs: CurveVec, targets: CurveVec, lams,
                  cfg: FitConfig):
    """Leave-one-out RSSE per lambda by refitting all n folds; None marks a
    lambda whose folds failed.  The oracle for :func:`_closed_form_scores`
    and the route for every stack that has no closed form."""
    n = inputs.n
    scores = []
    for lam in lams:
        fold_cfg = replace(cfg, lam=lam)
        total = 0.0
        for i in range(n):
            keep = [j for j in range(n) if j != i]
            tr_in = CurveVec(inputs.grid, inputs.values[keep])
            tr_out = CurveVec(targets.grid, targets.values[keep])
            try:
                model = movkl_fit(stack, tr_in, tr_out, fold_cfg)
                pred = predict(model, inputs[i])
            except (SolverError, DegenerateModelError, np.linalg.LinAlgError):
                total = None
                break
            held = CurveVec(targets.grid, targets.values[i][None, :])
            total += rsse(held, CurveVec(targets.grid, pred.values[None, :]))
        scores.append(total)
    return scores


def _rank_key(rank):
    return -1 if rank is None else rank
