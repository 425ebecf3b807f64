"""Curve-to-curve ridge regression with one or many operator-valued kernels.

The single-kernel fit solves the dual system (K + lambda*I) alpha = y and
keeps the representer form f(.) = sum_i K(x_i, .) alpha_i.  The multiple
kernel fit alternates that solve with a closed-form update of the kernel
weights under the constraint sum_k d_k^r <= 1, tracking the primal
objective

    P = sum_k ||f_k||^2 / (2 d_k) + ||y - f(x)||^2 / (2 lambda)

whose value is non-increasing across iterations.  It stops once the
relative duality gap (P - D(alpha)) / P is at most ``mkl_tol``, for the
dual D(alpha) = <alpha, y> - (lambda/2) ||alpha||^2 - ||q||_{r*} / 2 of
Kloft et al. (JMLR 12, 2011), q_k = <(G_k kron T_k) alpha, alpha> and
r* = r / (r - 1); the gap has no units, so the stop does not depend on
the scale of the targets.  Every solve is
preconditioned conjugate gradients, warm-started from the previous round's
dual curves (:mod:`movkl.linsolve`); a stack whose terms share one output
operator is solved in its one exact step.  At the solution the
stationarity identity lambda * alpha_i = y_i - f(x_i) holds, which the
tests use as an end-to-end consistency check.

Batch prediction (:func:`predict_many`) evaluates its queries in blocks of
:data:`QUERY_BLOCK` curves, each written in place into its rows of one
output array.  The blocks' row slices are one shared list, which one drain
task per thread of :func:`movkl.funcspace._in_order` empties.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
import itertools
import json
import math

import numpy as np

from .errors import DataError, DegenerateModelError, DimensionError, SolverError
from .funcspace import (Curve, CurveVec, Grid, _in_order, _readonly,
                        _worker_count, as_int, as_real)
from .kernels import (
    BlockGram,
    CurveStats,
    KernelStack,
    OvKernelTerm,
    assemble_gram,
    operator_from_config,
    scalar_kernel_from_config,
)
from .linsolve import SolveConfig, pcg_solve

__all__ = [
    "FitConfig",
    "MovklModel",
    "PredictionPlan",
    "krr_fit",
    "movkl_fit",
    "weight_update",
    "predict",
    "predict_many",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "movkl-model"
MODEL_VERSION = 1

# query curves per block in predict_many: a block's kernel values and output
# rows stay in cache while every operator adds its product (desk-task
# 24-term model, 10,000 queries, one BLAS thread: about 0.07 s on one core
# in blocks of 256, 0.13-0.15 s in one pass, 0.04-0.05 s with a thread on
# each of two cores).  The size does not follow the thread count: BLAS
# blocks a product by its shape, so another size can change the last bits
# of a prediction.
QUERY_BLOCK = 256


@dataclass
class FitConfig:
    """Regularization, norm exponent and stopping control for fits.

    A learned-weight fit stops once its relative duality gap is at most
    ``mkl_tol``, or after ``mkl_max_iter`` rounds.
    """

    lam: float = 1e-2
    r: float = 2.0
    mkl_tol: float = 1e-4
    mkl_max_iter: int = 100
    solve: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        # written so that NaN fails every test; r = inf stays valid
        if not 0 < as_real("lambda", self.lam) < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not as_real("norm exponent", self.r) >= 1:
            raise ValueError("norm exponent must be >= 1")
        if not 0 < as_real("mkl_tol", self.mkl_tol) < math.inf:
            raise ValueError("mkl_tol must be positive and finite")
        self.mkl_max_iter = as_int("mkl_max_iter", self.mkl_max_iter)


@dataclass(frozen=True, eq=False)
class PredictionPlan:
    """The model's side of the representer sum, computed once per model.

    A prediction at z is sum_k d_k sum_i G_k(x_i, z) T_k alpha_i.  T_k acts
    on the output side only, so the terms fold by distinct output operator
    o: with c_o[b] = sum over the terms k on o and base kernel b of
    d_k * c_k (c_k the term's ``ScaledKernel`` factors, b the kernel under
    them), the prediction is

        sum_o H_o^T (T_o alpha),    H_o = sum_b c_o[b] * G_b(X, z).

    ``bases`` holds each distinct base kernel once, and ``coeffs`` the rows
    c_o as an (operators, bases) array.  ``factors`` holds T_o alpha per
    operator as a pair (L_o, R_o) from :meth:`OutputOperator.factored_rows`:
    for a truncated integral operator L_o = alpha W V_q Lambda_q (n x q) and
    R_o = V_q^T (q x m), evaluated as (H_o^T L_o) R_o; any other operator
    keeps T_o alpha whole (R_o is None).  With a single base kernel, c_o is
    folded into L_o and H_o is G_b itself.  ``output_size`` is m, the size
    of the zero prediction when every weight is zero.
    """

    stats: CurveStats
    bases: list
    coeffs: np.ndarray
    factors: list
    output_size: int

    def evaluate(self, ip: np.ndarray, sq_dist: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Predicted values from the training-by-query pair statistics of
        :meth:`CurveStats.pairs` or :meth:`CurveStats.cross`: (m,) for one
        query curve, (p, m) for p.

        With ``out``, a float64 array of that shape (in :func:`predict_many`,
        a block's rows of the one output array), the values are written
        into it and it is returned, as for ``ScalarKernel.evaluate``; the
        values are bit-identical either way, zeros when no term is live.
        The first operator's product is written straight into ``out`` and
        each later one is added to it.
        """
        if not self.bases:
            if out is None:
                return np.zeros(ip.shape[1:] + (self.output_size,))
            out[...] = 0.0
            return out
        if len(self.bases) == 1:
            H = [self.bases[0].evaluate(ip, sq_dist)] * len(self.factors)
        else:
            # each base kernel writes straight into its slot
            G = np.empty((len(self.bases),) + ip.shape)
            for base, slot in zip(self.bases, G):
                base.evaluate(ip, sq_dist, out=slot)
            H = np.tensordot(self.coeffs, G, axes=1)
        for o, (H_o, (left, right)) in enumerate(zip(H, self.factors)):
            # H_o^T (T_o alpha), or (H_o^T L_o) R_o for a thin pair
            a, b = (H_o.T, left) if right is None else (H_o.T @ left, right)
            if o == 0:
                out = np.matmul(a, b, out=out)
            else:
                out += a @ b
        return out


def _position(distinct: list, key) -> int:
    """Index of ``key`` in ``distinct`` by equality, appended if new; kernels
    and operators need not be hashable, as in ``group_by_operator``."""
    if key not in distinct:
        distinct.append(key)
    return distinct.index(key)


def _build_plan(model: "MovklModel") -> PredictionPlan:
    ops, bases, uses = [], [], []
    for term, d_k in zip(model.stack.terms, model.weights):
        if d_k != 0.0:
            base, factor = term.scalar.unscaled()
            uses.append((_position(ops, term.operator), _position(bases, base),
                         d_k * factor))
    coeffs = np.zeros((len(ops), len(bases)))
    for o, b, coeff in uses:
        coeffs[o, b] += coeff
    factors = [op.factored_rows(model.alpha.values) for op in ops]
    if len(bases) == 1:
        factors = [(c * left, right) for c, (left, right) in zip(coeffs[:, 0], factors)]
    return PredictionPlan(CurveStats(model.train_inputs), bases, coeffs, factors,
                          model.output_grid.size)


@dataclass(frozen=True)
class MovklModel:
    """Fitted state: dual curves, kernel weights and training inputs.

    Each solve of the fit leaves its iteration count, route and final
    relative residual ||(K + lambda*I) alpha - y|| / ||y|| in
    ``solver_iterations``, ``solver_routes`` and ``solver_residuals``.
    ``duality_gaps`` holds each round's relative duality gap, one per
    round of a learned-weight fit and none when the weights are fixed.
    A model is immutable, and keeps ``weights`` as a read-only copy;
    ``dataclasses.replace`` makes a changed one, with a plan of its own.
    """

    alpha: CurveVec
    weights: np.ndarray
    stack: KernelStack
    train_inputs: CurveVec
    lam: float
    objective_trace: list[float]
    outer_iterations: int = 0
    solver_iterations: list[int] = field(default_factory=list)
    solver_routes: list[str] = field(default_factory=list)
    solver_residuals: list[float] = field(default_factory=list)
    duality_gaps: list[float] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))

    def prediction_plan(self) -> PredictionPlan:
        """The :class:`PredictionPlan`, built on first use; never archived."""
        if "_plan" not in vars(self):
            object.__setattr__(self, "_plan", _build_plan(self))
        return self._plan

    @property
    def input_grid(self) -> Grid:
        return self.train_inputs.grid

    @property
    def output_grid(self) -> Grid:
        return self.stack.output_grid

    def predict(self, x_new: Curve) -> Curve:
        return predict(self, x_new)

    def predict_many(self, xs: CurveVec) -> CurveVec:
        return predict_many(self, xs)


def weight_update(fnorms_sq, r: float) -> np.ndarray:
    """Closed-form optimal weights for the norms-over-weights objective.

    Minimizes sum_k s_k / d_k over {d >= 0, sum_k d_k^r <= 1} for
    s_k = ||f_k||^2, landing on the constraint boundary:

        d_k = s_k^(1/(r+1)) / (sum_j s_j^(r/(r+1)))^(1/r).

    Kernels with zero norm get weight zero.  The infinite-exponent case is
    not handled here; those fits keep fixed uniform weights.
    """
    if math.isinf(r):
        raise ValueError("r = inf keeps fixed uniform weights; no update applies")
    if r < 1:
        raise ValueError("norm exponent must be >= 1")
    s = np.maximum(np.asarray(fnorms_sq, dtype=float), 0.0)
    if not np.any(s > 0):
        raise DegenerateModelError("all kernel norms are zero; model collapsed")
    if s.size == 1:
        return np.ones(1)
    num = s ** (1.0 / (r + 1.0))
    z = np.sum(s ** (r / (r + 1.0)))
    return num / z ** (1.0 / r)


def _objective(gram: BlockGram, alpha_values, residual, lam):
    # primal value: sum_k ||f_k||^2/(2 d_k) + ||xi||^2/(2 lambda), with
    # ||f_k||^2/d_k = d_k * <(G_k kron T_k) a, a> from one product per
    # distinct operator (zero-weight terms vanish), and the misfit
    # xi = y - K a = R + lambda a from the solver's true residual R
    quads = gram.quad_forms(alpha_values)
    smooth = 0.5 * float(np.dot(gram.weights, np.maximum(quads, 0.0)))
    xi = residual + lam * alpha_values
    w = gram.grid.weights
    fit = float(np.sum((xi * xi) @ w)) / (2.0 * lam)
    return smooth + fit, quads


def _dual_norm(q: np.ndarray, r: float) -> float:
    """||q||_{r*} of non-negative forms q for r* = r / (r - 1), max q when
    r = 1; taken relative to max q, so that no power overflows."""
    top = float(np.max(q))
    if top == 0.0 or r == 1.0:
        return top
    rs = r / (r - 1.0)
    return top * float(np.sum((q / top) ** rs)) ** (1.0 / rs)


def _duality_gap(gram: BlockGram, quads, residual, lam, r) -> float:
    # P - D(alpha) with y = K a + lambda a + R, in the two terms that are
    # each >= 0: (||q||_{r*} - <d, q>) / 2 by Hoelder's inequality, as
    # ||d||_r <= 1, and ||R||^2 / (2 lambda).  Near the optimum d nearly
    # attains ||q||_{r*}, and rounding alone can take the first below zero
    q = np.maximum(quads, 0.0)
    holder = max(_dual_norm(q, r) - float(np.dot(gram.weights, q)), 0.0)
    misfit = float(np.sum((residual * residual) @ gram.grid.weights))
    return 0.5 * holder + misfit / (2.0 * lam)


def weights_fixed(n_terms: int, r: float) -> bool:
    """Whether a fit keeps its uniform starting weights 1/M: with one term
    or r = inf the weight update cannot change them."""
    return n_terms == 1 or math.isinf(r)


def _check_fit_args(inputs: CurveVec, targets: CurveVec) -> None:
    if inputs.n != targets.n:
        raise DimensionError(
            f"{inputs.n} input curves paired with {targets.n} targets"
        )


def movkl_fit(stack: KernelStack, inputs: CurveVec, targets: CurveVec,
              cfg: FitConfig) -> MovklModel:
    """Alternate the dual ridge solve with the closed-form weight update.

    Weights start uniform at 1/M.  Each round rebuilds the weighted block
    Gram, solves (K + lambda*I) alpha = y by
    :func:`movkl.linsolve.pcg_solve` (from zero in the first round, then
    warm-started from the previous alpha; one exact step when every term
    shares one operator), and raises ``SolverError`` when a solve misses
    ``outer_tol`` within ``outer_max_iter`` steps; the error's ``trace``
    and ``gaps`` hold the finished rounds' objectives and relative gaps.
    With a finite norm exponent and several terms, each round measures
    its relative duality gap (P - D(alpha)) / P from the term forms q, the
    round's weights and the solver's true residual, and stops once it is
    at most ``mkl_tol``; otherwise the weights are refreshed from the
    component norms.  With one term or r = inf the weights cannot change
    and the first solve is final.  The weights are never refreshed after
    the last allowed round, so the returned alpha always solves the
    system of the returned weights.
    """
    _check_fit_args(inputs, targets)
    M = len(stack)
    d = np.full(M, 1.0 / M)
    base = assemble_gram(stack.with_weights(d), inputs)
    alpha = CurveVec.zero(stack.output_grid, targets.n)
    fixed_weights = weights_fixed(M, cfg.r)
    trace: list[float] = []
    solver_iters: list[int] = []
    routes: list[str] = []
    residuals: list[float] = []
    gaps: list[float] = []
    outer = 0
    for outer in range(1, cfg.mkl_max_iter + 1):
        gram = base.with_weights(d)
        alpha_new, report = pcg_solve(gram, cfg.lam, targets, cfg.solve,
                                      warm=alpha if outer > 1 else None)
        if not report.converged:
            err = SolverError(
                "conjugate-gradient solve did not converge "
                f"(residual {report.final_residual:.3e} after "
                f"{report.iterations} iterations)"
            )
            err.trace, err.gaps = trace, gaps
            raise err
        solver_iters.append(report.iterations)
        routes.append(report.solver_kind)
        residuals.append(float(report.final_residual))
        obj, quads = _objective(gram, alpha_new.values, report.residual, cfg.lam)
        trace.append(obj)
        alpha = alpha_new
        if fixed_weights:
            break
        gap = _duality_gap(gram, quads, report.residual, cfg.lam, cfg.r)
        gaps.append(gap / obj if gap > 0.0 else 0.0)
        if gaps[-1] <= cfg.mkl_tol or outer == cfg.mkl_max_iter:
            break
        fnorms = d ** 2 * np.maximum(quads, 0.0)
        d = weight_update(fnorms, cfg.r)
    return MovklModel(
        alpha=alpha,
        weights=d,
        stack=stack.with_weights(d),
        train_inputs=inputs,
        lam=cfg.lam,
        objective_trace=trace,
        outer_iterations=outer,
        solver_iterations=solver_iters,
        solver_routes=routes,
        solver_residuals=residuals,
        duality_gaps=gaps,
    )


def krr_fit(term: OvKernelTerm, inputs: CurveVec, targets: CurveVec,
            cfg: FitConfig) -> MovklModel:
    """Single-kernel ridge fit: weight 1, one solve in one exact step."""
    stack = KernelStack([OvKernelTerm(term.scalar, term.operator, 1.0)],
                        norm_exponent=cfg.r)
    return movkl_fit(stack, inputs, targets, cfg)


def predict(model: MovklModel, x_new: Curve) -> Curve:
    """Representer prediction sum_k d_k sum_i G_k(x_i, x) T_k alpha_i.

    Evaluated through the model's cached :meth:`MovklModel.prediction_plan`
    as sum_o H_o(x)^T (T_o alpha): each distinct base kernel is evaluated
    once against the training curves, its values are combined per distinct
    output operator o, and each operator adds one product, a thin pair of
    products for a truncated integral operator.  A model with one base
    kernel combines nothing.  The plan is built on the model's first
    prediction and kept, as the model cannot change.  The fresh output is
    wrapped without a copy or a second validation pass.  A query on another
    input grid raises ``DimensionError``, and a non-finite prediction (a polynomial kernel
    that overflows, say) raises ``ValueError``.
    """
    plan = model.prediction_plan()
    values = plan.evaluate(*plan.stats.cross(x_new.grid, x_new.values))
    # no reduction over the values, which a finite prediction can overflow
    if not np.isfinite(values).all():
        raise ValueError("curve values must be finite (no NaN/Inf)")
    values.setflags(write=False)
    return Curve._wrap(model.output_grid, values)


def predict_many(model: MovklModel, xs: CurveVec) -> CurveVec:
    """:func:`predict` for every curve of ``xs``, through the same plan,
    over blocks of ``QUERY_BLOCK`` curves: per block, one kernel evaluation
    per distinct base kernel and one product (or thin pair) per distinct
    output operator, written in place into the block's rows of one output
    array.  The plan is built on the calling thread.  The blocks' row slices
    are one shared list: :func:`movkl.funcspace._in_order` runs one drain
    task per worker, and each takes the next slice not yet taken until none
    is left, so a slow thread holds up no block but its own.  Every block
    is computed alone into its own rows, so predictions are bit-identical
    whatever the number of threads.  Each block checks its rows for
    non-finite values, raising :func:`predict`'s ``ValueError``; a failing
    task empties the list first, so no block starts after a failure.  The
    filled array is wrapped read-only without a copy or a second scan."""
    plan = model.prediction_plan()
    out = np.empty((xs.n, model.output_grid.size))
    pending = collections.deque(slice(lo, lo + QUERY_BLOCK)
                                for lo in range(0, xs.n, QUERY_BLOCK))

    # a block calls only methods: the module's public functions may be
    # wrapped by a tracer that is not thread-safe
    def drain():
        try:
            while True:
                try:
                    rows = pending.popleft()
                except IndexError:  # every block is taken
                    return
                block = plan.evaluate(*plan.stats.cross(xs.grid, xs.values[rows]),
                                      out=out[rows])
                if not np.isfinite(block).all():
                    raise ValueError("curve values must be finite (no NaN/Inf)")
        except BaseException:
            pending.clear()
            raise

    workers = _worker_count(len(pending))
    for _ in _in_order(itertools.repeat(drain, workers), workers):
        pass
    out.setflags(write=False)
    return CurveVec._wrap(model.output_grid, out)


# ---------------------------------------------------------------------------
# model archive
# ---------------------------------------------------------------------------

def _grid_to_doc(grid: Grid) -> dict:
    return {"points": grid.points.tolist(), "weights": grid.weights.tolist()}


def _grid_from_doc(doc: dict) -> Grid:
    return Grid(doc["points"], doc["weights"])


def model_to_doc(model: MovklModel) -> dict:
    r = model.stack.norm_exponent
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "lambda": model.lam,
        "norm_exponent": "inf" if math.isinf(r) else r,
        "input_grid": _grid_to_doc(model.input_grid),
        "output_grid": _grid_to_doc(model.output_grid),
        "terms": [
            {
                "scalar": t.scalar.to_config(),
                "operator": t.operator.to_config(),
                "weight": float(w),
            }
            for t, w in zip(model.stack.terms, model.weights)
        ],
        "alpha": model.alpha.values.tolist(),
        "train_inputs": model.train_inputs.values.tolist(),
        "objective_trace": [float(v) for v in model.objective_trace],
        "outer_iterations": model.outer_iterations,
        "solver_iterations": [int(v) for v in model.solver_iterations],
        "solver_routes": list(model.solver_routes),
        "solver_residuals": [float(v) for v in model.solver_residuals],
        "duality_gaps": [float(v) for v in model.duality_gaps],
    }


def model_from_doc(doc: dict) -> MovklModel:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError("not a model archive")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model archive version {doc.get('version')!r}")
    in_grid = _grid_from_doc(doc["input_grid"])
    out_grid = _grid_from_doc(doc["output_grid"])
    r = doc["norm_exponent"]
    stack = KernelStack([
        OvKernelTerm(scalar_kernel_from_config(item["scalar"]),
                     operator_from_config(item["operator"], out_grid),
                     item["weight"])
        for item in doc["terms"]], norm_exponent=math.inf if r == "inf" else r)
    return MovklModel(
        # np.array of a JSON list is a new array that nothing else holds
        alpha=CurveVec(out_grid, np.array(doc["alpha"], dtype=float), copy=False),
        weights=stack.weights,
        stack=stack,
        train_inputs=CurveVec(in_grid, np.array(doc["train_inputs"], dtype=float),
                              copy=False),
        lam=float(doc["lambda"]),
        objective_trace=[float(v) for v in doc["objective_trace"]],
        outer_iterations=int(doc.get("outer_iterations", 0)),
        solver_iterations=[int(v) for v in doc.get("solver_iterations", [])],
        solver_routes=[str(v) for v in doc.get("solver_routes", [])],
        solver_residuals=[float(v) for v in doc.get("solver_residuals", [])],
        duality_gaps=[float(v) for v in doc.get("duality_gaps", [])],
    )


def _write_json(path, doc) -> None:
    """Sorted, compact JSON and a final newline: equal documents, equal bytes."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_model(path, model: MovklModel) -> None:
    """Write the versioned JSON archive; values round-trip bit-exactly."""
    _write_json(path, model_to_doc(model))


def load_model(path) -> MovklModel:
    """Read a model archive.  A file that cannot be read, is not JSON, or
    is not a well-formed model archive of this version raises
    ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:
        # json.JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not a JSON model archive: {exc}") from None
    try:
        return model_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DataError(f"{path}: {why}") from None
