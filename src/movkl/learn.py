"""Curve-to-curve ridge regression with one or many operator-valued kernels.

The single-kernel fit solves the dual system (K + lambda*I) alpha = y and
keeps the representer form f(.) = sum_i K(x_i, .) alpha_i.  The multiple
kernel fit alternates that solve with a closed-form update of the kernel
weights under the constraint sum_k d_k^r <= 1, tracking the primal
objective

    sum_k ||f_k||^2 / (2 d_k) + ||y - f(x)||^2 / (2 lambda)

whose value is non-increasing across iterations.  At the solution the
stationarity identity lambda * alpha_i = y_i - f(x_i) holds, which the
tests use as an end-to-end consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .errors import DegenerateModelError, DimensionError, SolverError
from .funcspace import Curve, CurveVec, Grid, as_int, vec_norm
from .kernels import (
    BlockGram,
    CurveStats,
    KernelStack,
    OvKernelTerm,
    assemble_gram,
    group_by_operator,
    operator_from_config,
    scalar_kernel_from_config,
)
from .linsolve import (
    SolveConfig,
    gauss_seidel_solve,
    kron_solve,
    solve_route,
    structured_solve,
)

__all__ = [
    "FitConfig",
    "MovklModel",
    "PredictionPlan",
    "krr_fit",
    "movkl_fit",
    "weight_update",
    "fk_norm_sq",
    "predict",
    "predict_many",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "movkl-model"
MODEL_VERSION = 1

# query curves per block in predict_many: a block's kernel values and output
# rows stay in cache while every base kernel adds its product (desk-task
# 24-term model, 10,000 queries, one core and one BLAS thread: 0.10 s in
# blocks of 256, 0.17 s in one pass)
QUERY_BLOCK = 256


@dataclass
class FitConfig:
    """Regularization, norm exponent and stopping control for fits."""

    lam: float = 1e-2
    r: float = 2.0
    mkl_tol: float = 1e-4
    mkl_max_iter: int = 100
    solve: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        # written so that NaN fails every test; r = inf stays valid
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not self.r >= 1:
            raise ValueError("norm exponent must be >= 1")
        if not self.mkl_tol > 0:
            raise ValueError("mkl_tol must be positive")
        self.mkl_max_iter = as_int("mkl_max_iter", self.mkl_max_iter)


@dataclass(frozen=True, eq=False)
class PredictionPlan:
    """The model's side of the representer sum, computed once per model.

    T_k acts on the output side only, so for each distinct base kernel b
    (``ScaledKernel`` wrappers removed) the terms on b fold into one matrix

        A_b = sum over the terms k on b of d_k * c_k * T_k alpha,

    with c_k the term's total scale factor; terms on b that share an
    operator apply it once.  A prediction at z is then
    sum_b G_b(X, z)^T A_b, with G_b evaluated from ``stats``, the training
    statistics.  ``alpha``, ``stack`` and ``weight_bytes`` record what the
    plan was built from, so the model can tell when it is stale.
    """

    alpha: CurveVec
    stack: KernelStack
    weight_bytes: bytes
    stats: CurveStats
    terms: list

    def evaluate(self, ip: np.ndarray, sq_dist: np.ndarray) -> np.ndarray:
        """Predicted values from the training-by-query pair statistics of
        :meth:`CurveStats.pairs` or :meth:`CurveStats.cross`: (m,) for one
        query curve, (p, m) for p."""
        out = np.zeros(ip.shape[1:] + (self.stack.output_grid.size,))
        for base, A in self.terms:
            out += base.evaluate(ip, sq_dist).T @ A
        return out


def _build_plan(model: "MovklModel", weight_bytes: bytes) -> PredictionPlan:
    bases = group_by_operator(
        (base, [(term.operator, d_k * factor)])
        for term, d_k in zip(model.stack.terms, model.weights) if d_k != 0.0
        for base, factor in [term.scalar.unscaled()]
    )
    alpha = model.alpha.values
    terms = [
        (base, sum(coeff * op.apply_rows(alpha)
                   for op, coeff in group_by_operator(uses)))
        for base, uses in bases
    ]
    return PredictionPlan(model.alpha, model.stack, weight_bytes,
                          model.train_stats(), terms)


@dataclass
class MovklModel:
    """Fitted state: dual curves, kernel weights and training inputs."""

    alpha: CurveVec
    weights: np.ndarray
    stack: KernelStack
    train_inputs: CurveVec
    lam: float
    objective_trace: list[float]
    outer_iterations: int = 0
    solver_iterations: list[int] = field(default_factory=list)
    solver_routes: list[str] = field(default_factory=list)
    _train_stats: CurveStats | None = field(default=None, init=False, repr=False)
    _plan: PredictionPlan | None = field(default=None, init=False, repr=False)

    def train_stats(self) -> CurveStats:
        """Statistics of ``train_inputs``, cached per object, never archived."""
        if self._train_stats is None or self._train_stats.curves is not self.train_inputs:
            self._train_stats = CurveStats(self.train_inputs)
        return self._train_stats

    def prediction_plan(self) -> PredictionPlan:
        """The :class:`PredictionPlan`, cached per object and never archived.

        It is rebuilt when ``alpha``, ``stack`` or ``train_inputs`` has been
        replaced, or the values in ``weights`` have changed since it was
        built; arrays inside a CurveVec are read-only.
        """
        weight_bytes = np.asarray(self.weights, dtype=float).tobytes()
        plan = self._plan
        if (plan is None or plan.alpha is not self.alpha
                or plan.stack is not self.stack
                or plan.stats.curves is not self.train_inputs
                or plan.weight_bytes != weight_bytes):
            self._plan = plan = _build_plan(self, weight_bytes)
        return plan

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


def fk_norm_sq(gram: BlockGram, alpha: CurveVec, k: int) -> float:
    """Squared RKHS norm of the k-th component function.

    By the reproducing property this is d_k^2 <(G_k kron T_k) alpha, alpha>
    in the quadrature pairing.
    """
    d_k = gram.weights[k]
    if d_k == 0.0:
        return 0.0
    return float(d_k ** 2 * max(gram.quad_form_term(k, alpha.values), 0.0))


def _objective(gram: BlockGram, alpha_values, targets_values, lam):
    # primal value: sum_k ||f_k||^2/(2 d_k) + ||xi||^2/(2 lambda), with
    # ||f_k||^2/d_k = d_k * <(G_k kron T_k) a, a> (zero-weight terms vanish)
    quads = [
        gram.quad_form_term(k, alpha_values) if gram.weights[k] > 0 else 0.0
        for k in range(gram.n_terms)
    ]
    smooth = 0.5 * float(np.dot(gram.weights, np.maximum(quads, 0.0)))
    xi = targets_values - gram.apply_values(alpha_values)
    w = gram.grid.weights
    fit = float(np.sum((xi * xi) @ w)) / (2.0 * lam)
    return smooth + fit, quads


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
    Gram, solves (K + lambda*I) alpha = y by the route
    :func:`movkl.linsolve.solve_route` picks (eigendecomposition when every
    term shares one operator; the exact structured solve for identity,
    multiplication and truncated integral operators, accepted when its
    residual meets ``outer_tol`` and otherwise the warm start of
    Gauss-Seidel; Gauss-Seidel warm-started from the previous alpha for any
    other mix), and stops once the dual curves move less than ``mkl_tol``
    in the quadrature norm.  With a finite norm exponent
    and several terms the weights are then refreshed from the component
    norms; otherwise they cannot change and the first solve is final.  The
    weights are never refreshed after the last allowed round, so the
    returned alpha always solves the system of the returned weights.
    """
    return _alternate(stack, inputs, targets, cfg)


def krr_fit(term: OvKernelTerm, inputs: CurveVec, targets: CurveVec,
            cfg: FitConfig) -> MovklModel:
    """Single-kernel ridge fit: one eigendecomposition solve, weight 1."""
    stack = KernelStack([OvKernelTerm(term.scalar, term.operator, 1.0)],
                        norm_exponent=cfg.r)
    return _alternate(stack, inputs, targets, cfg)


def _alternate(stack: KernelStack, inputs: CurveVec, targets: CurveVec,
               cfg: FitConfig) -> MovklModel:
    _check_fit_args(inputs, targets)
    M = len(stack)
    d = np.full(M, 1.0 / M)
    base = assemble_gram(stack.with_weights(d), inputs)
    alpha = CurveVec.zero(stack.output_grid, targets.n)
    fixed_weights = weights_fixed(M, cfg.r)
    trace: list[float] = []
    solver_iters: list[int] = []
    routes: list[str] = []
    outer = 0
    for outer in range(1, cfg.mkl_max_iter + 1):
        gram = base.with_weights(d)
        alpha_new, report, route = _ridge_solve(gram, targets, alpha, cfg)
        if report.solver_kind == "gauss_seidel" and not report.converged:
            err = SolverError(
                "Gauss-Seidel solve did not converge "
                f"(residual {report.final_residual:.3e} after "
                f"{report.iterations} sweeps)"
            )
            err.trace = trace
            raise err
        solver_iters.append(report.iterations)
        routes.append(route)
        obj, quads = _objective(gram, alpha_new.values, targets.values, cfg.lam)
        trace.append(obj)
        change = vec_norm(alpha_new - alpha)
        alpha = alpha_new
        if change < cfg.mkl_tol or fixed_weights or outer == cfg.mkl_max_iter:
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
    )


def _ridge_solve(gram: BlockGram, targets: CurveVec, warm: CurveVec,
                 cfg: FitConfig):
    """Solve (K + lambda*I) alpha = y; returns alpha, report and route."""
    route = solve_route(gram)
    if route == "kron":
        alpha, report = kron_solve(gram, cfg.lam, targets)
        return alpha, report, route
    if route == "structured":
        alpha, report = structured_solve(gram, cfg.lam, targets)
        if report.final_residual <= cfg.solve.outer_tol:
            return alpha, report, route
        warm, route = alpha, "structured+gauss_seidel"
    alpha, report = gauss_seidel_solve(gram, cfg.lam, targets, cfg.solve, warm=warm)
    return alpha, report, route


def predict(model: MovklModel, x_new: Curve) -> Curve:
    """Representer prediction sum_k d_k sum_i G_k(x_i, x) T_k alpha_i.

    Evaluated as sum_b G_b(X, x)^T A_b from the model's cached
    :meth:`MovklModel.prediction_plan`, one kernel evaluation per distinct
    base kernel.  The plan is built on the first call and rebuilt after
    ``alpha``, ``stack`` or ``train_inputs`` is replaced or ``weights``
    changes.  A query on another input grid raises ``DimensionError``.
    """
    plan = model.prediction_plan()
    stats = plan.stats.cross(x_new.grid, x_new.values)
    return Curve(model.output_grid, plan.evaluate(*stats))


def predict_many(model: MovklModel, xs: CurveVec) -> CurveVec:
    """:func:`predict` for every curve of ``xs``, through the same plan:
    one kernel evaluation and one matrix product per distinct base kernel,
    taken over blocks of ``QUERY_BLOCK`` curves."""
    plan = model.prediction_plan()
    out = np.empty((xs.n, model.output_grid.size))
    for lo in range(0, xs.n, QUERY_BLOCK):
        rows = slice(lo, lo + QUERY_BLOCK)
        out[rows] = plan.evaluate(*plan.stats.cross(xs.grid, xs.values[rows]))
    return CurveVec(model.output_grid, out)


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
    }


def model_from_doc(doc: dict) -> MovklModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model archive")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model archive version {doc.get('version')!r}")
    in_grid = _grid_from_doc(doc["input_grid"])
    out_grid = _grid_from_doc(doc["output_grid"])
    r = doc["norm_exponent"]
    r = math.inf if r == "inf" else float(r)
    terms = []
    for item in doc["terms"]:
        terms.append(
            OvKernelTerm(
                scalar_kernel_from_config(item["scalar"]),
                operator_from_config(item["operator"], out_grid),
                float(item["weight"]),
            )
        )
    stack = KernelStack(terms, norm_exponent=r)
    return MovklModel(
        alpha=CurveVec(out_grid, np.array(doc["alpha"])),
        weights=np.array([t.weight for t in terms]),
        stack=stack,
        train_inputs=CurveVec(in_grid, np.array(doc["train_inputs"])),
        lam=float(doc["lambda"]),
        objective_trace=[float(v) for v in doc["objective_trace"]],
        outer_iterations=int(doc.get("outer_iterations", 0)),
        solver_iterations=[int(v) for v in doc.get("solver_iterations", [])],
        solver_routes=[str(v) for v in doc.get("solver_routes", [])],
    )


def save_model(path, model: MovklModel) -> None:
    """Write the versioned JSON archive; values round-trip bit-exactly."""
    text = json.dumps(model_to_doc(model), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> MovklModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))
