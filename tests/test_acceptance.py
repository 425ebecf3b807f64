"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Criterion 5 reproduces the qualitative benchmark ordering at desk scale
on the synthetic latency task.  Protocol (documented here because the
criterion pins the dataset, menu and margins but not the selection
procedure):

* dataset: n=100 curves, m=200 output samples, latency 15, noise 0.1,
  3 channels, seed 20120706; first 65 curves train, the rest test; the
  movement-state curves are the regression targets (the first table's
  task in the mirrored benchmark).
* per-output scalar KRR baseline: Gaussian kernel at the median
  pairwise distance, identity operator, ridge picked by
  one-curve-leave-out CV over the pinned grid logspace(-4, 2, 5).
* single integral-operator KRR: same Gaussian, integral operator, with
  ridge and truncation rank picked jointly by the same CV.
* MovKL variants: the full menu (5 Gaussian bandwidths x {0.1, 0.5, 1,
  5, 10} of the median distance plus polynomial degrees 1-3, crossed
  with identity/multiplication/integral operators), block-trace
  normalized; they inherit the integral baseline's CV-selected ridge.
"""

import math
import time

import numpy as np
import pytest

from movkl import (
    BlockGram,
    CurveVec,
    CvSpec,
    FitConfig,
    GaussianKernel,
    Grid,
    IdentityOperator,
    IntegralOperator,
    KernelStack,
    MultiplicationOperator,
    OvKernelTerm,
    PolynomialKernel,
    SolveConfig,
    SynthSpec,
    assemble_gram,
    block_trace_normalized,
    dense_solve,
    generate_synthetic,
    krr_fit,
    lcr,
    loo_cv,
    median_pairwise_distance,
    movkl_fit,
    pcg_solve,
    predict_many,
    rsse,
    vec_norm,
    weight_update,
)
from movkl.cli import main as cli_main

SEED = 20120706
LAMBDA_GRID = list(np.logspace(-4, 2, 5))


def report(criterion, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {state} {detail}")
    return ok


def make_operator(kind, grid, rng):
    if kind == 0:
        return IdentityOperator(grid)
    if kind == 1:
        return MultiplicationOperator(grid)
    if kind == 2:
        return IntegralOperator(grid)
    return IntegralOperator(grid, rank=int(rng.integers(2, grid.size)))


def random_instance(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(4, 11))
    M = int(rng.integers(1, 4))
    gin = Grid.uniform(0.0, 1.0, m + 2)
    gout = Grid.uniform(0.0, 1.0, m)
    terms = []
    for _ in range(M):
        if rng.random() < 0.5:
            scalar = GaussianKernel(float(rng.uniform(0.5, 2.0)))
        else:
            scalar = PolynomialKernel(int(rng.integers(1, 4)), 1.0)
        terms.append((scalar, make_operator(int(rng.integers(0, 4)), gout, rng)))
    d = rng.uniform(0.2, 1.0, M)
    d /= np.sqrt((d ** 2).sum())
    stack = KernelStack([OvKernelTerm(s, op, w) for (s, op), w in zip(terms, d)])
    X = CurveVec(gin, rng.normal(size=(n, m + 2)))
    Y = CurveVec(gout, rng.normal(size=(n, m)))
    ridge = float(10.0 ** rng.uniform(-2, 0))
    return stack, X, Y, ridge


class TestCriterion1SolverOracleEquivalence:
    def test_solvers_agree_with_dense_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        worst = 0.0
        for _ in range(50):
            stack, X, Y, ridge = random_instance(rng)
            gram = assemble_gram(stack, X)
            ref, _ = dense_solve(gram, ridge, Y)
            scale = max(vec_norm(ref), 1e-12)
            ap, _ = pcg_solve(gram, ridge, Y)
            worst = max(worst, vec_norm(ap - ref) / scale)
            checked += 1
        ok = worst <= 1e-6
        assert report(1, ok, f"(instances={checked}, worst rel err={worst:.2e})")


class TestCriterion2WeightUpdateOptimality:
    def test_update_beats_feasible_grid(self):
        rng = np.random.default_rng(202)
        worst_gap = -np.inf
        for r in (1.0, 1.5, 2.0, 4.0):
            for _ in range(5):
                M = int(rng.integers(2, 5))
                s = rng.uniform(0.0, 5.0, M)
                if rng.random() < 0.25:
                    s[int(rng.integers(M))] = 0.0
                if not np.any(s > 0):
                    s[0] = 1.0
                d_star = weight_update(s, r)
                best = sum(sk / dk for sk, dk in zip(s, d_star) if dk > 0)
                u = rng.uniform(0.0, 1.0, size=(10_000, M))
                u[0] = np.ones(M)
                e = u ** r
                e /= e.sum(axis=1, keepdims=True)
                grid = e ** (1.0 / r)
                with np.errstate(divide="ignore"):
                    vals = np.where(grid > 0, s[None, :] / grid, np.inf)
                    vals = np.where((grid <= 0) & (s[None, :] <= 0), 0.0, vals)
                gap = best - vals.sum(axis=1).min()
                worst_gap = max(worst_gap, gap)
        ok = worst_gap <= 1e-8
        assert report(2, ok, f"(worst objective gap={worst_gap:.2e})")


def random_fit_problem(rng, duplicated=False):
    n = int(rng.integers(4, 8))
    gin = Grid.uniform(0.0, 1.0, 7)
    gout = Grid.uniform(0.0, 1.0, 6)
    X = CurveVec(gin, rng.normal(size=(n, 7)))
    Y = CurveVec(gout, rng.normal(size=(n, 6)))
    if duplicated:
        k = GaussianKernel(1.0)
        op = IntegralOperator(gout, rank=4)
        stack = KernelStack.uniform([(k, op), (k, op)])
    else:
        stack = KernelStack.uniform([
            (GaussianKernel(float(rng.uniform(0.7, 1.5))), IdentityOperator(gout)),
            (PolynomialKernel(2), MultiplicationOperator(gout)),
            (GaussianKernel(float(rng.uniform(0.4, 0.9))),
             IntegralOperator(gout, rank=4)),
        ])
    cfg = FitConfig(lam=float(10 ** rng.uniform(-1.5, -0.5)), r=2.0,
                    mkl_tol=1e-7, mkl_max_iter=100,
                    solve=SolveConfig(outer_tol=1e-11, outer_max_iter=3000))
    return stack, X, Y, cfg


class TestCriterion3BlockDescentConvergence:
    def test_objective_monotone_and_stops(self):
        rng = np.random.default_rng(303)
        worst_rise = -np.inf
        for _ in range(20):
            stack, X, Y, cfg = random_fit_problem(rng)
            model = movkl_fit(stack, X, Y, cfg)
            assert model.outer_iterations < cfg.mkl_max_iter
            trace = model.objective_trace
            for prev, cur in zip(trace, trace[1:]):
                worst_rise = max(worst_rise, cur - prev)
        ok = worst_rise <= 1e-10
        assert report(3, ok, f"(worst objective rise={worst_rise:.2e})")

    def test_duplicated_kernel_symmetry(self):
        rng = np.random.default_rng(313)
        worst = 0.0
        for _ in range(5):
            stack, X, Y, cfg = random_fit_problem(rng, duplicated=True)
            model = movkl_fit(stack, X, Y, cfg)
            worst = max(worst, abs(model.weights[0] - model.weights[1]))
        ok = worst <= 1e-6
        assert report(3, ok, f"(duplicated-kernel weight gap={worst:.2e})")


class TestCriterion4StationarityIdentity:
    def test_lambda_alpha_equals_residual(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(8):
            stack, X, Y, cfg = random_fit_problem(rng)
            model = movkl_fit(stack, X, Y, cfg)
            preds = predict_many(model, X)
            for i in range(X.n):
                lhs = cfg.lam * model.alpha.values[i]
                rhs = Y.values[i] - preds.values[i]
                worst = max(worst,
                            np.linalg.norm(lhs - rhs)
                            / max(np.linalg.norm(rhs), 1e-12))
        ok = worst <= 1e-6
        assert report(4, ok, f"(worst relative violation={worst:.2e})")


@pytest.fixture(scope="module")
def latency_task():
    ds = generate_synthetic(SynthSpec(
        n_samples=100, grid_size=200, latency=15, channel_count=3,
        noise_std=0.1, seed=SEED,
    ))
    n_train = 65
    split = {
        "train_x": CurveVec(ds.input_grid, ds.inputs.values[:n_train]),
        "train_y": CurveVec(ds.output_grid, ds.labels.values[:n_train]),
        "test_x": CurveVec(ds.input_grid, ds.inputs.values[n_train:]),
        "test_y": CurveVec(ds.output_grid, ds.labels.values[n_train:]),
        "grid": ds.output_grid,
    }
    split["median"] = median_pairwise_distance(split["train_x"])
    return split


@pytest.fixture(scope="module")
def baseline_cv(latency_task):
    t = latency_task
    gk = GaussianKernel(t["median"])
    base_cfg = FitConfig(lam=1.0)
    lam_id, _, id_table = loo_cv(
        lambda q: KernelStack([OvKernelTerm(gk, IdentityOperator(t["grid"]), 1.0)]),
        t["train_x"], t["train_y"], CvSpec(lambda_grid=LAMBDA_GRID), base_cfg,
    )
    lam_int, rank_int, int_table = loo_cv(
        lambda q: KernelStack(
            [OvKernelTerm(gk, IntegralOperator(t["grid"], rank=q), 1.0)]),
        t["train_x"], t["train_y"],
        CvSpec(lambda_grid=LAMBDA_GRID, rank_grid=[5, 10, 20]), base_cfg,
    )
    return {"gk": gk, "lam_id": lam_id, "id_table": id_table,
            "lam_int": lam_int, "rank_int": rank_int, "int_table": int_table}


class TestCriterion5PaperTrendReproduction:
    def test_benchmark_ordering_with_margins(self, latency_task, baseline_cv):
        t, cv = latency_task, baseline_cv
        t0 = time.time()
        gk = cv["gk"]
        grid = t["grid"]

        krr_id = krr_fit(OvKernelTerm(gk, IdentityOperator(grid), 1.0),
                         t["train_x"], t["train_y"], FitConfig(lam=cv["lam_id"]))
        integ = IntegralOperator(grid, rank=cv["rank_int"])
        krr_int = krr_fit(OvKernelTerm(gk, integ, 1.0),
                          t["train_x"], t["train_y"], FitConfig(lam=cv["lam_int"]))
        rsse_id = rsse(t["test_y"], predict_many(krr_id, t["test_x"]))
        rsse_int = rsse(t["test_y"], predict_many(krr_int, t["test_x"]))

        scalars = [GaussianKernel(f * t["median"])
                   for f in (0.1, 0.5, 1.0, 5.0, 10.0)]
        scalars += [PolynomialKernel(d, 1.0) for d in (1, 2, 3)]
        operators = [IdentityOperator(grid), MultiplicationOperator(grid), integ]
        pairs = [(block_trace_normalized(s, op, t["train_x"]), op)
                 for op in operators for s in scalars]
        lam_movkl = max(cv["lam_int"], 1e-3)
        solve_cfg = SolveConfig(outer_tol=3e-7, outer_max_iter=60000)
        results = {}
        for r_exp, name in ((math.inf, "linf"), (2.0, "l2")):
            model = movkl_fit(
                KernelStack.uniform(pairs, norm_exponent=r_exp),
                t["train_x"], t["train_y"],
                FitConfig(lam=lam_movkl, r=r_exp, mkl_tol=5e-3,
                          mkl_max_iter=15, solve=solve_cfg),
            )
            preds = predict_many(model, t["test_x"])
            results[name] = (rsse(t["test_y"], preds), lcr(t["test_y"], preds))
        rsse_l2, lcr_l2 = results["l2"]
        rsse_linf, _ = results["linf"]
        runtime = time.time() - t0

        margin_l2_linf = 1.0 - rsse_l2 / rsse_linf
        margin_l2_int = 1.0 - rsse_l2 / rsse_int
        margin_int_id = 1.0 - rsse_int / rsse_id
        ok = (margin_l2_linf >= 0.01 and margin_l2_int >= 0.01
              and margin_int_id >= 0.01 and runtime <= 600)
        report(5, ok,
               f"(RSSE l2={rsse_l2:.4f} linf={rsse_linf:.4f} "
               f"int={rsse_int:.4f} id={rsse_id:.4f}; margins "
               f"l2<linf={margin_l2_linf:+.4f} l2<int={margin_l2_int:+.4f} "
               f"int<id={margin_int_id:+.4f}; LCR l2={lcr_l2:.1f}%; "
               f"{runtime:.0f}s)")
        assert runtime <= 600
        assert margin_int_id >= 0.01, (
            "integral-operator KRR must beat the per-output baseline by 1%"
        )
        assert margin_l2_linf >= 0.01, (
            "learned l2 weights must beat the evenly weighted sum by 1%"
        )
        assert margin_l2_int >= 0.01, (
            "l2 multiple kernel fit must beat the single integral KRR by 1%"
        )


class TestCriterion6MetricCorrectness:
    def test_rsse_and_lcr(self):
        rng = np.random.default_rng(606)
        gout = Grid.uniform(0.0, 1.0, 11)
        a = CurveVec(gout, rng.normal(size=(4, 11)))
        ok = rsse(a, a) == 0.0

        truth = CurveVec(gout, np.zeros((1, 11)))
        pred = CurveVec(gout, np.ones((1, 11)))
        ok &= abs(rsse(truth, pred) - 1.0) <= 1e-12

        b = CurveVec(gout, rng.normal(size=(4, 11)))
        flat = sum(
            gout.weights[j] * (a.values[i, j] - b.values[i, j]) ** 2
            for i in range(4) for j in range(11)
        )
        ok &= abs(rsse(a, b) - flat) <= 1e-12

        labels = CurveVec(gout, (rng.random((3, 11)) > 0.5).astype(float))
        ok &= lcr(labels, labels) == 100.0
        flipped = CurveVec(gout, 1.0 - labels.values)
        ok &= lcr(labels, flipped) == 0.0
        assert report(6, ok, "(trivial and flat-sum oracles)")


class TestCriterion7Determinism:
    def test_byte_identical_train_outputs(self, tmp_path):
        import json
        config = {
            "version": 1,
            "seed": SEED,
            "dataset": {"synth": {"n_samples": 10, "grid_size": 16,
                                  "latency": 2, "channel_count": 2,
                                  "noise_std": 0.1}},
            "kernels": {"menu": {"gaussian_bandwidth_factors": [0.5, 1.0],
                                 "polynomial_degrees": [1],
                                 "operators": ["identity", "integral"],
                                 "integral_rank": 5}},
            "fit": {"lambda": 0.05, "r": 2},
        }
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg_path = tmp_path / f"{run}.json"
            cfg_path.write_text(json.dumps(config))
            rc = cli_main(["train", "--config", str(cfg_path),
                           "--output-dir", str(out)])
            assert rc == 0
            blobs.append(((out / "model.json").read_bytes(),
                          (out / "fit_report.json").read_bytes()))
        ok = blobs[0] == blobs[1]
        assert report(7, ok, "(model archive and fit report byte-identical)")


class TestCriterion8CvInteriorSelection:
    def test_interior_lambda_and_fold_recomputation(self, latency_task,
                                                    baseline_cv):
        t, cv = latency_task, baseline_cv
        lam = cv["lam_id"]
        interior = LAMBDA_GRID[0] < lam < LAMBDA_GRID[-1]

        # fold recomputation oracle for the selected candidate
        gk = cv["gk"]
        stack = KernelStack([OvKernelTerm(gk, IdentityOperator(t["grid"]), 1.0)])
        total = 0.0
        X, Y = t["train_x"], t["train_y"]
        for i in range(X.n):
            keep = [j for j in range(X.n) if j != i]
            model = movkl_fit(
                stack,
                CurveVec(X.grid, X.values[keep]),
                CurveVec(Y.grid, Y.values[keep]),
                FitConfig(lam=lam),
            )
            pred = predict_many(model, CurveVec(X.grid, X.values[i][None, :]))
            total += rsse(CurveVec(Y.grid, Y.values[i][None, :]), pred)
        table_value = next(c.cv_rsse for c in cv["id_table"] if c.lam == lam)
        oracle_ok = abs(total - table_value) <= 1e-10 * max(1.0, table_value)

        # the integral model's CV (rank jointly selected) also lands interior
        interior_int = LAMBDA_GRID[0] < cv["lam_int"] < LAMBDA_GRID[-1]
        ok = interior and oracle_ok
        assert report(
            8, ok,
            f"(selected lambda={lam:g}, interior={interior}, "
            f"fold oracle gap={abs(total - table_value):.2e}, "
            f"integral model lambda={cv['lam_int']:g} interior={interior_int})"
        )
