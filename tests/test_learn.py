import dataclasses
import itertools
import json
import math
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import numpy as np
import pytest

import movkl.learn

from movkl import (
    BlockGram,
    Curve,
    CurveVec,
    DegenerateModelError,
    FitConfig,
    GaussianKernel,
    Grid,
    IdentityOperator,
    IntegralOperator,
    KernelStack,
    MovklModel,
    MultiplicationOperator,
    OvKernelTerm,
    PolynomialKernel,
    ScaledKernel,
    SolveConfig,
    SolverError,
    assemble_gram,
    block_trace_normalized,
    dense_solve,
    krr_fit,
    load_model,
    movkl_fit,
    pcg_solve,
    predict,
    predict_many,
    rsse,
    save_model,
    vec_norm,
    weight_update,
)
from conftest import (force_workers, plain_kernel_values, random_curve,
                      random_curve_vec)

TIGHT = SolveConfig(outer_tol=1e-11, outer_max_iter=2000)


def tight_cfg(lam, r=2.0, mkl_tol=1e-8, mkl_max_iter=300):
    return FitConfig(lam=lam, r=r, mkl_tol=mkl_tol, mkl_max_iter=mkl_max_iter,
                     solve=TIGHT)


def mixing_objective(s, d):
    """Independent evaluation of sum_k s_k / d_k with the 0/0 = 0 rule."""
    total = 0.0
    for sk, dk in zip(s, d):
        if dk > 0:
            total += sk / dk
        elif sk > 0:
            return np.inf
    return total


def boundary_grid(rng, M, r, count):
    """Random points on the constraint boundary sum d^r = 1."""
    u = rng.uniform(0.0, 1.0, size=(count, M))
    u[0] = np.ones(M)          # include the uniform direction
    e = u ** r
    e = e / e.sum(axis=1, keepdims=True)
    return e ** (1.0 / r)


class TestWeightUpdate:
    def test_symmetric_pair_r2(self):
        d = weight_update([1.0, 1.0], 2.0)
        assert np.allclose(d, [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)

    def test_sparse_zero_norm_r1(self):
        d = weight_update([4.0, 0.0], 1.0)
        assert np.allclose(d, [1.0, 0.0], atol=1e-14)

    def test_grid_search_oracle_specific(self, rng):
        # s = (4, 1), r = 2: the update must beat every feasible grid point
        s = np.array([4.0, 1.0])
        d = weight_update(s, 2.0)
        best = mixing_objective(s, d)
        for point in boundary_grid(rng, 2, 2.0, 10_000):
            assert best <= mixing_objective(s, point) + 1e-8

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 4.0])
    def test_grid_search_oracle_random(self, rng, r):
        for _ in range(5):
            M = int(rng.integers(2, 5))
            s = rng.uniform(0.0, 4.0, M)
            s[int(rng.integers(M))] = 0.0 if rng.random() < 0.3 else s[0]
            if not np.any(s > 0):
                s[0] = 1.0
            d = weight_update(s, r)
            best = mixing_objective(s, d)
            for point in boundary_grid(rng, M, r, 2000):
                assert best <= mixing_objective(s, point) + 1e-8

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 4.0])
    def test_constraint_active(self, rng, r):
        for _ in range(10):
            s = rng.uniform(0.1, 3.0, 4)
            d = weight_update(s, r)
            assert np.sum(d ** r) == pytest.approx(1.0, abs=1e-9)
            assert np.all(d >= 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                      min_size=1, max_size=8).filter(lambda s: any(s)),
           r=st.floats(1.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(s=[3.0, 0.0, 1e-6], r=1.0, seed=0)
    def test_optimality_properties(self, s, r, seed):
        s = np.array(s)
        d = weight_update(s, r)
        assert abs(np.sum(d ** r) - 1.0) <= 1e-12
        assert np.all(d >= 0)
        assert np.array_equal(d == 0.0, s == 0.0)
        best = mixing_objective(s, d)
        rng = np.random.default_rng(seed)
        # random feasible weights: on the boundary and strictly inside it
        points = boundary_grid(rng, s.size, r, 50)
        points[25:] *= rng.uniform(0.0, 1.0, (25, 1))
        for point in points:
            assert best <= mixing_objective(s, point) * (1.0 + 1e-12)

    def test_all_zero_norms_degenerate(self):
        with pytest.raises(DegenerateModelError):
            weight_update([0.0, 0.0], 2.0)

    def test_infinite_exponent_rejected(self):
        with pytest.raises(ValueError):
            weight_update([1.0, 2.0], math.inf)


def small_problem(rng, n=4, m_in=6, m_out=5):
    gin = Grid.uniform(0, 1, m_in)
    gout = Grid.uniform(0, 1, m_out)
    return random_curve_vec(rng, gin, n), random_curve_vec(rng, gout, n)


class TestKrrFit:
    def test_zero_targets(self, rng):
        X, _ = small_problem(rng)
        Y = CurveVec.zero(Grid.uniform(0, 1, 5), 4)
        term = OvKernelTerm(GaussianKernel(1.0), IdentityOperator(Y.grid))
        model = krr_fit(term, X, Y, tight_cfg(0.1))
        assert np.all(model.alpha.values == 0.0)
        assert np.all(predict_many(model, X).values == 0.0)

    def test_single_point_halves_target(self, rng):
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, 5)
        X = random_curve_vec(rng, gin, 1)
        Y = random_curve_vec(rng, gout, 1)
        term = OvKernelTerm(GaussianKernel(1.0), IdentityOperator(gout))
        model = krr_fit(term, X, Y, tight_cfg(1.0))
        assert np.allclose(model.alpha.values, Y.values / 2.0, atol=1e-12)
        pred = predict(model, X[0])
        assert np.allclose(pred.values, Y.values[0] / 2.0, atol=1e-12)

    def test_interpolation_limit(self, rng):
        # with a vanishing ridge the fit reproduces the training targets;
        # cross-checked against the dense oracle solution
        X, Y = small_problem(rng)
        term = OvKernelTerm(GaussianKernel(1.5), IdentityOperator(Y.grid))
        cfg = tight_cfg(1e-6)
        model = krr_fit(term, X, Y, cfg)
        preds = predict_many(model, X)
        assert rsse(Y, preds) <= 1e-4

        gram = assemble_gram(model.stack, X)
        ad, _ = dense_solve(gram, 1e-6, Y)
        assert np.allclose(model.alpha.values, ad.values, atol=1e-6)


def duplicated_stack(gout, r):
    k = GaussianKernel(1.0)
    op = IntegralOperator(gout, rank=4)
    return KernelStack.uniform([(k, op), (k, op)], norm_exponent=r)


class TestMovklFit:
    def test_single_term_reduces_to_krr(self, rng):
        X, Y = small_problem(rng)
        term = OvKernelTerm(GaussianKernel(0.9), MultiplicationOperator(Y.grid))
        stack = KernelStack([OvKernelTerm(term.scalar, term.operator, 1.0)])
        cfg = tight_cfg(0.05)
        mk = movkl_fit(stack, X, Y, cfg)
        kr = krr_fit(term, X, Y, cfg)
        assert np.allclose(mk.weights, [1.0])
        # fixed weights: one solve and no duality gap
        assert mk.outer_iterations == 1 and mk.duality_gaps == []
        assert np.allclose(mk.alpha.values, kr.alpha.values, atol=1e-10)
        q = random_curve(rng, X.grid)
        assert np.allclose(predict(mk, q).values, predict(kr, q).values,
                           atol=1e-10)

    def test_duplicated_terms_symmetric_weights(self, rng):
        X, Y = small_problem(rng)
        model = movkl_fit(duplicated_stack(Y.grid, 2.0), X, Y, tight_cfg(0.1))
        assert abs(model.weights[0] - model.weights[1]) <= 1e-6
        # identical terms act through their weight sum: the model must
        # match a direct solve with the merged weight
        merged = BlockGram(
            [model.stack.terms[0].scalar.gram(X)],
            [model.stack.terms[0].operator],
            [model.weights.sum()],
            Y.grid,
        )
        ref, _ = dense_solve(merged, 0.1, Y)
        assert np.allclose(model.alpha.values, ref.values, atol=1e-6)

    def test_duplicated_terms_l1_match_single(self, rng):
        # under the sum constraint the duplicated pair carries total weight
        # one, so predictions coincide with the single-kernel fit
        X, Y = small_problem(rng)
        cfg = tight_cfg(0.1, r=1.0)
        model = movkl_fit(duplicated_stack(Y.grid, 1.0), X, Y, cfg)
        term = duplicated_stack(Y.grid, 1.0).terms[0]
        single = krr_fit(OvKernelTerm(term.scalar, term.operator, 1.0), X, Y,
                         tight_cfg(0.1))
        assert abs(model.weights.sum() - 1.0) <= 1e-9
        q = random_curve(rng, X.grid)
        assert np.allclose(predict(model, q).values,
                           predict(single, q).values, atol=1e-6)

    def test_objective_matches_joint_grid_minimum(self, rng):
        # refine a grid over the constraint boundary; each grid point is
        # solved by an independent densified solve and scored by an
        # independently coded primal objective
        n, m_out, lam, r = 8, 5, 0.05, 2.0
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, m_out)
        X = random_curve_vec(rng, gin, n)
        Y = random_curve_vec(rng, gout, n)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(gout)),
             (GaussianKernel(0.5), MultiplicationOperator(gout)),
             (PolynomialKernel(1), IntegralOperator(gout))])
        model = movkl_fit(stack, X, Y, tight_cfg(lam, r=r, mkl_tol=1e-10,
                                                 mkl_max_iter=500))
        fitted = model.objective_trace[-1]

        grams = [t.scalar.gram(X) for t in stack.terms]
        mats = [np.kron(g, t.operator.matrix())
                for g, t in zip(grams, stack.terms)]
        w_flat = np.tile(gout.weights, n)
        y_flat = Y.values.ravel()

        def joint_objective(d):
            Kd = sum(dk * Mk for dk, Mk in zip(d, mats))
            a = np.linalg.solve(Kd + lam * np.eye(n * m_out), y_flat)
            val = 0.0
            for dk, Mk in zip(d, mats):
                if dk > 0:
                    fk_sq = dk ** 2 * float((Mk @ a) @ (w_flat * a))
                    val += fk_sq / (2.0 * dk)
            xi = y_flat - Kd @ a
            return val + float((xi * xi) @ w_flat) / (2.0 * lam)

        # simplex grid over e = d^r with three refinement rounds
        best_e = np.full(3, 1.0 / 3.0)
        span = 1.0
        best_val = np.inf
        for _ in range(4):
            axis = np.linspace(-span, span, 13)
            for da in axis:
                for db in axis:
                    e = best_e + np.array([da, db, -da - db])
                    if np.any(e < 0):
                        continue
                    e = e / e.sum()
                    val = joint_objective(e ** (1.0 / r))
                    if val < best_val:
                        best_val, best_cand = val, e
            best_e = best_cand
            span /= 6.0
        assert fitted == pytest.approx(best_val, rel=1e-4)

    def test_objective_trace_non_increasing(self, rng):
        for _ in range(5):
            X, Y = small_problem(rng, n=5)
            stack = KernelStack.uniform(
                [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
                 (GaussianKernel(2.0), MultiplicationOperator(Y.grid)),
                 (PolynomialKernel(2), IntegralOperator(Y.grid))])
            model = movkl_fit(stack, X, Y, tight_cfg(0.1))
            trace = model.objective_trace
            assert model.outer_iterations <= 300
            for prev, cur in zip(trace, trace[1:]):
                assert cur <= prev + 1e-10

    def test_stationarity_identity(self, rng):
        X, Y = small_problem(rng, n=5)
        lam = 0.2
        stack = KernelStack.uniform(
            [(GaussianKernel(1.2), MultiplicationOperator(Y.grid)),
             (PolynomialKernel(1), IntegralOperator(Y.grid, rank=3))])
        model = movkl_fit(stack, X, Y, tight_cfg(lam, mkl_tol=1e-10))
        preds = predict_many(model, X)
        for i in range(X.n):
            lhs = lam * model.alpha.values[i]
            rhs = Y.values[i] - preds.values[i]
            scale = max(np.linalg.norm(rhs), 1e-12)
            assert np.linalg.norm(lhs - rhs) <= 1e-6 * scale

    def test_infinite_norm_keeps_uniform_weights(self, rng):
        X, Y = small_problem(rng)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (GaussianKernel(0.5), IntegralOperator(Y.grid)),
             (PolynomialKernel(2), MultiplicationOperator(Y.grid))],
            norm_exponent=math.inf)
        model = movkl_fit(stack, X, Y, tight_cfg(0.1, r=math.inf))
        assert np.allclose(model.weights, 1.0 / 3.0)
        # the weights cannot move, so the first solve is final
        assert model.outer_iterations == 1
        assert model.duality_gaps == []

    def test_iteration_cap_returns_consistent_model(self, rng):
        # stopped at mkl_max_iter before mkl_tol is met, alpha must still
        # solve the ridge system of the returned weights
        X, Y = small_problem(rng, n=9, m_in=12, m_out=12)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (PolynomialKernel(2), MultiplicationOperator(Y.grid))])
        cfg = tight_cfg(0.01, mkl_max_iter=2)
        model = movkl_fit(stack, X, Y, cfg)
        assert model.outer_iterations == 2
        gram = assemble_gram(model.stack, X)
        resid = Y - gram.apply(model.alpha) - cfg.lam * model.alpha
        assert vec_norm(resid) <= cfg.solve.outer_tol * vec_norm(Y)

    def test_non_integral_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            FitConfig(mkl_max_iter=2.5)
        assert FitConfig(mkl_max_iter=4.0).mkl_max_iter == 4

    @pytest.mark.parametrize("field,bad", [
        ("lam", math.nan), ("lam", math.inf), ("lam", -math.inf),
        ("mkl_tol", math.nan), ("mkl_tol", math.inf), ("r", math.nan),
    ])
    def test_non_finite_values_rejected(self, field, bad):
        with pytest.raises(ValueError):
            FitConfig(**{field: bad})
        assert FitConfig(r=math.inf).r == math.inf

    def test_mismatched_counts_rejected(self, rng):
        X, Y = small_problem(rng)
        bad_Y = CurveVec(Y.grid, Y.values[:3])
        stack = KernelStack.uniform([(GaussianKernel(1.0),
                                      IdentityOperator(Y.grid))])
        with pytest.raises(Exception):
            movkl_fit(stack, X, bad_Y, tight_cfg(0.1))


class TestObjective:
    @pytest.mark.parametrize("operators", ["shared", "mixed"])
    def test_solver_residual_gives_fresh_objective(self, rng, operators):
        # the objective takes its misfit from the solver's true residual; it
        # must equal the objective of a fresh block application, and the
        # primal value of the densified system
        X, Y = small_problem(rng, n=5)
        lam = 0.05
        pairs = [(GaussianKernel(1.0), IntegralOperator(Y.grid, rank=3)),
                 (PolynomialKernel(2), IntegralOperator(Y.grid, rank=3))]
        if operators == "mixed":
            pairs += [(GaussianKernel(0.5), IdentityOperator(Y.grid)),
                      (GaussianKernel(2.0), MultiplicationOperator(Y.grid))]
        gram = assemble_gram(KernelStack.uniform(pairs), X)
        alpha, report = pcg_solve(gram, lam, Y, tight_cfg(lam).solve)
        assert report.converged
        a = alpha.values
        obj, quads = movkl.learn._objective(gram, a, report.residual, lam)
        fresh = Y.values - gram.apply_values(a) - lam * a
        ref_obj, ref_quads = movkl.learn._objective(gram, a, fresh, lam)
        assert obj == pytest.approx(ref_obj, rel=1e-12)
        assert np.array_equal(quads, ref_quads)

        w_flat = np.tile(Y.grid.weights, Y.n)
        a_flat = a.ravel()
        xi = Y.values.ravel() - gram.densify() @ a_flat
        smooth = sum(
            d * float((np.kron(G, op.matrix()) @ a_flat) @ (w_flat * a_flat))
            for G, op, d in zip(gram.scalar_grams, gram.operators, gram.weights))
        dense_obj = 0.5 * smooth + float(xi @ (w_flat * xi)) / (2.0 * lam)
        assert obj == pytest.approx(dense_obj, rel=1e-10)


def primal_and_dual(stack, X, Y, d, alpha, lam, r):
    """P and D(alpha) from their definitions on the densified terms, and
    the sum of the magnitudes that P - D cancels, the scale of its
    rounding."""
    w = np.tile(Y.grid.weights, Y.n)
    a, y = alpha.ravel(), Y.values.ravel()
    mats = [np.kron(t.scalar.gram(X), t.operator.matrix()) for t in stack.terms]
    q = np.maximum([float((M @ a) @ (w * a)) for M in mats], 0.0)
    xi = y - sum(dk * M for dk, M in zip(d, mats)) @ a
    primal = 0.5 * float(np.dot(d, q)) + float(xi @ (w * xi)) / (2.0 * lam)
    dual_norm = float(np.linalg.norm(q, ord=math.inf if r == 1 else r / (r - 1)))
    fit, ridge = float(a @ (w * y)), 0.5 * lam * float(a @ (w * a))
    dual = fit - ridge - 0.5 * dual_norm
    return primal, dual, abs(fit) + ridge + 0.5 * dual_norm + primal


def recorded_fit(stack, X, Y, cfg):
    """movkl_fit with each round's weights and alpha recorded."""
    exact = movkl.learn.pcg_solve
    rounds = []

    def recording(gram, ridge, y, solve, warm):
        alpha, report = exact(gram, ridge, y, solve, warm=warm)
        rounds.append((gram.weights, alpha.values))
        return alpha, report

    with mock.patch.object(movkl.learn, "pcg_solve", recording):
        model = movkl_fit(stack, X, Y, cfg)
    return model, rounds


def mixed_stack(rng, n=10, m_in=10, m_out=12):
    """A learned-weight l2 problem: three kernels under the identity,
    multiplication and a rank-4 integral operator, block-trace normalized."""
    gin, gout = Grid.uniform(0, 1, m_in), Grid.uniform(0, 1, m_out)
    X = CurveVec(gin, rng.normal(size=(n, m_in)))
    Y = CurveVec(gout, rng.normal(size=(n, m_out)))
    ops = [IdentityOperator(gout), MultiplicationOperator(gout),
           IntegralOperator(gout, rank=4)]
    kernels = [GaussianKernel(0.5), GaussianKernel(2.0), PolynomialKernel(2)]
    stack = KernelStack.uniform([(block_trace_normalized(k, op, X), op)
                                 for op in ops for k in kernels])
    return stack, X, Y


class TestDualityGap:
    def test_stop_does_not_depend_on_target_scale(self):
        # the relative gap has no units: targets scaled by powers of two
        # stop after the same rounds with the same weights
        stack, X, Y = mixed_stack(np.random.default_rng(5))
        cfg = FitConfig(lam=1e-2, r=2.0)
        models = [movkl_fit(stack, X, Y * 2.0 ** e, cfg) for e in (-14, 0, 14)]
        rounds = [model.outer_iterations for model in models]
        assert rounds[0] == rounds[1] == rounds[2] < cfg.mkl_max_iter
        for model in models:
            np.testing.assert_allclose(model.weights, models[1].weights,
                                       rtol=1e-12, atol=0.0)
            assert model.duality_gaps[-1] <= cfg.mkl_tol

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2 ** 16),
        n=st.integers(2, 6),
        m=st.integers(3, 8),
        terms=st.lists(
            st.tuples(st.sampled_from(["identity", "multiplication", "integral"]),
                      st.floats(0.0, 1.0),
                      st.sampled_from(["gaussian 0.5", "gaussian 2", "poly 1",
                                       "poly 2"])),
            min_size=2, max_size=4),
        r=st.sampled_from([1.0, 4.0 / 3.0, 2.0, 3.0]),
        log_lam=st.floats(-4.0, 0.0),
    )
    def test_gap_is_primal_minus_dual(self, seed, n, m, terms, r, log_lam):
        rng = np.random.default_rng(seed)
        X, Y = small_problem(rng, n=n, m_in=m + 1, m_out=m)
        kernels = {"gaussian 0.5": GaussianKernel(0.5),
                   "gaussian 2": GaussianKernel(2.0),
                   "poly 1": PolynomialKernel(1), "poly 2": PolynomialKernel(2)}
        ops = {"identity": IdentityOperator, "multiplication": MultiplicationOperator}
        # the integral operator truncated to a rank from 1 to m - 1
        stack = KernelStack.uniform(
            [(kernels[k], ops[kind](Y.grid) if kind in ops else
              IntegralOperator(Y.grid, rank=1 + round(frac * (m - 2))))
             for kind, frac, k in terms], norm_exponent=r)
        lam = 10.0 ** log_lam
        cfg = tight_cfg(lam, r=r, mkl_tol=1e-4, mkl_max_iter=40)
        model, rounds = recorded_fit(stack, X, Y, cfg)

        assert len(model.duality_gaps) == model.outer_iterations == len(rounds)
        for gap, (d, alpha) in zip(model.duality_gaps, rounds):
            primal, dual, magnitude = primal_and_dual(stack, X, Y, d, alpha, lam, r)
            assert gap >= 0.0
            assert gap * primal == pytest.approx(primal - dual, abs=1e-10 * magnitude)
        if model.outer_iterations < cfg.mkl_max_iter:
            assert model.duality_gaps[-1] <= cfg.mkl_tol

    def test_gap_sees_zero_weight_terms(self, rng):
        # a term of weight zero adds its form to the dual norm: the round
        # is not optimal while that term's form exceeds the others'
        X, Y = small_problem(rng, n=5)
        stack = KernelStack([
            OvKernelTerm(GaussianKernel(1.0), IdentityOperator(Y.grid), 0.0),
            OvKernelTerm(PolynomialKernel(2), IntegralOperator(Y.grid, rank=2), 1.0)])
        lam = 0.1
        gram = assemble_gram(stack, X)
        alpha, report = pcg_solve(gram, lam, Y, TIGHT)
        quads = gram.quad_forms(alpha.values)
        assert quads[0] > 0.0
        gap = movkl.learn._duality_gap(gram, quads, report.residual, lam, 2.0)
        primal, dual, magnitude = primal_and_dual(stack, X, Y, stack.weights,
                                                  alpha.values, lam, 2.0)
        assert gap == pytest.approx(primal - dual, abs=1e-10 * magnitude)
        assert gap > 0.25 * quads[0]


class TestSolveRouting:
    def test_full_rank_integral_goes_to_pcg(self, rng):
        X, Y = small_problem(rng, n=5)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), MultiplicationOperator(Y.grid)),
             (PolynomialKernel(1), IntegralOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.1, mkl_tol=1e-6))
        assert model.solver_routes == ["pcg"] * model.outer_iterations
        assert all(0.0 <= v <= TIGHT.outer_tol for v in model.solver_residuals)

    def test_old_capacitance_guard_case_goes_to_pcg(self, rng):
        # n*Q = 85 * 59 exceeded the 5,000 guard of the deleted capacitance
        # solve; CG has no guard
        X, Y = small_problem(rng, n=85, m_in=8, m_out=60)
        stack = KernelStack.uniform(
            [(GaussianKernel(0.05), IdentityOperator(Y.grid)),
             (GaussianKernel(0.05), IntegralOperator(Y.grid, rank=59))],
            norm_exponent=math.inf)
        model = movkl_fit(stack, X, Y, tight_cfg(1.0, r=math.inf))
        assert model.solver_routes == ["pcg"]
        assert model.solver_residuals[0] <= TIGHT.outer_tol

    def test_pcg_warm_starts_from_previous_alpha(self, rng, monkeypatch):
        X, Y = small_problem(rng, n=6)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (PolynomialKernel(2), MultiplicationOperator(Y.grid)),
             (GaussianKernel(0.5), IntegralOperator(Y.grid, rank=3))])
        exact = movkl.learn.pcg_solve
        calls = []

        def recording(gram, ridge, y, cfg, warm):
            alpha, report = exact(gram, ridge, y, cfg, warm=warm)
            calls.append((warm, alpha))
            return alpha, report

        monkeypatch.setattr(movkl.learn, "pcg_solve", recording)
        model = movkl_fit(stack, X, Y, tight_cfg(0.1, mkl_tol=1e-6))
        assert model.outer_iterations == len(calls) > 2
        # the first round starts from zero without a warm start
        assert calls[0][0] is None
        for (_, previous), (warm, _) in zip(calls, calls[1:]):
            assert warm is previous
        assert calls[-1][1] is model.alpha

    def test_residuals_are_the_solve_reports(self, rng, monkeypatch):
        X, Y = small_problem(rng, n=6)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (GaussianKernel(0.5), IntegralOperator(Y.grid, rank=3))])
        exact = movkl.learn.pcg_solve
        reported = []

        def recording(*args, **kwargs):
            alpha, report = exact(*args, **kwargs)
            reported.append(report.final_residual)
            return alpha, report

        monkeypatch.setattr(movkl.learn, "pcg_solve", recording)
        model = movkl_fit(stack, X, Y, tight_cfg(0.1, mkl_tol=1e-6))
        assert model.outer_iterations > 1
        assert model.solver_residuals == reported
        assert all(v > 0.0 for v in reported)

    def test_unconverged_pcg_raises_with_trace(self, rng, monkeypatch):
        X, Y = small_problem(rng, n=6)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (PolynomialKernel(2), MultiplicationOperator(Y.grid)),
             (GaussianKernel(0.5), IntegralOperator(Y.grid, rank=3))])
        exact = movkl.learn.pcg_solve
        calls = []

        def third_capped(gram, ridge, y, cfg, warm):
            # the third solve may take one step toward an unreachable floor
            calls.append(None)
            if len(calls) == 3:
                cfg = SolveConfig(outer_tol=1e-300, outer_max_iter=1)
            return exact(gram, ridge, y, cfg, warm=warm)

        monkeypatch.setattr(movkl.learn, "pcg_solve", third_capped)
        with pytest.raises(SolverError, match="did not converge") as err:
            movkl_fit(stack, X, Y, tight_cfg(0.1, mkl_tol=1e-6))
        assert "after 1 iterations" in str(err.value)
        # the objectives of the two finished rounds, non-increasing, and
        # their relative gaps
        trace = err.value.trace
        assert len(trace) == 2 and trace[1] <= trace[0]
        assert len(err.value.gaps) == 2 and all(g > 0.0 for g in err.value.gaps)

    def test_unconverged_one_operator_solve_raises(self, rng):
        # a one-operator stack takes the same route: a solve that misses
        # outer_tol is an error, not a flagged number
        X, Y = small_problem(rng, n=6)
        term = OvKernelTerm(GaussianKernel(1.0), IntegralOperator(Y.grid, rank=3))
        cfg = FitConfig(lam=0.1, solve=SolveConfig(outer_tol=1e-300, outer_max_iter=3))
        with pytest.raises(SolverError, match="after 3 iterations"):
            krr_fit(term, X, Y, cfg)


def readme_quick_start() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeQuickStart:
    def test_runs_verbatim_under_defaults(self):
        code = readme_quick_start()
        assert "mk.FitConfig(lam=0.05, r=2.0)" in code
        scope = {}
        exec(compile(code, "README.md", "exec"), scope)
        model = scope["model"]
        assert model.solver_routes == ["pcg"] * model.outer_iterations
        assert np.sum(model.weights ** 2) == pytest.approx(1.0)
        assert scope["pred"].values.shape == (80,)


class TestPredict:
    def test_zero_alpha_zero_prediction(self, rng):
        X, Y = small_problem(rng)
        stack = KernelStack.uniform([(GaussianKernel(1.0),
                                      IdentityOperator(Y.grid))])
        model = movkl_fit(stack, X, CurveVec.zero(Y.grid, 4), tight_cfg(1.0))
        q = random_curve(rng, X.grid)
        assert np.all(predict(model, q).values == 0.0)

    @pytest.mark.parametrize("with_gaussian", [False, True])
    def test_non_finite_prediction_raises(self, rng, with_gaussian):
        # a cubic kernel on huge query curves overflows to inf
        X, Y = small_problem(rng)
        pairs = [(PolynomialKernel(3), IdentityOperator(Y.grid))]
        if with_gaussian:
            pairs.append((GaussianKernel(1.0), IntegralOperator(Y.grid, rank=2)))
        model = MovklModel(alpha=Y, weights=np.full(len(pairs), 0.5),
                           stack=KernelStack.uniform(pairs), train_inputs=X,
                           lam=0.1, objective_trace=[])
        Z = random_curve_vec(rng, X.grid, 3) * 1e120
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                predict(model, Z[1])
            with pytest.raises(ValueError, match="finite"):
                predict_many(model, Z)

    def test_finite_prediction_whose_sum_overflows(self):
        # every predicted value is 2e307, finite, but 50 of them sum to inf:
        # the finiteness check must fall back to scanning the values
        gin, gout = Grid.uniform(0.0, 1.0, 5), Grid.uniform(0.0, 1.0, 50)
        X = CurveVec(gin, np.zeros((2, 5)))
        model = MovklModel(alpha=CurveVec(gout, np.full((2, 50), 1e307)),
                           weights=np.ones(1),
                           stack=KernelStack.uniform([(GaussianKernel(1.0),
                                                       IdentityOperator(gout))]),
                           train_inputs=X, lam=0.1, objective_trace=[])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = predict(model, X[0])
        assert np.all(pred.values == 2e307)
        with np.errstate(over="ignore"):
            assert math.isinf(pred.values.sum())

    def test_outputs_are_read_only(self, rng):
        model = plan_model(rng)
        Z = random_curve_vec(rng, model.input_grid, 3)
        assert not predict(model, Z[0]).values.flags.writeable
        assert not predict_many(model, Z).values.flags.writeable

    def test_training_point_identity(self, rng):
        # n = 1, identity operator, G(x1, x1) = 1, d = 1: prediction at the
        # training input is exactly alpha_1
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, 5)
        X = random_curve_vec(rng, gin, 1)
        Y = random_curve_vec(rng, gout, 1)
        term = OvKernelTerm(GaussianKernel(1.0), IdentityOperator(gout))
        model = krr_fit(term, X, Y, tight_cfg(1.0))
        assert np.allclose(predict(model, X[0]).values, model.alpha.values[0],
                           atol=1e-13)

    def test_training_row_matches_gram_action(self, rng):
        # prediction at x_i equals row i of K alpha = y_i - lam * alpha_i
        X, Y = small_problem(rng, n=5)
        lam = 0.3
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IntegralOperator(Y.grid)),
             (PolynomialKernel(2), IntegralOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(lam))
        gram = assemble_gram(model.stack, X)
        gram_rows = gram.apply(model.alpha).values
        preds = predict_many(model, X).values
        assert np.allclose(preds, gram_rows, atol=1e-8)

    def test_wrong_grid_rejected(self, rng):
        X, Y = small_problem(rng)
        stack = KernelStack.uniform([(GaussianKernel(1.0),
                                      IdentityOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.5))
        from movkl import DimensionError
        with pytest.raises(DimensionError):
            predict(model, random_curve(rng, Grid.uniform(0, 2, X.grid.size)))


# base kernels as (kind, parameters); terms draw from this pool, so the
# same base kernel recurs under several operators as distinct instances
BASE_POOL = [("gaussian", 0.7), ("gaussian", 1.9), ("polynomial", 1, 0.5),
             ("polynomial", 2, 1.0), ("polynomial", 3, 0.0)]
OPERATORS = {
    "identity": IdentityOperator,
    "multiplication": MultiplicationOperator,
    "integral": IntegralOperator,
    "integral rank 2": lambda grid: IntegralOperator(grid, rank=2),
}


def oracle_gram(spec, factors, X, Z, w):
    """G(x_i, z_j) from the kernel's plain formula, scale factors applied."""
    if spec[0] == "gaussian":
        d2 = ((X[:, None, :] - Z[None, :, :]) ** 2) @ w
        gram = np.exp(-d2 / (2.0 * spec[1] ** 2))
    else:
        gram = (np.einsum("il,jl,l->ij", X, Z, w) + spec[2]) ** spec[1]
    return math.prod(factors) * gram


def build_term_parts(spec, factors, kind, grid):
    kernel = (GaussianKernel(spec[1]) if spec[0] == "gaussian"
              else PolynomialKernel(spec[1], spec[2]))
    for f in factors:
        kernel = ScaledKernel(kernel, f)
    return kernel, OPERATORS[kind](grid)


TERM = st.tuples(
    st.integers(0, len(BASE_POOL) - 1),
    st.lists(st.floats(0.2, 5.0), max_size=2),
    st.sampled_from(list(OPERATORS)),
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
)
ARCHIVE_KEYS = {
    "format", "version", "lambda", "norm_exponent", "input_grid", "output_grid",
    "terms", "alpha", "train_inputs", "objective_trace", "outer_iterations",
    "solver_iterations", "solver_routes", "solver_residuals", "duality_gaps",
}


class TestSharedPredictionPath:
    """Prediction from shared kernel statistics against a per-term oracle
    sum_k d_k T_k(G_k(X, Z)^T A), each G_k from its plain formula."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           p=st.integers(1, 5), m_in=st.integers(3, 8), m_out=st.integers(3, 8),
           terms=st.lists(TERM, min_size=1, max_size=7))
    # one base kernel, nested scales, under every operator, one weight zero
    @example(seed=1, n=4, p=3, m_in=5, m_out=6, terms=[
        (0, [2.0, 0.5], "identity", 0.4), (0, [3.0], "multiplication", 0.3),
        (0, [], "integral", 0.0), (0, [0.25, 4.0], "integral rank 2", 0.5)])
    # equal distinct instances under one operator; every weight zero
    @example(seed=2, n=3, p=2, m_in=4, m_out=4, terms=[
        (3, [], "identity", 0.0), (3, [], "identity", 0.0)])
    @example(seed=3, n=1, p=1, m_in=3, m_out=3, terms=[
        (4, [0.3], "integral", 0.6), (2, [], "multiplication", 0.2),
        (1, [1.5, 1.5], "multiplication", 0.7)])
    def test_matches_per_term_oracle(self, seed, n, p, m_in, m_out, terms):
        rng = np.random.default_rng(seed)
        gin = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, m_in)))
        gout = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, m_out)))
        X = CurveVec(gin, rng.normal(size=(n, m_in)))
        Z = CurveVec(gin, rng.normal(size=(p, m_in)))
        A = rng.normal(size=(n, m_out))
        d = np.array([t[3] for t in terms])
        d /= max(1.0, float(np.linalg.norm(d)))
        parts = [build_term_parts(BASE_POOL[b], f, kind, gout)
                 for b, f, kind, _ in terms]
        stack = KernelStack([OvKernelTerm(k, op, dk)
                             for (k, op), dk in zip(parts, d)])
        model = MovklModel(
            alpha=CurveVec(gout, A), weights=d, stack=stack, train_inputs=X,
            lam=0.1, objective_trace=[])

        want = np.zeros((p, m_out))
        bound = np.zeros((p, m_out))  # the same sum in absolute values
        w = gin.weights
        for (b, f, _, _), (kernel, op), dk in zip(terms, parts, d):
            G, M = oracle_gram(BASE_POOL[b], f, X.values, Z.values, w), op.matrix()
            want += dk * (G.T @ A) @ M.T
            bound += dk * (np.abs(G.T) @ np.abs(A)) @ np.abs(M.T)
            diag = np.diag(oracle_gram(BASE_POOL[b], f, X.values, X.values, w))
            factor = 1.0 / (diag.mean() * np.trace(M) / m_out)
            assert block_trace_normalized(kernel, op, X).factor == pytest.approx(
                factor, rel=1e-12)
        got = predict_many(model, Z).values
        tol = 1e-12 * max(bound.max(), 1e-300)
        assert np.abs(got - want).max() <= tol
        for j in range(p):
            assert np.abs(predict(model, Z[j]).values - got[j]).max() <= tol

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(path, model)
            doc = json.loads(path.read_text())
            loaded = load_model(path)
        assert set(doc) == ARCHIVE_KEYS
        assert "_plan" not in vars(loaded)
        assert np.array_equal(predict_many(loaded, Z).values, got)
        assert np.array_equal(predict(loaded, Z[0]).values, predict(model, Z[0]).values)


def plan_model(rng, weights=(0.3, 0.5, 0.2)):
    """A model over three terms on two base kernels, built directly."""
    X, Y = small_problem(rng, n=5)
    g = Y.grid
    stack = KernelStack([
        OvKernelTerm(GaussianKernel(0.8), IdentityOperator(g), weights[0]),
        OvKernelTerm(ScaledKernel(GaussianKernel(0.8), 2.0),
                     IntegralOperator(g, rank=2), weights[1]),
        OvKernelTerm(PolynomialKernel(2), MultiplicationOperator(g), weights[2]),
    ])
    return MovklModel(alpha=Y, weights=np.array(weights, dtype=float),
                      stack=stack, train_inputs=X, lam=0.1, objective_trace=[])


def rebuilt_copy(model):
    """A fresh model with the same fields, so no cached plan."""
    return MovklModel(alpha=model.alpha, weights=model.weights.copy(),
                      stack=model.stack, train_inputs=model.train_inputs,
                      lam=model.lam, objective_trace=[])


# a changed value of each field the plan is built from
CHANGED = {
    "alpha": lambda model: model.alpha * 2.0,
    "stack": lambda model: KernelStack(
        [OvKernelTerm(t.scalar, IdentityOperator(t.operator.grid), t.weight)
         for t in model.stack.terms]),
    "train_inputs": lambda model: model.train_inputs * 0.5,
    "weights": lambda model: model.weights * [1.0, 0.0, 1.0],
}


class TestPredictionPlan:
    def test_second_predict_reuses_plan(self, rng):
        model = plan_model(rng)
        assert "_plan" not in vars(model)
        q = random_curve(rng, model.input_grid)
        first = predict(model, q)
        plan = vars(model)["_plan"]
        assert isinstance(plan, movkl.learn.PredictionPlan)
        assert np.array_equal(predict(model, q).values, first.values)
        predict_many(model, random_curve_vec(rng, model.input_grid, 3))
        assert vars(model)["_plan"] is plan
        assert model.prediction_plan() is plan
        # two base kernels, each evaluated once; three operators, each with
        # its coefficient row (the Gaussian's 2.0 scale folded in) and the
        # rank-2 integral operator kept as thin factors
        assert [type(base) for base in plan.bases] == [GaussianKernel,
                                                       PolynomialKernel]
        assert np.array_equal(plan.coeffs, [[0.3, 0.0], [1.0, 0.0], [0.0, 0.2]])
        assert [right is None for _, right in plan.factors] == [True, False, True]
        left, right = plan.factors[1]
        assert left.shape == (5, 2) and right.shape == (2, model.output_grid.size)

    def test_fields_cannot_change(self, rng):
        model = plan_model(rng)
        predict(model, random_curve(rng, model.input_grid))
        for name in ("alpha", "stack", "train_inputs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, CHANGED[name](model))
        with pytest.raises(ValueError, match="read-only"):
            model.weights[1] = 0.0

    def test_weights_are_a_read_only_copy(self, rng):
        weights = np.array([0.3, 0.5, 0.2])
        model = dataclasses.replace(plan_model(rng), weights=weights)
        weights[1] = 0.0
        assert model.weights[1] == 0.5

    def test_stack_terms_cannot_change_in_place(self, rng):
        # a term swapped into the stack of a model that has predicted would
        # leave its plan stale
        model = plan_model(rng)
        q = random_curve(rng, model.input_grid)
        predict(model, q)
        term = OvKernelTerm(GaussianKernel(3.0), IdentityOperator(model.output_grid),
                            0.3)
        with pytest.raises(TypeError):
            model.stack.terms[0] = term
        # nor can the kernels and operators of its terms
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.stack.terms[1].scalar.factor = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.stack.terms[1].operator.rank = 3
        assert np.array_equal(predict(model, q).values,
                              predict(rebuilt_copy(model), q).values)

    @pytest.mark.parametrize("name", list(CHANGED))
    def test_replaced_model_builds_its_own_plan(self, rng, name):
        model = plan_model(rng)
        Z = random_curve_vec(rng, model.input_grid, 4)
        before = predict_many(model, Z).values
        changed = dataclasses.replace(model, **{name: CHANGED[name](model)})
        assert "_plan" not in vars(changed)
        after = predict_many(changed, Z).values
        assert not np.array_equal(after, before)
        assert np.array_equal(after, predict_many(rebuilt_copy(changed), Z).values)
        assert np.array_equal(predict(changed, Z[1]).values,
                              predict(rebuilt_copy(changed), Z[1]).values)
        assert np.array_equal(predict_many(model, Z).values, before)

    def test_loaded_model_has_no_plan(self, rng, tmp_path):
        model = plan_model(rng)
        q = random_curve(rng, model.input_grid)
        want = predict(model, q).values
        path = tmp_path / "model.json"
        save_model(path, model)
        assert set(json.loads(path.read_text())) == ARCHIVE_KEYS
        loaded = load_model(path)
        assert "_plan" not in vars(loaded)
        assert np.array_equal(predict(loaded, q).values, want)

    def test_unhashable_kernels_and_operators_fold(self, rng):
        # a subclass that defines __eq__ alone is unhashable; equal
        # instances must still fold into one base and one operator
        class EqGaussian(GaussianKernel):
            def __eq__(self, other):
                return GaussianKernel.__eq__(self, other)

        class EqIdentity(IdentityOperator):
            def __eq__(self, other):
                return IdentityOperator.__eq__(self, other)

        X, Y = small_problem(rng, n=5)
        model = MovklModel(
            alpha=Y, weights=np.array([0.3, 0.4]),
            stack=KernelStack([
                OvKernelTerm(EqGaussian(0.8), EqIdentity(Y.grid), 0.3),
                OvKernelTerm(EqGaussian(0.8), EqIdentity(Y.grid), 0.4)]),
            train_inputs=X, lam=0.1, objective_trace=[])
        plain = MovklModel(
            alpha=Y, weights=np.array([0.7]),
            stack=KernelStack([OvKernelTerm(GaussianKernel(0.8),
                                            IdentityOperator(Y.grid), 0.7)]),
            train_inputs=X, lam=0.1, objective_trace=[])
        Z = random_curve_vec(rng, X.grid, 3)
        got = predict_many(model, Z).values
        plan = model.prediction_plan()
        assert len(plan.bases) == 1 and len(plan.factors) == 1
        assert np.allclose(got, predict_many(plain, Z).values, rtol=1e-14, atol=0)

    def test_all_zero_weights_predict_exact_zero(self, rng):
        model = plan_model(rng, weights=(0.0, 0.0, 0.0))
        Z = random_curve_vec(rng, model.input_grid, 3)
        plan = model.prediction_plan()
        assert plan.bases == [] and plan.factors == []
        assert np.all(predict(model, Z[0]).values == 0.0)
        assert np.all(predict_many(model, Z).values == 0.0)

    @pytest.mark.parametrize("kind", ["zero weights", "one base", "mixed"])
    def test_evaluate_into_out(self, rng, kind):
        # out is filled and returned with the fresh array's bits; a plan with
        # no live term must still write its zeros
        model = (plan_model(rng, weights=(0.0, 0.0, 0.0)) if kind == "zero weights"
                 else pooled_model(rng, mixed=kind == "mixed"))
        plan = model.prediction_plan()
        assert len(plan.bases) == {"zero weights": 0, "one base": 1, "mixed": 4}[kind]
        Z = random_curve_vec(rng, model.input_grid, 6)
        for values in (Z.values, Z.values[2]):
            ip, sq = plan.stats.cross(Z.grid, values)
            want = plan.evaluate(ip, sq)
            buf = np.full(want.shape, np.nan)
            assert plan.evaluate(ip, sq, out=buf) is buf
            assert buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [2, movkl.learn.QUERY_BLOCK])
    def test_folding_matches_per_term_oracle(self, monkeypatch, block):
        # one base kernel under every operator kind, bare and scaled, with
        # two terms sharing an operator; blocks of 2 split the 5 queries
        monkeypatch.setattr(movkl.learn, "QUERY_BLOCK", block)
        rng = np.random.default_rng(7)
        gin = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, 6)))
        gout = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, 7)))
        X = CurveVec(gin, rng.normal(size=(4, 6)))
        Z = CurveVec(gin, rng.normal(size=(5, 6)))
        A = rng.normal(size=(4, 7))
        terms = [([], "identity", 0.3), ([2.5], "multiplication", 0.2),
                 ([0.4, 3.0], "integral rank 2", 0.25), ([1.7], "integral", 0.15),
                 ([0.6], "identity", 0.1)]
        spec = BASE_POOL[0]
        parts = [build_term_parts(spec, f, kind, gout) for f, kind, _ in terms]
        d = np.array([t[2] for t in terms])
        model = MovklModel(
            alpha=CurveVec(gout, A), weights=d,
            stack=KernelStack([OvKernelTerm(k, op, dk)
                               for (k, op), dk in zip(parts, d)]),
            train_inputs=X, lam=0.1, objective_trace=[])

        want = np.zeros((5, 7))
        bound = np.zeros((5, 7))
        for (f, _, _), (_, op), dk in zip(terms, parts, d):
            G = oracle_gram(spec, f, X.values, Z.values, gin.weights)
            M = op.matrix()
            want += dk * (G.T @ A) @ M.T
            bound += dk * (np.abs(G.T) @ np.abs(A)) @ np.abs(M.T)
        tol = 1e-12 * bound.max()
        got = predict_many(model, Z).values
        plan = model.prediction_plan()
        # one base kernel; four distinct operators, the identity shared
        assert len(plan.bases) == 1 and len(plan.factors) == 4
        assert np.abs(got - want).max() <= tol
        for j in range(Z.n):
            assert np.abs(predict(model, Z[j]).values - want[j]).max() <= tol


    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
           p=st.integers(1, 7), m_out=st.integers(3, 8),
           pool=st.lists(st.integers(0, len(BASE_POOL) - 1), min_size=1,
                         max_size=4, unique=True),
           terms=st.lists(st.tuples(
               st.integers(0, 3), st.lists(st.floats(0.2, 5.0), max_size=2),
               st.sampled_from(["identity", "multiplication", "integral",
                                "truncated"]),
               st.integers(1, 8),
               st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
               min_size=1, max_size=6),
           block=st.sampled_from([1, 2, movkl.learn.QUERY_BLOCK]))
    # a zero-weight term holds the only truncated operator
    @example(seed=4, n=3, p=5, m_out=6, pool=[0, 3], terms=[
        (0, [], "identity", 1, 0.5), (1, [2.0], "truncated", 2, 0.0),
        (1, [0.5, 3.0], "identity", 1, 0.3)], block=2)
    def test_operator_fold_matches_per_term_oracle(self, seed, n, p, m_out,
                                                   pool, terms, block):
        rng = np.random.default_rng(seed)
        gin = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, 5)))
        gout = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, m_out)))
        X = CurveVec(gin, rng.normal(size=(n, 5)))
        Z = CurveVec(gin, rng.normal(size=(p, 5)))
        A = rng.normal(size=(n, m_out))
        specs, ops, kernels = [], [], []
        for slot, factors, kind, rank, _ in terms:
            spec = BASE_POOL[pool[slot % len(pool)]]
            kernel, _ = build_term_parts(spec, factors, "identity", gout)
            # a rank of m_out or more is the full-rank operator
            ops.append(IntegralOperator(gout, rank=min(rank, m_out))
                       if kind == "truncated" else OPERATORS[kind](gout))
            specs.append((spec, factors))
            kernels.append(kernel)
        d = np.array([t[4] for t in terms])
        d /= max(1.0, float(np.linalg.norm(d)))
        model = MovklModel(
            alpha=CurveVec(gout, A), weights=d,
            stack=KernelStack([OvKernelTerm(k, op, dk)
                               for k, op, dk in zip(kernels, ops, d)]),
            train_inputs=X, lam=0.1, objective_trace=[])

        want = np.zeros((p, m_out))
        bound = np.zeros((p, m_out))
        for (spec, factors), op, dk in zip(specs, ops, d):
            G, M = oracle_gram(spec, factors, X.values, Z.values, gin.weights), op.matrix()
            want += dk * (G.T @ A) @ M.T
            bound += dk * (np.abs(G.T) @ np.abs(A)) @ np.abs(M.T)
        tol = 1e-12 * max(bound.max(), 1e-300)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(movkl.learn, "QUERY_BLOCK", block)
            got = predict_many(model, Z).values
        assert np.abs(got - want).max() <= tol
        for j in range(p):
            assert np.abs(predict(model, Z[j]).values - got[j]).max() <= tol

        # each base kernel and operator of a weighted term appears once
        plan = model.prediction_plan()
        used = [(spec, op) for (spec, _), op, dk in zip(specs, ops, d) if dk > 0]
        assert len(plan.bases) == len({spec for spec, _ in used})
        assert len(plan.factors) == len({op for _, op in used})
        assert plan.coeffs.shape == (len(plan.factors), len(plan.bases))
        for (left, right), op in zip(plan.factors, dict.fromkeys(op for _, op in used)):
            thin = isinstance(op, IntegralOperator) and op.rank is not None
            assert (right is not None) == thin
            assert left.shape == (n, op.rank if thin else m_out)


def stacked_predict_many(model, Z):
    """Serial block prediction through the model's plan, with every base
    kernel's values stacked by np.stack: the same arithmetic as the
    threaded, preallocated path, so the bits must agree."""
    plan = model.prediction_plan()
    rows = []
    for lo in range(0, Z.n, movkl.learn.QUERY_BLOCK):
        ip, sq = plan.stats.cross(Z.grid, Z.values[lo:lo + movkl.learn.QUERY_BLOCK])
        G = np.stack([plain_kernel_values(b, ip, sq) for b in plan.bases])
        H = (np.tensordot(plan.coeffs, G, axes=1) if len(plan.bases) > 1
             else [G[0]] * len(plan.factors))
        block = None
        for H_o, (left, right) in zip(H, plan.factors):
            part = H_o.T @ left
            if right is not None:
                part = part @ right
            block = part if block is None else block + part
        rows.append(block)
    return np.concatenate(rows)


def pooled_model(rng, mixed):
    """A one-base model, or a mixed one: a Gaussian and polynomials of
    degree 1-3, each scaled, under the identity, multiplication and a
    truncated integral operator."""
    X, Y = small_problem(rng, n=7, m_in=6, m_out=9)
    g = Y.grid
    kernels = [GaussianKernel(1.3)]
    if mixed:
        kernels += [PolynomialKernel(d, 0.5) for d in (1, 2, 3)]
    ops = [IdentityOperator(g), MultiplicationOperator(g),
           IntegralOperator(g, rank=3)]
    count = len(kernels) * len(ops)
    d = rng.uniform(0.05, 1.0, count)
    d /= np.linalg.norm(d)
    terms = [OvKernelTerm(ScaledKernel(k, f), op, dk)
             for (k, op), f, dk in zip(itertools.product(kernels, ops),
                                       rng.uniform(0.2, 3.0, count), d)]
    return MovklModel(alpha=Y, weights=d, stack=KernelStack(terms),
                      train_inputs=X, lam=0.1, objective_trace=[])


class TestPredictManyPool:
    """predict_many runs its query blocks on the thread engine, whose
    contract test_funcspace tests: the bits must not depend on the thread
    count, the caller's numpy error state must hold in the helpers, and no
    thread may outlive the call."""

    n = 3 * movkl.learn.QUERY_BLOCK + 17

    @pytest.mark.parametrize("mixed", [False, True])
    def test_bit_identical_for_any_worker_count(self, rng, monkeypatch, mixed):
        model = pooled_model(rng, mixed)
        Z = random_curve_vec(rng, model.input_grid, self.n)
        want = stacked_predict_many(model, Z)
        assert len(model.prediction_plan().bases) == (4 if mixed else 1)
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            got = predict_many(model, Z).values
            assert got.tobytes() == want.tobytes()

    def test_more_workers_than_cores_with_fast_switching(self, rng, monkeypatch):
        # 8 threads take 50 blocks of 16 rows from one shared list under
        # frequent thread switches: a lost or doubled take leaves a row
        # slice evaluated other than once, and a shared write changes bits
        force_workers(monkeypatch, 8)
        monkeypatch.setattr(movkl.learn, "QUERY_BLOCK", 16)
        evaluate = movkl.learn.PredictionPlan.evaluate
        taken = []

        def recording(plan, ip, sq_dist, out=None):
            taken.append(out.ctypes.data)
            return evaluate(plan, ip, sq_dist, out)

        monkeypatch.setattr(movkl.learn.PredictionPlan, "evaluate", recording)
        model = pooled_model(rng, mixed=True)
        Z = random_curve_vec(rng, model.input_grid, self.n)
        want = stacked_predict_many(model, Z)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = predict_many(model, Z).values
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()
        first_rows = sorted((address - got.ctypes.data) // got.strides[0]
                            for address in taken)
        assert first_rows == list(range(0, self.n, 16))

    def test_stalled_helper_does_not_hold_the_caller(self, rng, monkeypatch):
        # 2 threads over 6 blocks of 4 rows: the helper's first block waits
        # (up to 10 s) until the caller has evaluated every other block,
        # which the caller can do only if no window of blocks stops it
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(movkl.learn, "QUERY_BLOCK", 4)
        blocks = 6
        evaluate = movkl.learn.PredictionPlan.evaluate
        helper_began, others_done = threading.Event(), threading.Event()
        caller_blocks, waits = [], []

        def stalling(plan, ip, sq_dist, out=None):
            if threading.current_thread() is threading.main_thread():
                helper_began.wait(10.0)
                values = evaluate(plan, ip, sq_dist, out)
                caller_blocks.append(ip.shape[1])
                if len(caller_blocks) == blocks - 1:
                    others_done.set()
                return values
            if not helper_began.is_set():
                helper_began.set()
                waits.append(others_done.wait(10.0))
            return evaluate(plan, ip, sq_dist, out)

        monkeypatch.setattr(movkl.learn.PredictionPlan, "evaluate", stalling)
        model = pooled_model(rng, mixed=True)
        Z = random_curve_vec(rng, model.input_grid, blocks * 4)
        want = stacked_predict_many(model, Z)
        got = predict_many(model, Z).values
        assert waits == [True]
        assert caller_blocks == [4] * (blocks - 1)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def share_blocks(monkeypatch):
        """Make the calling thread's blocks wait (up to 10 s) until a helper
        thread has begun one, so that both run blocks; returns the numpy
        error states the blocks saw, keyed by whether the caller ran them."""
        seen = {True: [], False: []}
        helper_began = threading.Event()
        evaluate = movkl.learn.PredictionPlan.evaluate

        def sharing(plan, ip, sq_dist, out=None):
            caller = threading.current_thread() is threading.main_thread()
            if caller:
                helper_began.wait(10.0)
            else:
                helper_began.set()
            seen[caller].append(np.geterr())
            return evaluate(plan, ip, sq_dist, out)

        monkeypatch.setattr(movkl.learn.PredictionPlan, "evaluate", sharing)
        return seen

    def test_callers_error_state_holds_in_helpers(self, rng, monkeypatch):
        force_workers(monkeypatch, 2)
        seen = self.share_blocks(monkeypatch)
        model = plan_model(rng)
        Z = random_curve_vec(rng, model.input_grid, self.n)
        with np.errstate(all="ignore", over="raise", invalid="warn"):
            want = np.geterr()
            predict_many(model, Z)
        assert seen[True] and seen[False]
        assert all(state == want for state in seen[True] + seen[False])

    def overflowing(self, rng):
        # a cubic kernel on huge query curves overflows, in every block
        X, Y = small_problem(rng)
        model = MovklModel(
            alpha=Y, weights=np.ones(1),
            stack=KernelStack.uniform([(PolynomialKernel(3),
                                        IdentityOperator(Y.grid))]),
            train_inputs=X, lam=0.1, objective_trace=[])
        return model, random_curve_vec(rng, X.grid, self.n) * 1e120

    def test_callers_raise_state_holds_in_helpers(self, rng, monkeypatch):
        force_workers(monkeypatch, 2)
        self.share_blocks(monkeypatch)
        model, Z = self.overflowing(rng)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                predict_many(model, Z)

    def test_callers_ignore_state_holds_in_helpers(self, rng, monkeypatch):
        force_workers(monkeypatch, 2)
        self.share_blocks(monkeypatch)
        model, Z = self.overflowing(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="finite"):
                    predict_many(model, Z)

    def test_no_thread_left_after_return(self, rng, monkeypatch):
        force_workers(monkeypatch, 3)
        model = plan_model(rng)
        Z = random_curve_vec(rng, model.input_grid, self.n)
        before = threading.active_count()
        predict_many(model, Z)
        assert threading.active_count() == before

    def test_error_in_a_block_propagates_and_stops_the_rest(self, rng,
                                                           monkeypatch):
        # 8 blocks on the caller and one helper: the helper's first block
        # raises, and a block the caller has begun waits until the helper
        # has raised; after them no block may start
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(movkl.learn, "QUERY_BLOCK", 1)
        evaluate = movkl.learn.PredictionPlan.evaluate
        helper_failed = threading.Event()
        calls = []

        def failing(plan, ip, sq_dist, out=None):
            calls.append(threading.current_thread() is threading.main_thread())
            if not calls[-1]:
                helper_failed.set()
                raise RuntimeError("block failed")
            helper_failed.wait(10.0)
            # time for the engine to record the helper's failure
            time.sleep(0.05)
            return evaluate(plan, ip, sq_dist, out)

        monkeypatch.setattr(movkl.learn.PredictionPlan, "evaluate", failing)
        model = plan_model(rng)
        Z = random_curve_vec(rng, model.input_grid, 8)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            predict_many(model, Z)
        assert threading.active_count() == before
        # the helper's block, and at most the caller's one it had begun
        assert calls.count(False) == 1 and calls.count(True) <= 1

    def test_one_block_runs_inline(self, rng, monkeypatch):
        # one block is evaluated on the calling thread, with no other thread
        before = threading.active_count()
        evaluate = movkl.learn.PredictionPlan.evaluate
        seen = []

        def recording(plan, ip, sq_dist, out=None):
            seen.append((threading.current_thread() is threading.main_thread(),
                         threading.active_count()))
            return evaluate(plan, ip, sq_dist, out)

        monkeypatch.setattr(movkl.learn.PredictionPlan, "evaluate", recording)
        model = plan_model(rng)
        Z = random_curve_vec(rng, model.input_grid, movkl.learn.QUERY_BLOCK)
        got = predict_many(model, Z).values
        assert seen == [(True, before)]
        assert got.tobytes() == stacked_predict_many(model, Z).tobytes()


class TestModelArchive:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        X, Y = small_problem(rng)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (PolynomialKernel(2, 0.5), IntegralOperator(Y.grid, rank=3)),
             (GaussianKernel(0.4), MultiplicationOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.07))
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)

        assert np.array_equal(loaded.alpha.values, model.alpha.values)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.train_inputs.values, model.train_inputs.values)
        assert np.array_equal(loaded.input_grid.points, model.input_grid.points)
        assert loaded.lam == model.lam
        assert loaded.objective_trace == model.objective_trace
        assert model.solver_routes == ["pcg"] * model.outer_iterations
        assert loaded.solver_routes == model.solver_routes
        assert len(model.solver_residuals) == model.outer_iterations
        assert all(0.0 <= v <= TIGHT.outer_tol for v in model.solver_residuals)
        assert loaded.solver_residuals == model.solver_residuals
        assert len(model.duality_gaps) == model.outer_iterations > 1
        assert loaded.duality_gaps == model.duality_gaps

        q = random_curve(rng, X.grid)
        assert np.array_equal(predict(loaded, q).values,
                              predict(model, q).values)

        # a second save of the loaded model reproduces the bytes exactly
        path2 = tmp_path / "model2.json"
        save_model(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_archive_without_gaps_loads(self, rng, tmp_path):
        # archives written before the gap was recorded have no key for it
        X, Y = small_problem(rng)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(Y.grid)),
             (PolynomialKernel(2), MultiplicationOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.1))
        doc = movkl.learn.model_to_doc(model)
        assert doc["duality_gaps"] == model.duality_gaps != []
        del doc["duality_gaps"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.duality_gaps == []
        assert loaded.objective_trace == model.objective_trace

    def test_saved_bytes_match_json_dump_writer(self, rng, tmp_path):
        model = plan_model(rng)
        path = tmp_path / "model.json"
        save_model(path, model)
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(movkl.learn.model_to_doc(model), fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    def test_versioned_header(self, rng, tmp_path):
        X, Y = small_problem(rng)
        stack = KernelStack.uniform([(GaussianKernel(1.0),
                                      IdentityOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.5))
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["format"] == "movkl-model"
        assert doc["version"] == 1
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           scale=st.integers(-8, 8),
           extremes=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             max_size=4),
           weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           residuals=st.lists(st.floats(0.0, 1.0), max_size=3))
    @example(seed=0, n=2, scale=0, extremes=[5e-324, -0.0, 1.7976931348623157e308],
             weights=[0.0, 2.2250738585072014e-308, 0.5], residuals=[1e-13])
    def test_round_trip_property(self, seed, n, scale, extremes, weights,
                                 residuals):
        # alpha, weights and training inputs come back bit for bit, and the
        # reloaded model predicts the same values (or fails the same way)
        rng = np.random.default_rng(seed)
        gin = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, 5)))
        gout = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, 4)))
        alpha = rng.normal(size=(n, 4)) * 10.0 ** scale
        inputs = rng.normal(size=(n, 5))
        for k, v in enumerate(extremes):
            (alpha if k % 2 else inputs).flat[k] = v
        d = np.array(weights)
        d /= max(1.0, float(np.linalg.norm(d)))
        stack = KernelStack([
            OvKernelTerm(GaussianKernel(0.9), IdentityOperator(gout), d[0]),
            OvKernelTerm(ScaledKernel(PolynomialKernel(2), 0.3),
                         IntegralOperator(gout, rank=2), d[1]),
            OvKernelTerm(GaussianKernel(0.4), MultiplicationOperator(gout), d[2]),
        ])
        model = MovklModel(
            alpha=CurveVec(gout, alpha), weights=d, stack=stack,
            train_inputs=CurveVec(gin, inputs), lam=0.1,
            objective_trace=[1.0], outer_iterations=len(residuals),
            solver_iterations=[1] * len(residuals),
            solver_routes=["pcg"] * len(residuals),
            solver_residuals=residuals)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(path, model)
            loaded = load_model(path)
        assert loaded.alpha.values.tobytes() == model.alpha.values.tobytes()
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert (loaded.train_inputs.values.tobytes()
                == model.train_inputs.values.tobytes())
        assert loaded.solver_residuals == residuals

        def outcome(m):
            Z = CurveVec(gin, np.random.default_rng(seed).normal(size=(3, 5)))
            with np.errstate(all="ignore"):
                try:
                    return predict_many(m, Z).values
                except ValueError:
                    return None

        want, got = outcome(model), outcome(loaded)
        assert (want is None and got is None) or np.array_equal(got, want)

    def test_archive_without_residuals_loads(self, rng, tmp_path):
        # archives written before residuals were recorded still load
        X, Y = small_problem(rng)
        stack = KernelStack.uniform([(GaussianKernel(1.0),
                                      IntegralOperator(Y.grid, rank=3))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.5))
        assert len(model.solver_residuals) == 1
        assert 0.0 <= model.solver_residuals[0] <= 1e-10
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["solver_residuals"] == model.solver_residuals
        del doc["solver_residuals"]
        path.write_text(json.dumps(doc))
        assert load_model(path).solver_residuals == []

    def test_archive_without_routes_loads(self, rng, tmp_path):
        # archives written before routes were recorded still load
        X, Y = small_problem(rng)
        stack = KernelStack.uniform([(GaussianKernel(1.0),
                                      IdentityOperator(Y.grid))])
        model = movkl_fit(stack, X, Y, tight_cfg(0.5))
        assert model.solver_routes == ["pcg"]
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        # archives from before every stack took one route may name "kron"
        doc["solver_routes"] = ["kron"]
        path.write_text(json.dumps(doc))
        assert load_model(path).solver_routes == ["kron"]
        del doc["solver_routes"]
        path.write_text(json.dumps(doc))
        assert load_model(path).solver_routes == []
