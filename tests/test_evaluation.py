import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import movkl.evaluation
from movkl.kernels import CurveStats
from movkl import (
    CurveVec,
    CvSpec,
    DataError,
    FitConfig,
    GaussianKernel,
    Grid,
    IdentityOperator,
    IntegralOperator,
    KernelStack,
    MultiplicationOperator,
    PolynomialKernel,
    ScaledKernel,
    SolveConfig,
    lcr,
    loo_cv,
    movkl_fit,
    predict,
    rsse,
)
from conftest import random_curve_vec


@pytest.fixture
def gout():
    return Grid.uniform(0.0, 1.0, 11)


class TestRsse:
    def test_identical_curves(self, rng, gout):
        a = random_curve_vec(rng, gout, 4)
        assert rsse(a, a) == 0.0

    def test_constant_unit_error(self, gout):
        truth = CurveVec(gout, np.zeros((1, 11)))
        pred = CurveVec(gout, np.ones((1, 11)))
        assert rsse(truth, pred) == pytest.approx(1.0, abs=1e-12)

    def test_flat_sum_oracle(self, rng, gout):
        truth = random_curve_vec(rng, gout, 5)
        pred = random_curve_vec(rng, gout, 5)
        oracle = 0.0
        for i in range(5):
            for j in range(11):
                oracle += gout.weights[j] * (truth.values[i, j]
                                             - pred.values[i, j]) ** 2
        assert rsse(truth, pred) == pytest.approx(oracle, abs=1e-12)

    def test_permutation_invariance(self, rng, gout):
        truth = random_curve_vec(rng, gout, 6)
        pred = random_curve_vec(rng, gout, 6)
        perm = rng.permutation(6)
        assert rsse(truth, pred) == pytest.approx(
            rsse(CurveVec(gout, truth.values[perm]),
                 CurveVec(gout, pred.values[perm])), rel=1e-14)

    def test_shape_mismatch(self, rng, gout):
        with pytest.raises(Exception):
            rsse(random_curve_vec(rng, gout, 3), random_curve_vec(rng, gout, 4))


def step_labels(gout, rng, n):
    vals = (rng.random((n, gout.size)) > 0.5).astype(float)
    return CurveVec(gout, vals)


class TestLcr:
    def test_perfect_recovery(self, rng, gout):
        labels = step_labels(gout, rng, 3)
        assert lcr(labels, labels) == 100.0

    def test_complement_scores_zero(self, rng, gout):
        labels = step_labels(gout, rng, 3)
        flipped = CurveVec(gout, 1.0 - labels.values)
        assert lcr(labels, flipped) == 0.0

    def test_half_flipped(self, gout):
        n, m = 2, 11
        labels = CurveVec(gout, np.zeros((n, m)))
        pred_vals = np.zeros((n, m))
        pred_vals[0, :] = 1.0       # first curve entirely wrong
        pred = CurveVec(gout, pred_vals)
        assert lcr(labels, pred) == pytest.approx(50.0)

    def test_threshold_is_inclusive(self, gout):
        labels = CurveVec(gout, np.ones((1, 11)))
        pred = CurveVec(gout, np.full((1, 11), 0.5))
        assert lcr(labels, pred, threshold=0.5) == 100.0

    def test_non_binary_labels_rejected(self, gout):
        bad = CurveVec(gout, np.full((1, 11), 0.25))
        pred = CurveVec(gout, np.zeros((1, 11)))
        with pytest.raises(DataError):
            lcr(bad, pred)


def tiny_task(rng, n=6):
    # smooth targets driven by the input curves so that a moderate ridge
    # generalizes and an extreme one oversmooths
    gin = Grid.uniform(0, 1, 8)
    gout = Grid.uniform(0, 1, 7)
    X = random_curve_vec(rng, gin, n)
    mix = rng.normal(size=(8, 7))
    Y = CurveVec(gout, np.tanh(X.values @ mix / 4.0))
    return X, Y


def cv_setup(gout):
    def builder(rank):
        return KernelStack.uniform(
            [(GaussianKernel(1.0),
              IdentityOperator(gout) if rank is None
              else IntegralOperator(gout, rank=rank))])
    return builder


class TestLooCv:
    def make_cfg(self):
        return FitConfig(lam=1.0, r=2.0, mkl_tol=1e-6, mkl_max_iter=50,
                         solve=SolveConfig())

    def test_single_candidate(self, rng):
        X, Y = tiny_task(rng)
        builder = cv_setup(Y.grid)
        lam, rank, table = loo_cv(builder, X, Y, CvSpec(lambda_grid=[0.5]),
                                  self.make_cfg())
        assert lam == 0.5
        assert rank is None
        assert len(table) == 1 and table[0].valid
        assert table[0].cv_rsse >= 0.0

    def test_duplicated_candidates_tie_break(self, rng):
        X, Y = tiny_task(rng)
        builder = cv_setup(Y.grid)
        lam, rank, table = loo_cv(builder, X, Y,
                                  CvSpec(lambda_grid=[0.5, 0.5]),
                                  self.make_cfg())
        assert lam == 0.5
        assert table[0].cv_rsse == table[1].cv_rsse

    def test_oversmoothed_candidate_loses(self, rng):
        X, Y = tiny_task(rng)
        builder = cv_setup(Y.grid)
        lam, rank, table = loo_cv(builder, X, Y,
                                  CvSpec(lambda_grid=[1e-2, 1e6]),
                                  self.make_cfg())
        assert lam == 1e-2
        by_lam = {c.lam: c.cv_rsse for c in table}
        assert by_lam[1e-2] < by_lam[1e6]

    def test_fold_recomputation_oracle(self, rng):
        # recompute each candidate's accumulated error with direct fits
        X, Y = tiny_task(rng, n=5)
        builder = cv_setup(Y.grid)
        spec = CvSpec(lambda_grid=[0.05, 5.0])
        cfg = self.make_cfg()
        _, _, table = loo_cv(builder, X, Y, spec, cfg)
        for cand in table:
            total = 0.0
            for i in range(X.n):
                keep = [j for j in range(X.n) if j != i]
                model = movkl_fit(
                    builder(cand.rank),
                    CurveVec(X.grid, X.values[keep]),
                    CurveVec(Y.grid, Y.values[keep]),
                    FitConfig(lam=cand.lam, r=cfg.r, mkl_tol=cfg.mkl_tol,
                              mkl_max_iter=cfg.mkl_max_iter, solve=cfg.solve),
                )
                pred = predict(model, X[i])
                total += rsse(CurveVec(Y.grid, Y.values[i][None, :]),
                              CurveVec(Y.grid, pred.values[None, :]))
            assert cand.cv_rsse == pytest.approx(total, rel=1e-12)

    def test_rank_grid_selection(self, rng):
        X, Y = tiny_task(rng, n=5)
        builder = cv_setup(Y.grid)
        spec = CvSpec(lambda_grid=[0.1], rank_grid=[2, 5])
        lam, rank, table = loo_cv(builder, X, Y, spec, self.make_cfg())
        assert rank in (2, 5)
        assert len(table) == 2

    def test_determinism(self, rng):
        X, Y = tiny_task(rng)
        builder = cv_setup(Y.grid)
        spec = CvSpec(lambda_grid=[0.1, 1.0])
        first = loo_cv(builder, X, Y, spec, self.make_cfg())
        second = loo_cv(builder, X, Y, spec, self.make_cfg())
        assert first[0] == second[0] and first[1] == second[1]
        assert [c.cv_rsse for c in first[2]] == [c.cv_rsse for c in second[2]]

    def test_needs_two_curves(self, rng):
        gin = Grid.uniform(0, 1, 5)
        gout = Grid.uniform(0, 1, 5)
        X = random_curve_vec(rng, gin, 1)
        Y = random_curve_vec(rng, gout, 1)
        with pytest.raises(ValueError):
            loo_cv(cv_setup(gout), X, Y, CvSpec(lambda_grid=[1.0]),
                   self.make_cfg())

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CvSpec(lambda_grid=[])
        with pytest.raises(ValueError):
            CvSpec(lambda_grid=[1.0], rank_grid=[])
        with pytest.raises(ValueError):
            CvSpec(lambda_grid=[-1.0])

    @pytest.mark.parametrize("lams", [[float("nan")], [0.1, float("inf")],
                                      [-float("inf")]])
    def test_non_finite_lambda_rejected(self, lams):
        with pytest.raises(ValueError, match="finite"):
            CvSpec(lambda_grid=lams)

    @pytest.mark.parametrize("rank", [2.5, True, "3", 0])
    def test_non_integral_rank_rejected(self, rank):
        with pytest.raises(ValueError, match="rank candidate"):
            CvSpec(lambda_grid=[1.0], rank_grid=[None, rank])

    def test_integral_ranks_become_int(self):
        spec = CvSpec(lambda_grid=[1.0], rank_grid=[3.0, None, np.int64(2)])
        assert spec.rank_grid == [3, None, 2]
        assert type(spec.rank_grid[0]) is int and type(spec.rank_grid[2]) is int


CV_OPERATORS = {
    "identity": IdentityOperator,
    "multiplication": MultiplicationOperator,
    "integral rank 1": lambda grid: IntegralOperator(grid, rank=1),
    "integral rank 2": lambda grid: IntegralOperator(grid, rank=2),
    "integral rank m - 1": lambda grid: IntegralOperator(grid, rank=grid.size - 1),
    "integral": IntegralOperator,
}
# r = inf stacks draw their terms from this pool; nested scales included
CV_KERNELS = [GaussianKernel(1.0), ScaledKernel(GaussianKernel(0.5), 2.0),
              ScaledKernel(ScaledKernel(PolynomialKernel(2), 0.5), 0.2)]


def no_fold_fit(*args):
    raise AssertionError("a closed-form candidate must not refit folds")


class TestClosedFormCv:
    """The closed-form table of fixed-weight single-operator stacks against
    the fold-refit oracle ``movkl.evaluation._refit_scores``."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 12),
           m_out=st.integers(3, 9), kind=st.sampled_from(sorted(CV_OPERATORS)),
           terms=st.lists(st.integers(0, len(CV_KERNELS) - 1), min_size=1,
                          max_size=3),
           log_lams=st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=3))
    @example(seed=1, n=3, m_out=5, kind="identity", terms=[0], log_lams=[-4.0, 2.0])
    @example(seed=2, n=12, m_out=9, kind="multiplication", terms=[1],
             log_lams=[-4.0, -2.0, 2.0])
    @example(seed=3, n=7, m_out=6, kind="integral rank 2", terms=[0],
             log_lams=[-3.0, 0.0])
    @example(seed=4, n=9, m_out=8, kind="integral", terms=[0], log_lams=[-4.0, 1.0])
    @example(seed=5, n=8, m_out=7, kind="integral rank 2", terms=[0, 2, 1],
             log_lams=[-4.0, -1.0, 2.0])
    # the null space of a truncated operator is m - 1 directions wide here,
    # one direction wide in the next
    @example(seed=6, n=10, m_out=9, kind="integral rank 1", terms=[1, 0],
             log_lams=[-4.0, 0.0, 2.0])
    @example(seed=7, n=6, m_out=9, kind="integral rank m - 1", terms=[2],
             log_lams=[-4.0, -2.0, 1.0])
    def test_matches_fold_refits(self, seed, n, m_out, kind, terms, log_lams):
        rng = np.random.default_rng(seed)
        gin = Grid.uniform(0.0, 1.0, 6)
        gout = Grid.from_points(np.cumsum(rng.uniform(0.05, 0.4, m_out)))
        X = CurveVec(gin, rng.normal(size=(n, 6)))
        Y = CurveVec(gout, rng.normal(size=(n, m_out)))
        op = CV_OPERATORS[kind](gout)
        stack = KernelStack.uniform([(CV_KERNELS[k], op) for k in terms],
                                    norm_exponent=math.inf)
        # one term keeps its weight under any r; several need r = inf
        cfg = FitConfig(lam=1.0, r=2.0 if len(terms) == 1 else math.inf)
        lams = [10.0 ** e for e in log_lams]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(movkl.evaluation, "movkl_fit", no_fold_fit)
            _, _, table = loo_cv(lambda rank: stack, X, Y,
                                 CvSpec(lambda_grid=lams), cfg)
        want = movkl.evaluation._refit_scores(stack, X, Y, lams, cfg)
        for cand, ref in zip(table, want):
            assert cand.valid
            rel = 1e-12 if cand.lam >= 1e-2 else 1e-9
            assert cand.cv_rsse == pytest.approx(ref, rel=rel)

    def test_statistics_built_once_per_call(self, rng, monkeypatch):
        gout = Grid.uniform(0.0, 1.0, 80)
        X = random_curve_vec(rng, Grid.uniform(0.0, 1.0, 12), 8)
        Y = random_curve_vec(rng, gout, 8)

        def builder(rank):
            return KernelStack.uniform(
                [(GaussianKernel(1.0), IntegralOperator(gout, rank=rank))])

        spec = CvSpec(lambda_grid=[1e-3, 0.1, 1.0], rank_grid=[5, 10, 20])
        built = []
        init = CurveStats.__init__

        def counting(self, xs):
            built.append(xs)
            init(self, xs)

        with monkeypatch.context() as mp:
            mp.setattr(CurveStats, "__init__", counting)
            mp.setattr(movkl.evaluation, "movkl_fit", no_fold_fit)
            _, _, table = loo_cv(builder, X, Y, spec, FitConfig())
        assert len(built) == 1
        # the same table with the statistics rebuilt for every rank
        assemble = movkl.evaluation.assemble_gram
        monkeypatch.setattr(movkl.evaluation, "assemble_gram",
                            lambda stack, inputs, pairs: assemble(stack, inputs))
        _, _, per_rank = loo_cv(builder, X, Y, spec, FitConfig())
        assert ([(c.lam, c.rank, c.cv_rsse) for c in table]
                == [(c.lam, c.rank, c.cv_rsse) for c in per_rank])

    def test_fold_fits_follow_the_route(self, rng, monkeypatch):
        X, Y = tiny_task(rng, n=6)
        gout = Y.grid
        fits = []
        refit = movkl.evaluation.movkl_fit

        def counting(*args):
            fits.append(1)
            return refit(*args)

        monkeypatch.setattr(movkl.evaluation, "movkl_fit", counting)
        spec = CvSpec(lambda_grid=[0.1, 1.0])
        shared = [(GaussianKernel(1.0), IdentityOperator(gout)),
                  (PolynomialKernel(1), IdentityOperator(gout))]
        mixed = [(GaussianKernel(1.0), IdentityOperator(gout)),
                 (GaussianKernel(1.0), MultiplicationOperator(gout))]
        cases = [
            (KernelStack.uniform(shared[:1]), 2.0, 0),
            (KernelStack.uniform(shared, norm_exponent=math.inf), math.inf, 0),
            (KernelStack.uniform(shared), 2.0, X.n),
            (KernelStack.uniform(mixed, norm_exponent=math.inf), math.inf, X.n),
        ]
        for stack, r, per_candidate in cases:
            fits.clear()
            _, _, table = loo_cv(lambda rank: stack, X, Y, spec, FitConfig(r=r))
            assert len(fits) == per_candidate * len(table)
