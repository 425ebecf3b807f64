import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movkl import (
    BlockGram,
    CapacityError,
    Curve,
    CurveVec,
    GaussianKernel,
    Grid,
    IdentityOperator,
    IntegralOperator,
    KernelStack,
    MultiplicationOperator,
    OvKernelTerm,
    PolynomialKernel,
    SolveConfig,
    SolverError,
    assemble_gram,
    block_solve,
    dense_solve,
    gauss_seidel_solve,
    kron_solve,
    median_pairwise_distance,
    solve_route,
    structured_solve,
    vec_norm,
)
from conftest import random_curve, random_curve_vec

OPERATOR_KINDS = ["identity", "multiplication", "integral", "integral_truncated"]


def make_operator(kind, grid):
    if kind == "identity":
        return IdentityOperator(grid)
    if kind == "multiplication":
        return MultiplicationOperator(grid)
    if kind == "integral":
        return IntegralOperator(grid)
    return IntegralOperator(grid, rank=max(2, grid.size // 2))


def random_stack(rng, gout, M, op_kinds=None):
    pairs = []
    for _ in range(M):
        if rng.random() < 0.5:
            scalar = GaussianKernel(float(rng.uniform(0.5, 2.0)))
        else:
            scalar = PolynomialKernel(int(rng.integers(1, 4)), 1.0)
        kind = op_kinds[int(rng.integers(len(op_kinds)))] if op_kinds \
            else OPERATOR_KINDS[int(rng.integers(len(OPERATOR_KINDS)))]
        pairs.append((scalar, make_operator(kind, gout)))
    d = rng.uniform(0.2, 1.0, M)
    d = d / np.sqrt(np.sum(d ** 2))
    return KernelStack([OvKernelTerm(s, op, w) for (s, op), w in zip(pairs, d)])


def random_system(rng, n, m, M, op_kinds=None):
    gin = Grid.uniform(0.0, 1.0, m + 2)
    gout = Grid.uniform(0.0, 1.0, m)
    X = random_curve_vec(rng, gin, n)
    Y = random_curve_vec(rng, gout, n)
    stack = random_stack(rng, gout, M, op_kinds)
    return assemble_gram(stack, X), Y


def identity_unit_gram(gout, n=1):
    # block Gram with G = I_n and the identity operator, weight 1
    return BlockGram([np.eye(n)], [IdentityOperator(gout)], [1.0], gout)


class TestDenseSolve:
    def test_trivial_identity(self, rng):
        gout = Grid.uniform(0, 1, 5)
        y = random_curve_vec(rng, gout, 1)
        alpha, report = dense_solve(identity_unit_gram(gout), 1.0, y)
        assert np.allclose(alpha.values, y.values / 2.0, atol=1e-14)
        assert report.converged

    def test_zero_weights_pure_ridge(self, rng):
        gout = Grid.uniform(0, 1, 4)
        gram = BlockGram([np.eye(3)], [IntegralOperator(gout)], [0.0], gout)
        y = random_curve_vec(rng, gout, 3)
        alpha, _ = dense_solve(gram, 0.25, y)
        assert np.allclose(alpha.values, y.values / 0.25, atol=1e-12)

    def test_residual_self_check(self, rng):
        gram, y = random_system(rng, 3, 4, 2)
        alpha, report = dense_solve(gram, 0.3, y)
        resid = y.values - gram.apply(alpha).values - 0.3 * alpha.values
        rel = np.sqrt(np.sum((resid ** 2) @ gram.grid.weights)) / vec_norm(y)
        assert rel <= 1e-10
        assert report.final_residual == pytest.approx(rel, abs=1e-14)

    def test_capacity_guard(self, rng):
        gout = Grid.uniform(0, 1, 101)
        gram = BlockGram([np.eye(51)], [IdentityOperator(gout)], [1.0], gout)
        y = random_curve_vec(rng, gout, 51)
        with pytest.raises(CapacityError):
            dense_solve(gram, 1.0, y)

    def test_rejects_nonpositive_ridge(self, rng):
        gout = Grid.uniform(0, 1, 4)
        y = random_curve_vec(rng, gout, 1)
        with pytest.raises(ValueError):
            dense_solve(identity_unit_gram(gout), 0.0, y)


class TestKronSolve:
    def test_identity_gram_identity_operator(self, rng):
        gout = Grid.uniform(0, 1, 6)
        gram = identity_unit_gram(gout, n=3)
        y = random_curve_vec(rng, gout, 3)
        alpha, report = kron_solve(gram, 1.0, y)
        assert np.allclose(alpha.values, y.values / 2.0, atol=1e-12)
        assert report.converged

    def test_n1_reduces_to_shifted_solve(self, rng):
        gout = Grid.uniform(0, 1, 8)
        op = IntegralOperator(gout, rank=5)
        g11 = 0.6
        gram = BlockGram([np.array([[g11]])], [op], [1.0], gout)
        y = random_curve_vec(rng, gout, 1)
        alpha, _ = kron_solve(gram, 0.2, y)
        direct = op.shifted_solve(0.2, g11, y[0])
        assert np.allclose(alpha.values[0], direct.values, atol=1e-10)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_matches_dense(self, rng, kind):
        gout = Grid.uniform(0, 1, 8)
        gin = Grid.uniform(0, 1, 9)
        X = random_curve_vec(rng, gin, 6)
        op = make_operator(kind, gout)
        stack = KernelStack([
            OvKernelTerm(GaussianKernel(1.0), op, 0.6),
            OvKernelTerm(PolynomialKernel(2), op, 0.4),
        ])
        gram = assemble_gram(stack, X)
        y = random_curve_vec(rng, gout, 6)
        ak, _ = kron_solve(gram, 0.05, y)
        ad, _ = dense_solve(gram, 0.05, y)
        assert vec_norm(ak - ad) <= 1e-8 * vec_norm(ad)

    def test_mixed_operators_rejected(self, rng):
        gout = Grid.uniform(0, 1, 5)
        gram, y = random_system(rng, 3, 5, 2, op_kinds=["identity", "integral"])
        if len(gram.merged_groups) == 1:
            pytest.skip("draw produced a shared operator")
        with pytest.raises(SolverError, match="gauss_seidel"):
            kron_solve(gram, 0.1, y)

    @pytest.mark.parametrize("second, route", [
        (lambda grid: IntegralOperator(grid, rank=2), "structured"),
        (IntegralOperator, "gauss_seidel"),
    ])
    def test_mixed_operators_error_names_route(self, rng, second, route):
        gout = Grid.uniform(0, 1, 5)
        gram = BlockGram([np.eye(3), np.eye(3)],
                         [IdentityOperator(gout), second(gout)], [0.5, 0.5], gout)
        assert solve_route(gram) == route
        with pytest.raises(SolverError, match=f"use {route}_solve "):
            kron_solve(gram, 0.1, random_curve_vec(rng, gout, 3))

    def test_all_zero_weights(self, rng):
        gout = Grid.uniform(0, 1, 4)
        gram = BlockGram([np.eye(2), np.eye(2)],
                         [IdentityOperator(gout), IntegralOperator(gout)],
                         [0.0, 0.0], gout)
        y = random_curve_vec(rng, gout, 2)
        alpha, _ = kron_solve(gram, 0.5, y)
        assert np.allclose(alpha.values, y.values / 0.5)


class TestGaussSeidel:
    def test_trivial_single_block_one_sweep(self, rng):
        gout = Grid.uniform(0, 1, 5)
        gram = identity_unit_gram(gout)
        y = random_curve_vec(rng, gout, 1)
        alpha, report = gauss_seidel_solve(gram, 1.0, y)
        assert np.allclose(alpha.values, y.values / 2.0, atol=1e-12)
        assert report.iterations == 1
        assert report.converged
        ad, _ = dense_solve(gram, 1.0, y)
        assert np.allclose(alpha.values, ad.values, atol=1e-12)

    def test_zero_rhs_one_sweep(self):
        gout = Grid.uniform(0, 1, 5)
        gram = identity_unit_gram(gout, n=3)
        y = CurveVec.zero(gout, 3)
        alpha, report = gauss_seidel_solve(gram, 0.7, y)
        assert np.all(alpha.values == 0.0)
        assert report.iterations == 1
        assert report.converged

    def test_mixed_three_operators_matches_dense(self, rng):
        gin = Grid.uniform(0, 1, 7)
        gout = Grid.uniform(0, 1, 6)
        X = random_curve_vec(rng, gin, 5)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(gout)),
             (GaussianKernel(0.7), MultiplicationOperator(gout)),
             (PolynomialKernel(1), IntegralOperator(gout))])
        gram = assemble_gram(stack, X)
        y = random_curve_vec(rng, gout, 5)
        ag, report = gauss_seidel_solve(gram, 0.1, y)
        ad, _ = dense_solve(gram, 0.1, y)
        assert vec_norm(ag - ad) <= 1e-6 * vec_norm(ad)
        assert report.converged

    def test_oracle_equivalence_random_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(4, 11))
            M = int(rng.integers(1, 4))
            gram, y = random_system(rng, n, m, M)
            ridge = float(10.0 ** rng.uniform(-2, 0))
            ad, _ = dense_solve(gram, ridge, y)
            ag, rg = gauss_seidel_solve(gram, ridge, y)
            assert vec_norm(ag - ad) <= 1e-6 * max(vec_norm(ad), 1e-12)
            if rg.converged:
                assert rg.final_residual <= 1e-8
            if len(gram.merged_groups) <= 1:
                ak, _ = kron_solve(gram, ridge, y)
                assert vec_norm(ak - ad) <= 1e-6 * max(vec_norm(ad), 1e-12)

    def test_monotone_residual_across_sweeps(self, rng):
        step_cfg = SolveConfig(outer_tol=1e-300, outer_max_iter=1)
        for trial in range(10):
            gram, y = random_system(rng, 4, 6, 3)
            ridge = float(10.0 ** rng.uniform(-2, 0))
            warm = None
            residuals = []
            for _ in range(12):
                warm, report = gauss_seidel_solve(gram, ridge, y, step_cfg,
                                                  warm=warm)
                residuals.append(report.final_residual)
            for prev, cur in zip(residuals, residuals[1:]):
                assert cur <= prev * (1.0 + 1e-9)

    def test_warm_start_with_exact_solution(self, rng):
        gram, y = random_system(rng, 4, 5, 2)
        exact, _ = dense_solve(gram, 0.2, y)
        alpha, report = gauss_seidel_solve(gram, 0.2, y, warm=exact)
        assert report.iterations <= 2
        assert report.converged
        assert vec_norm(alpha - exact) <= 1e-8 * vec_norm(exact)

    def test_linearity_in_rhs(self, rng):
        gram, y1 = random_system(rng, 3, 5, 2)
        y2 = random_curve_vec(rng, y1.grid, 3)
        cfg = SolveConfig(outer_tol=1e-12)
        a1, _ = gauss_seidel_solve(gram, 0.3, y1, cfg)
        a2, _ = gauss_seidel_solve(gram, 0.3, y2, cfg)
        a12, _ = gauss_seidel_solve(gram, 0.3, y1 + y2, cfg)
        assert vec_norm(a12 - (a1 + a2)) <= 1e-8 * max(vec_norm(a12), 1.0)

    def test_small_multiplication_full_integral_matches_dense(self, rng, caplog):
        # blocks of a small multiplication scale and a large full-rank integral
        # operator, a mix on which the paper's variable splitting stalls
        gin = Grid.uniform(0, 1, 30)
        gout = Grid.uniform(0, 1, 200)
        X = random_curve_vec(rng, gin, 20)
        G = GaussianKernel(0.5 * median_pairwise_distance(X)).gram(X)
        gram = BlockGram([G, G], [MultiplicationOperator(gout), IntegralOperator(gout)],
                         [0.05, 2.0], gout)
        y = random_curve_vec(rng, gout, 20)
        ag, report = gauss_seidel_solve(gram, 1e-3, y, SolveConfig(outer_tol=1e-10))
        ad, _ = dense_solve(gram, 1e-3, y)
        assert report.converged
        assert vec_norm(ag - ad) <= 1e-8 * vec_norm(ad)
        assert caplog.records == []

    def test_cap_without_convergence_reports_false(self, rng):
        gram, y = random_system(rng, 5, 6, 3)
        cfg = SolveConfig(outer_tol=1e-14, outer_max_iter=1)
        _, report = gauss_seidel_solve(gram, 1e-3, y, cfg)
        if not report.converged:
            assert report.final_residual > cfg.outer_tol
        assert report.iterations == 1


class TestSplitBlockSolve:
    def test_single_identity_term(self, rng):
        gout = Grid.uniform(0, 1, 5)
        s = random_curve(rng, gout)
        u = block_solve([(1.0, IdentityOperator(gout))], 1.0, s)
        assert np.allclose(u.values, s.values / 2.0)

    def test_all_zero_scalars(self, rng):
        gout = Grid.uniform(0, 1, 5)
        s = random_curve(rng, gout)
        u = block_solve([(0.0, IntegralOperator(gout)),
                                 (0.0, MultiplicationOperator(gout))], 0.4, s)
        assert np.allclose(u.values, s.values / 0.4)

    def test_two_operators_match_dense(self, rng):
        gout = Grid.uniform(0, 1, 31)
        mult = MultiplicationOperator(gout)
        integ = IntegralOperator(gout)
        terms = [(0.8, mult), (0.5, integ)]
        s = random_curve(rng, gout)
        u = block_solve(terms, 0.05, s)
        A = 0.8 * mult.matrix() + 0.5 * integ.matrix() + 0.05 * np.eye(31)
        expected = np.linalg.solve(A, s.values)
        assert np.linalg.norm(u.values - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_three_operators_match_dense(self, rng):
        gout = Grid.uniform(0, 1, 17)
        ops = [(0.4, IdentityOperator(gout)),
               (0.7, MultiplicationOperator(gout)),
               (0.3, IntegralOperator(gout, rank=9))]
        s = random_curve(rng, gout)
        u = block_solve(ops, 0.02, s)
        A = sum(c * op.matrix() for c, op in ops) + 0.02 * np.eye(17)
        expected = np.linalg.solve(A, s.values)
        assert np.linalg.norm(u.values - expected) <= 1e-7 * np.linalg.norm(expected)

    def test_negative_scalar_rejected(self, rng):
        gout = Grid.uniform(0, 1, 5)
        with pytest.raises(ValueError):
            block_solve([(-0.1, IdentityOperator(gout))], 1.0,
                        random_curve(rng, gout))


BLOCK_KINDS = ["identity", "multiplication", "integral", "integral_r3", "integral_r5"]


def block_operator(kind, grid):
    # a fresh instance per term, so equal operators arrive as distinct objects
    if kind.startswith("integral_r"):
        return IntegralOperator(grid, rank=min(int(kind[10:]), grid.size))
    return make_operator(kind, grid)


class TestSplitBlockSolveProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.one_of(st.integers(2, 16), st.integers(65, 72), st.integers(150, 200)),
        uneven=st.booleans(),
        terms=st.lists(
            st.tuples(st.sampled_from(BLOCK_KINDS),
                      st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
            min_size=1, max_size=5),
        ridge=st.floats(0.01, 1.0),
        seed=st.integers(0, 2 ** 16),
    )
    # equal but distinct instances, merged into one group
    @example(m=9, uneven=False, terms=[("multiplication", 0.3), ("multiplication", 0.4),
                                       ("integral_r3", 0.5)], ridge=0.1, seed=1)
    # zero scales drop out
    @example(m=8, uneven=False, terms=[("integral", 0.0), ("multiplication", 0.0),
                                       ("integral_r3", 0.6)], ridge=0.2, seed=2)
    # identity only: a pure shift
    @example(m=7, uneven=False, terms=[("identity", 0.7), ("identity", 0.2)],
             ridge=0.3, seed=3)
    # two integral ranks share one capacitance system
    @example(m=12, uneven=True, terms=[("integral_r3", 0.8), ("integral_r5", 0.6)],
             ridge=0.05, seed=4)
    # full-rank integral beside multiplication: one tridiagonal solve
    @example(m=70, uneven=False, terms=[("multiplication", 0.9), ("integral", 0.4)],
             ridge=0.05, seed=5)
    # every kind at once on an uneven grid
    @example(m=200, uneven=True,
             terms=[("identity", 0.3), ("multiplication", 0.9), ("integral", 0.5),
                    ("integral_r3", 0.7), ("integral_r5", 0.2)], ridge=0.02, seed=6)
    # two points: the smallest tridiagonal system
    @example(m=2, uneven=True, terms=[("multiplication", 0.4), ("integral", 0.6)],
             ridge=0.05, seed=8)
    # small multiplication scale, large full-rank integral and a tiny ridge
    @example(m=200, uneven=False,
             terms=[("multiplication", 0.05), ("integral", 1.0), ("integral_r5", 0.3)],
             ridge=1e-3, seed=7)
    def test_matches_dense_block(self, m, uneven, terms, ridge, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, m) if uneven else Grid.uniform(0.0, 1.0, m)
        pairs = [(scale, block_operator(kind, grid)) for kind, scale in terms]
        s = random_curve(rng, grid)
        u = block_solve(pairs, ridge, s)
        A = sum(c * op.matrix() for c, op in pairs) + ridge * np.eye(m)
        expected = np.linalg.solve(A, s.values)
        assert np.linalg.norm(u.values - expected) <= 1e-10 * np.linalg.norm(expected)


STRUCTURED_KINDS = ["identity", "multiplication", "integral_r3", "integral_r5"]


def random_grid(rng, m):
    # uneven points and weights, spanning the slope of exp(-t^2)
    points = np.cumsum(rng.uniform(0.05, 0.5, m)) - 1.0
    return Grid(points, rng.uniform(0.05, 0.5, m))


def structured_system(m, n, terms, seed):
    rng = np.random.default_rng(seed)
    gout = random_grid(rng, m)
    X = random_curve_vec(rng, Grid.uniform(0.0, 1.0, m + 1), n)
    kernels = [GaussianKernel(0.8), PolynomialKernel(2), GaussianKernel(1.5)]
    # a fresh operator per term, so equal operators arrive as distinct objects
    gram = BlockGram([kernels[k % 3].gram(X) for k in range(len(terms))],
                     [block_operator(kind, gout) for kind, _ in terms],
                     [weight for _, weight in terms], gout)
    return gram, random_curve_vec(rng, gout, n)


class TestStructuredSolve:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(6, 14),
        n=st.integers(1, 7),
        terms=st.lists(
            st.tuples(st.sampled_from(STRUCTURED_KINDS),
                      st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
            min_size=1, max_size=5),
        ridge=st.floats(0.01, 1.0),
        seed=st.integers(0, 2 ** 16),
    )
    # identity and multiplication with one integral rank
    @example(m=9, n=5, terms=[("identity", 0.4), ("multiplication", 0.3),
                              ("integral_r3", 0.5)], ridge=0.05, seed=1)
    # multiplication only beside two integral ranks
    @example(m=10, n=4, terms=[("multiplication", 0.5), ("integral_r3", 0.3),
                               ("integral_r5", 0.4)], ridge=0.02, seed=2)
    # identity only beside an integral operator
    @example(m=8, n=6, terms=[("identity", 0.5), ("integral_r5", 0.5)],
             ridge=0.1, seed=3)
    # zero weights drop whole operators, down to a pure ridge system
    @example(m=7, n=3, terms=[("multiplication", 0.0), ("integral_r3", 0.0)],
             ridge=0.3, seed=4)
    # equal but distinct instances merge into one group
    @example(m=11, n=5, terms=[("integral_r3", 0.2), ("integral_r3", 0.3),
                               ("multiplication", 0.25), ("multiplication", 0.1),
                               ("identity", 0.1)], ridge=0.01, seed=5)
    def test_matches_dense(self, m, n, terms, ridge, seed):
        gram, y = structured_system(m, n, terms, seed)
        alpha, report = structured_solve(gram, ridge, y)
        ref, _ = dense_solve(gram, ridge, y)
        assert vec_norm(alpha - ref) <= 1e-10 * vec_norm(ref)
        assert report.solver_kind == "structured"
        assert report.converged

    def test_full_rank_integral_rejected(self, rng):
        gram, y = random_system(rng, 3, 6, 2, op_kinds=["integral"])
        with pytest.raises(SolverError, match="gauss_seidel"):
            structured_solve(gram, 0.1, y)

    def test_routes(self, rng):
        gout = Grid.uniform(0, 1, 60)
        eye = np.eye(84)
        mixed = [IdentityOperator(gout), IntegralOperator(gout, rank=59)]
        # n*Q = 84 * 59 = 4956 fits under the guard, 85 * 59 does not
        assert solve_route(BlockGram([eye, eye], mixed, [0.5, 0.5], gout)) \
            == "structured"
        big = np.eye(85)
        over = BlockGram([big, big], mixed, [0.5, 0.5], gout)
        assert solve_route(over) == "gauss_seidel"
        with pytest.raises(CapacityError):
            structured_solve(over, 0.1, random_curve_vec(rng, gout, 85))
        full = [MultiplicationOperator(gout), IntegralOperator(gout)]
        assert solve_route(BlockGram([eye, eye], full, [0.5, 0.5], gout)) \
            == "gauss_seidel"
        assert solve_route(BlockGram([eye], full[1:], [1.0], gout)) == "kron"


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(outer_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(outer_max_iter=0)
        with pytest.raises(ValueError):
            SolveConfig(outer_tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="finite"):
            SolveConfig(outer_tol=tol)

    @pytest.mark.parametrize("cap", [2.5, "3", float("inf"), True])
    def test_non_integral_caps_rejected(self, cap):
        with pytest.raises(ValueError, match="integer"):
            SolveConfig(outer_max_iter=cap)

    def test_integral_float_cap_becomes_int(self):
        cfg = SolveConfig(outer_max_iter=3.0)
        assert cfg.outer_max_iter == 3 and isinstance(cfg.outer_max_iter, int)
