import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movkl import (
    BlockGram,
    CapacityError,
    CurveVec,
    DimensionError,
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
    dense_solve,
    median_pairwise_distance,
    pcg_solve,
    vec_norm,
)
import movkl.linsolve
from conftest import random_curve_vec, traced_peak

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
    """Stacks whose terms share one output operator, so that the block matrix
    is the Kronecker product G kron T: the preconditioner of pcg_solve is
    their exact inverse, and one step solves them."""

    def test_identity_gram_identity_operator(self, rng):
        gout = Grid.uniform(0, 1, 6)
        gram = identity_unit_gram(gout, n=3)
        y = random_curve_vec(rng, gout, 3)
        alpha, report = pcg_solve(gram, 1.0, y)
        assert np.allclose(alpha.values, y.values / 2.0, atol=1e-12)
        assert report.converged

    def test_n1_matches_dense(self, rng):
        gout = Grid.uniform(0, 1, 8)
        op = IntegralOperator(gout, rank=5)
        gram = BlockGram([np.array([[0.6]])], [op], [1.0], gout)
        y = random_curve_vec(rng, gout, 1)
        ak, _ = pcg_solve(gram, 0.2, y)
        ad, _ = dense_solve(gram, 0.2, y)
        assert np.allclose(ak.values, ad.values, atol=1e-10)

    @pytest.mark.parametrize("make_op", [IdentityOperator, MultiplicationOperator])
    def test_diagonal_operator_builds_no_grid_square(self, rng, make_op):
        # a diagonal operator's eigen-coordinates are a rescaling: an m x m
        # basis alone would be 30.5 MiB here, against Y's 1 MiB
        m = 2000
        grid = Grid.uniform(0.0, 1.0, m)
        G = GaussianKernel(1.0).gram(random_curve_vec(rng, Grid.uniform(0, 1, 20), 65))
        gram = BlockGram([G], [make_op(grid)], [1.0], grid)
        y = random_curve_vec(rng, grid, 65)
        (_, report), peak = traced_peak(pcg_solve, gram, 0.01, y)
        assert report.converged
        assert peak < 8 * y.values.nbytes

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
        ak, _ = pcg_solve(gram, 0.05, y)
        ad, _ = dense_solve(gram, 0.05, y)
        assert vec_norm(ak - ad) <= 1e-8 * vec_norm(ad)

    @pytest.mark.parametrize("kind", ["identity", "multiplication", "integral"])
    @pytest.mark.parametrize("uneven", [False, True])
    @pytest.mark.parametrize("ridge", [1e-6, 1e-4])
    def test_full_rank_operator_at_small_ridge_is_direct(self, kind, uneven, ridge):
        # one step, as accurate as a direct solve: the preconditioner's two
        # terms are not the difference of two O(1/ridge) ones
        rng = np.random.default_rng(7)
        gout = random_grid(rng, 8) if uneven else Grid.uniform(0, 1, 8)
        X = random_curve_vec(rng, Grid.uniform(0, 1, 9), 6)
        op = make_operator(kind, gout)
        stack = KernelStack([OvKernelTerm(GaussianKernel(1.0), op, 0.6),
                             OvKernelTerm(PolynomialKernel(2), op, 0.4)])
        gram = assemble_gram(stack, X)
        y = random_curve_vec(rng, gout, 6)
        ak, report = pcg_solve(gram, ridge, y)
        ad, _ = dense_solve(gram, ridge, y)
        assert report.iterations == 1
        assert vec_norm(ak - ad) <= 1e-12 * vec_norm(ad)

    @pytest.mark.parametrize("rank", [1, 3, 7])
    def test_truncated_operator_at_small_ridge_matches_dense(self, rng, rank):
        # at ridge 1e-4 the answer is dominated by the operator's null space,
        # which the preconditioner divides by the ridge on its own
        gout = random_grid(rng, 8)
        X = random_curve_vec(rng, Grid.uniform(0, 1, 9), 6)
        op = IntegralOperator(gout, rank=rank)
        stack = KernelStack([OvKernelTerm(GaussianKernel(1.0), op, 0.6),
                             OvKernelTerm(PolynomialKernel(2), op, 0.8)])
        gram = assemble_gram(stack, X)
        y = random_curve_vec(rng, gout, 6)
        ak, report = pcg_solve(gram, 1e-4, y)
        ad, _ = dense_solve(gram, 1e-4, y)
        assert report.converged
        assert report.iterations == 1
        assert vec_norm(ak - ad) <= 1e-9 * vec_norm(ad)

    def test_all_zero_weights(self, rng):
        gout = Grid.uniform(0, 1, 4)
        gram = BlockGram([np.eye(2), np.eye(2)],
                         [IdentityOperator(gout), IntegralOperator(gout)],
                         [0.0, 0.0], gout)
        y = random_curve_vec(rng, gout, 2)
        alpha, _ = pcg_solve(gram, 0.5, y)
        assert np.allclose(alpha.values, y.values / 0.5)


BLOCK_KINDS = ["identity", "multiplication", "integral", "integral_r3", "integral_r5"]


def block_operator(kind, grid):
    # a fresh instance per term, so equal operators arrive as distinct objects
    if kind.startswith("integral_r"):
        return IntegralOperator(grid, rank=min(int(kind[10:]), grid.size))
    return make_operator(kind, grid)


def random_grid(rng, m):
    # uneven points and weights, spanning the slope of exp(-t^2)
    points = np.cumsum(rng.uniform(0.05, 0.5, m)) - 1.0
    return Grid(points, rng.uniform(0.05, 0.5, m))


def mixed_system(m, n, terms, seed, uneven=True):
    """Block Gram of fresh operators on an (uneven) grid, and a random
    right-hand side; ``terms`` holds (operator kind, weight) pairs."""
    rng = np.random.default_rng(seed)
    gout = random_grid(rng, m) if uneven else Grid.uniform(0.0, 1.0, m)
    X = random_curve_vec(rng, Grid.uniform(0.0, 1.0, m + 1), n)
    kernels = [GaussianKernel(0.8), PolynomialKernel(2), GaussianKernel(1.5)]
    gram = BlockGram([kernels[k % 3].gram(X) for k in range(len(terms))],
                     [block_operator(kind, gout) for kind, _ in terms],
                     [weight for _, weight in terms], gout)
    return gram, random_curve_vec(rng, gout, n)


THREE_GROUPS = [("identity", 0.5), ("multiplication", 0.6), ("integral", 0.6)]

# operator kinds in the order the preconditioner picks the one it keeps exact
PRECONDITIONER_ORDER = ["integral", "multiplication", "identity"]


def true_residual(gram, ridge, alpha, y):
    R = y.values - gram.apply_values(alpha.values) - ridge * alpha.values
    return vec_norm(CurveVec(gram.grid, R)) / vec_norm(y)


class TestPcgSolve:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.one_of(st.integers(2, 16), st.integers(40, 72)),
        n=st.integers(1, 8),
        uneven=st.booleans(),
        terms=st.lists(
            st.tuples(st.sampled_from(BLOCK_KINDS),
                      st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
            min_size=1, max_size=5),
        ridge=st.floats(0.01, 1.0),
        seed=st.integers(0, 2 ** 16),
    )
    # every kind at once, full-rank and two truncated integral operators
    @example(m=200, n=10, uneven=True,
             terms=[("identity", 0.3), ("multiplication", 0.9), ("integral", 0.5),
                    ("integral_r3", 0.7), ("integral_r5", 0.2)], ridge=0.01, seed=1)
    # two integral groups of different rank, no identity or multiplication
    @example(m=12, n=6, uneven=True, terms=[("integral_r3", 0.8), ("integral_r5", 0.6)],
             ridge=0.05, seed=2)
    # multiplication beside a full-rank integral operator: the ridge is the
    # third group
    @example(m=70, n=5, uneven=False, terms=[("multiplication", 0.05), ("integral", 1.0)],
             ridge=0.01, seed=3)
    # zero weights drop whole operators, down to a pure ridge system
    @example(m=7, n=3, uneven=True, terms=[("multiplication", 0.0), ("integral", 0.0)],
             ridge=0.3, seed=4)
    # equal but distinct instances merge into one group
    @example(m=11, n=5, uneven=True,
             terms=[("integral_r3", 0.2), ("integral_r3", 0.3), ("multiplication", 0.25),
                    ("multiplication", 0.1), ("identity", 0.1)], ridge=0.01, seed=5)
    def test_matches_dense(self, m, n, uneven, terms, ridge, seed):
        gram, y = mixed_system(m, n, terms, seed, uneven)
        cfg = SolveConfig(outer_tol=1e-12, outer_max_iter=200)
        alpha, report = pcg_solve(gram, ridge, y, cfg)
        ref, _ = dense_solve(gram, ridge, y)
        assert report.solver_kind == "pcg"
        assert report.converged
        assert report.iterations <= 60
        # the reported residual is the true one of the returned answer
        assert report.final_residual == movkl.linsolve._rel_residual(
            gram, ridge, alpha.values, y.values, gram.grid.weights)
        assert report.final_residual <= cfg.outer_tol
        assert vec_norm(alpha - ref) <= 1e-9 * vec_norm(ref)

    def test_trivial_single_block_one_step(self, rng):
        gout = Grid.uniform(0, 1, 5)
        gram = identity_unit_gram(gout)
        y = random_curve_vec(rng, gout, 1)
        alpha, report = pcg_solve(gram, 1.0, y)
        assert np.allclose(alpha.values, y.values / 2.0, atol=1e-12)
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
        ap, report = pcg_solve(gram, 0.1, y)
        ad, _ = dense_solve(gram, 0.1, y)
        assert vec_norm(ap - ad) <= 1e-6 * vec_norm(ad)
        assert report.converged

    def test_oracle_equivalence_random_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(4, 11))
            M = int(rng.integers(1, 4))
            gram, y = random_system(rng, n, m, M)
            ridge = float(10.0 ** rng.uniform(-2, 0))
            ad, _ = dense_solve(gram, ridge, y)
            ap, rp = pcg_solve(gram, ridge, y)
            assert rp.converged
            assert vec_norm(ap - ad) <= 1e-6 * max(vec_norm(ad), 1e-12)

    def test_small_multiplication_full_integral_matches_dense(self, rng):
        # a small multiplication scale beside a large full-rank integral
        # operator, a mix on which the paper's variable splitting stalls
        gin = Grid.uniform(0, 1, 30)
        gout = Grid.uniform(0, 1, 200)
        X = random_curve_vec(rng, gin, 20)
        G = GaussianKernel(0.5 * median_pairwise_distance(X)).gram(X)
        gram = BlockGram([G, G], [MultiplicationOperator(gout), IntegralOperator(gout)],
                         [0.05, 2.0], gout)
        y = random_curve_vec(rng, gout, 20)
        ap, report = pcg_solve(gram, 1e-3, y, SolveConfig(outer_tol=1e-10))
        ad, _ = dense_solve(gram, 1e-3, y)
        assert report.converged
        assert vec_norm(ap - ad) <= 1e-8 * vec_norm(ad)

    @pytest.mark.parametrize("kind", ["multiplication", "integral", "integral_r3"])
    @pytest.mark.parametrize("uneven", [False, True])
    def test_identity_plus_one_operator_is_exact(self, kind, uneven):
        # the preconditioner solves these stacks exactly, in one step
        gram, y = mixed_system(40, 7, [("identity", 0.6), (kind, 0.8)], 11, uneven)
        assert movkl.linsolve._two_group_preconditioner(gram, 1e-2)[1]
        cfg = SolveConfig(outer_tol=1e-12)
        alpha, report = pcg_solve(gram, 1e-2, y, cfg)
        assert report.converged
        assert report.iterations == 1
        assert report.final_residual <= 1e-12

    def test_warm_start_with_exact_solution(self):
        gram, y = mixed_system(20, 6, THREE_GROUPS, 12)
        exact, _ = dense_solve(gram, 0.05, y)
        _, cold = pcg_solve(gram, 0.05, y)
        assert cold.iterations > 1
        alpha, report = pcg_solve(gram, 0.05, y, warm=exact)
        assert report.iterations == 0
        assert report.converged
        assert np.array_equal(alpha.values, exact.values)

    def test_zero_rhs_no_step(self):
        gram, y = mixed_system(9, 4, THREE_GROUPS, 13)
        alpha, report = pcg_solve(gram, 0.1, CurveVec.zero(y.grid, 4))
        assert np.all(alpha.values == 0.0)
        assert report.iterations == 0
        assert report.converged

    def test_cap_without_convergence_reports_false(self):
        gram, y = mixed_system(20, 6, THREE_GROUPS, 14)
        cfg = SolveConfig(outer_tol=1e-10, outer_max_iter=1)
        _, report = pcg_solve(gram, 0.05, y, cfg)
        assert report.iterations == 1
        assert not report.converged
        assert report.final_residual > cfg.outer_tol

    def test_restarts_when_recursive_residual_drifts(self):
        # after some 200 steps at a small ridge the recursively updated
        # residual runs below the true one, here by more than 10x; CG
        # restarts from the true residual until that one meets outer_tol
        terms = [("integral_r5", 0.1), ("integral_r3", 0.2),
                 ("multiplication", 0.5), ("integral_r5", 0.3)]
        gram, y = mixed_system(22, 3, terms, 5)
        cfg = SolveConfig(outer_tol=2e-13)
        alpha, report = pcg_solve(gram, 1e-4, y, cfg)
        assert report.converged
        assert report.final_residual <= cfg.outer_tol
        assert report.final_residual == movkl.linsolve._rel_residual(
            gram, 1e-4, alpha.values, y.values, gram.grid.weights)

    def test_linearity_in_rhs(self, rng):
        gram, y1 = mixed_system(10, 5, THREE_GROUPS, 15)
        y2 = random_curve_vec(rng, y1.grid, 5)
        cfg = SolveConfig(outer_tol=1e-12)
        a1, _ = pcg_solve(gram, 0.3, y1, cfg)
        a2, _ = pcg_solve(gram, 0.3, y2, cfg)
        a12, _ = pcg_solve(gram, 0.3, y1 + y2, cfg)
        assert vec_norm(a12 - (a1 + a2)) <= 1e-9 * vec_norm(a12)

    def test_warm_start_shape_checked(self):
        gram, y = mixed_system(8, 3, THREE_GROUPS, 16)
        with pytest.raises(DimensionError):
            pcg_solve(gram, 0.1, y, warm=CurveVec.zero(y.grid, 2))

    def test_preconditioner_positive_for_indefinite_gram(self):
        # rounding can leave a Gram with negative eigenvalues; the
        # preconditioner must stay positive definite regardless
        grid = Grid.uniform(0.0, 1.0, 12)
        gram = BlockGram([np.eye(2), np.diag([1.0, -0.5])],
                         [IdentityOperator(grid), IntegralOperator(grid)],
                         [0.01, 1.0], grid)
        precondition, _ = movkl.linsolve._two_group_preconditioner(gram, 0.01)
        size = 2 * grid.size
        P = np.stack([precondition(e.reshape(2, -1)).reshape(-1)
                      for e in np.eye(size)], axis=1)
        # P is self-adjoint in the quadrature inner product: W P is symmetric
        WP = np.tile(grid.weights, 2)[:, None] * P
        assert np.allclose(WP, WP.T, atol=1e-10 * np.abs(WP).max())
        assert np.linalg.eigvalsh(0.5 * (WP + WP.T)).min() > 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(2, 24), n=st.integers(1, 6), data=st.data(),
           exact=st.sampled_from(PRECONDITIONER_ORDER),
           folded=st.lists(st.sampled_from(["identity", "multiplication"]),
                           max_size=2),
           ridge=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 16))
    @example(m=24, n=6, data=None, exact="integral",
             folded=["identity", "multiplication"], ridge=1e-3, seed=1)
    # diagonal B in stacks without an integral operator
    @example(m=24, n=6, data=None, exact="multiplication",
             folded=["identity"], ridge=1e-3, seed=1)
    @example(m=24, n=6, data=None, exact="identity", folded=[], ridge=1e-3,
             seed=1)
    def test_preconditioner_inverts_two_group_system(self, m, n, data, exact,
                                                     folded, ridge, seed):
        # P(R) against the dense solve of C kron I + G_B kron B, with B a
        # rank-q integral operator (q = m is the full one), else the
        # multiplication operator, else the identity, on an uneven grid, and
        # the operators ranked below B folded into C at their mean eigenvalues
        order = PRECONDITIONER_ORDER.index
        folded = [kind for kind in folded if order(kind) > order(exact)]
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, m)
        X = random_curve_vec(rng, Grid.uniform(0.0, 1.0, 5), n)
        grams = [GaussianKernel(0.8 + 0.4 * k).gram(X) for k in range(len(folded) + 1)]
        if exact == "integral":
            q = m if data is None else data.draw(st.integers(1, m), label="rank")
            B = IntegralOperator(grid, rank=q)
        else:
            B = make_operator(exact, grid)
        ops = [B] + [make_operator(kind, grid) for kind in folded]
        weights = rng.uniform(0.2, 1.0, len(ops))
        gram = BlockGram(grams, ops, weights, grid)
        C = ridge * np.eye(n)
        for op, G in gram.merged_groups[1:]:
            C += op.mean_eigenvalue() * G
        op, GB = gram.merged_groups[0]
        A = np.kron(C, np.eye(m)) + np.kron(GB, op.matrix())
        R = rng.normal(size=(n, m))
        precondition, _ = movkl.linsolve._two_group_preconditioner(gram, ridge)
        got = precondition(R)
        want = np.linalg.solve(A, R.reshape(-1)).reshape(n, m)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_truncated_operators_stay_rank_q(self, rng):
        # once their spectra exist, CG on rank-10 and rank-4 integral
        # operators over 2,000 points holds m x q arrays; an m x m basis
        # alone would take 32 MB
        m = 2000
        grid = Grid.uniform(0.0, 1.0, m)
        ops = [IntegralOperator(grid, rank=10), IntegralOperator(grid, rank=4)]
        for op in ops:
            op.eigvals()
        G = GaussianKernel(1.0).gram(random_curve_vec(rng, Grid.uniform(0, 1, 20), 5))
        gram = BlockGram([G, G], ops, [0.6, 0.8], grid)
        y = random_curve_vec(rng, grid, 5)
        (_, report), peak = traced_peak(pcg_solve, gram, 0.01, y)
        assert report.converged
        assert peak < m * m * 8 / 4

    def test_old_capacitance_guard_case(self, rng):
        # n*Q = 85 * 59 was over the 5,000 guard of the deleted capacitance
        # solve; CG has no guard
        gout = Grid.uniform(0, 1, 60)
        eye = np.eye(85)
        gram = BlockGram([eye, eye],
                         [IdentityOperator(gout), IntegralOperator(gout, rank=59)],
                         [0.5, 0.5], gout)
        cfg = SolveConfig()
        _, report = pcg_solve(gram, 0.1, random_curve_vec(rng, gout, 85), cfg)
        assert report.converged
        assert report.final_residual <= cfg.outer_tol

    def test_routes(self):
        # one route for every stack; the preconditioner reports whether it is
        # the exact inverse, which a stack of one operator group always is
        gout = Grid.uniform(0, 1, 6)
        eye = np.eye(3)
        full = [MultiplicationOperator(gout), IntegralOperator(gout)]

        def exact(weights, ops=full):
            gram = BlockGram([eye] * len(ops), ops, weights, gout)
            return movkl.linsolve._two_group_preconditioner(gram, 0.1)[1]

        assert not exact([0.5, 0.5])
        assert exact([0.0, 1.0])
        assert exact([1.0], full[1:])

    def test_multiplication_beside_truncated_integral_is_not_exact(self):
        # the folded multiplication operator is not a multiple of the
        # identity, so CG takes more than the first step
        gram, y = mixed_system(30, 6, [("multiplication", 0.6),
                                       ("integral_r10", 0.8)], 23)
        assert not movkl.linsolve._two_group_preconditioner(gram, 1e-2)[1]
        _, report = pcg_solve(gram, 1e-2, y)
        assert report.converged
        assert report.iterations > 1

    def test_no_warm_start_skips_a_block_application(self, monkeypatch):
        # without a warm start the first residual is Y itself: one block
        # application fewer than from a zero warm start, and the same bits
        gram, y = mixed_system(20, 6, THREE_GROUPS, 24)
        calls = []
        apply_values = BlockGram.apply_values

        def counting(self, A):
            calls.append(1)
            return apply_values(self, A)

        monkeypatch.setattr(BlockGram, "apply_values", counting)
        cold, cold_report = pcg_solve(gram, 0.05, y)
        cold_calls = len(calls)
        calls.clear()
        zero, zero_report = pcg_solve(gram, 0.05, y, warm=CurveVec.zero(y.grid, y.n))
        assert cold_calls == len(calls) - 1
        assert cold_report.iterations == zero_report.iterations > 1
        assert np.array_equal(cold.values, zero.values)
        # a one-operator stack: the exact step and its true residual
        gram, y = mixed_system(20, 6, [("integral", 1.0)], 25)
        calls.clear()
        _, report = pcg_solve(gram, 0.05, y)
        assert report.iterations == 1
        assert len(calls) == 1


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
