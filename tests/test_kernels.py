import numpy as np
import pytest

from movkl import (
    BlockGram,
    Curve,
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
    assemble_gram,
    l2_inner,
    median_pairwise_distance,
    vec_inner,
)
from conftest import random_curve, random_curve_vec


@pytest.fixture
def grid():
    return Grid.uniform(0.0, 1.0, 9)


def all_operators(grid):
    return [
        IdentityOperator(grid),
        MultiplicationOperator(grid),
        IntegralOperator(grid),
        IntegralOperator(grid, rank=4),
    ]


class TestScalarKernels:
    def test_gaussian_self_similarity(self, rng, grid):
        k = GaussianKernel(0.7)
        x = random_curve(rng, grid)
        assert k(x, x) == pytest.approx(1.0, abs=1e-14)

    def test_polynomial_constant_one(self):
        g = Grid.uniform(0.0, 1.0, 33)
        k = PolynomialKernel(1, offset=0.0)
        one = Curve(g, np.ones(33))
        assert k(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_hand_computed_distance(self):
        # x = 0 and z = 1 on [0,1]: squared quadrature distance is exactly 1,
        # so with unit bandwidth the kernel value is exp(-1/2)
        g = Grid.uniform(0.0, 1.0, 41)
        x = Curve.zero(g)
        z = Curve(g, np.ones(41))
        val = GaussianKernel(1.0)(x, z)
        assert val == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_symmetry(self, rng, grid):
        for k in (GaussianKernel(1.3), PolynomialKernel(3, 0.5)):
            x, z = random_curve(rng, grid), random_curve(rng, grid)
            assert k(x, z) == pytest.approx(k(z, x), rel=1e-14)

    def test_gaussian_range(self, rng, grid):
        k = GaussianKernel(0.5)
        for _ in range(10):
            v = k(random_curve(rng, grid), random_curve(rng, grid))
            assert 0.0 < v <= 1.0

    @pytest.mark.parametrize("kernel", [GaussianKernel(1.0),
                                        PolynomialKernel(2, 1.0),
                                        PolynomialKernel(3, 0.0)])
    def test_gram_positive_semidefinite(self, rng, grid, kernel):
        xs = random_curve_vec(rng, grid, 12)
        G = kernel.gram(xs)
        assert np.allclose(G, G.T)
        eig = np.linalg.eigvalsh(G)
        assert eig.min() >= -1e-8 * max(eig.max(), 1.0)

    def test_grid_mismatch(self, rng):
        a = random_curve(rng, Grid.uniform(0, 1, 5))
        b = random_curve(rng, Grid.uniform(0, 2, 5))
        with pytest.raises(DimensionError):
            GaussianKernel(1.0)(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)
        with pytest.raises(ValueError):
            PolynomialKernel(4)
        with pytest.raises(ValueError):
            PolynomialKernel(2, -1.0)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_polynomial_matches_power(self, rng, degree):
        ip = rng.normal(scale=3.0, size=(7, 9))
        got = PolynomialKernel(degree, 0.7).evaluate(ip, np.zeros_like(ip))
        np.testing.assert_allclose(got, (ip + 0.7) ** degree, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_params(self, bad):
        from movkl import ScaledKernel

        with pytest.raises(ValueError):
            GaussianKernel(bad)
        with pytest.raises(ValueError):
            PolynomialKernel(2, bad)
        with pytest.raises(ValueError):
            ScaledKernel(GaussianKernel(1.0), bad)

    def test_scaled_kernel(self, rng, grid):
        from movkl import ScaledKernel, block_trace_normalized, trace_normalized
        from movkl.kernels import scalar_kernel_from_config

        xs = random_curve_vec(rng, grid, 5)
        base = PolynomialKernel(2, 1.0)
        scaled = ScaledKernel(base, 0.25)
        assert np.allclose(scaled.gram(xs), 0.25 * base.gram(xs))
        round_trip = scalar_kernel_from_config(scaled.to_config())
        assert round_trip == scaled
        with pytest.raises(ValueError):
            ScaledKernel(base, 0.0)

        normed = trace_normalized(base, xs)
        assert np.diag(normed.gram(xs)).mean() == pytest.approx(1.0)

        op = IntegralOperator(grid, rank=4)
        block = block_trace_normalized(base, op, xs)
        vals, _ = op.full_basis()
        expected = 1.0 / (np.diag(base.gram(xs)).mean() * vals.sum() / vals.size)
        assert block.factor == pytest.approx(expected)

    def test_median_pairwise_distance(self, rng, grid):
        xs = random_curve_vec(rng, grid, 6)
        med = median_pairwise_distance(xs)
        dists = []
        for i in range(6):
            for j in range(i + 1, 6):
                diff = xs[i] - xs[j]
                dists.append(np.sqrt(l2_inner(diff, diff)))
        assert med == pytest.approx(np.median(dists), rel=1e-12)


class TestOperators:
    def test_identity_exact(self, rng, grid):
        a = random_curve(rng, grid)
        assert np.array_equal(IdentityOperator(grid).apply(a).values, a.values)

    def test_multiplication_at_origin(self, rng):
        # grid contains t = 0 where exp(-t^2) = 1
        g = Grid.uniform(0.0, 1.0, 5)
        a = random_curve(rng, g)
        out = MultiplicationOperator(g).apply(a)
        assert out.values[0] == a.values[0]
        assert np.allclose(out.values, np.exp(-g.points ** 2) * a.values)

    def test_integral_constant_analytic(self):
        # at t=0 the image of the constant 1 is the integral of exp(-s)
        g = Grid.uniform(0.0, 1.0, 201)
        out = IntegralOperator(g).apply(Curve(g, np.ones(201)))
        assert out.values[0] == pytest.approx(1.0 - np.exp(-1.0), abs=2e-3)

    @pytest.mark.parametrize("make_op", [IdentityOperator,
                                         MultiplicationOperator,
                                         IntegralOperator,
                                         lambda g: IntegralOperator(g, rank=3)])
    def test_self_adjoint_and_psd(self, rng, grid, make_op):
        op = make_op(grid)
        for _ in range(10):
            a, b = random_curve(rng, grid), random_curve(rng, grid)
            lhs = l2_inner(op.apply(a), b)
            rhs = l2_inner(a, op.apply(b))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            assert l2_inner(op.apply(a), a) >= -1e-10

    def test_identity_spectrum(self):
        g = Grid.uniform(0.0, 1.0, 4)
        vals, vecs = IdentityOperator(g).spectrum()
        assert np.array_equal(vals, np.ones(4))
        # orthonormal under the quadrature inner product
        gram = vecs.T @ (g.weights[:, None] * vecs)
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_multiplication_spectrum_two_points(self):
        g = Grid.uniform(0.0, 1.0, 2)
        vals, vecs = MultiplicationOperator(g).spectrum()
        assert np.allclose(vals, [1.0, np.exp(-1.0)])
        gram = vecs.T @ (g.weights[:, None] * vecs)
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("make_op", [IdentityOperator,
                                         MultiplicationOperator,
                                         IntegralOperator])
    def test_eigenpairs_satisfy_definition(self, make_op, grid):
        op = make_op(grid)
        vals, vecs = op.spectrum()
        assert np.all(np.diff(vals) <= 1e-14)
        applied = op.apply_rows(vecs.T)
        assert np.allclose(applied, (vecs * vals[None, :]).T, atol=1e-8)

    def test_integral_truncation_against_dense_eigh(self):
        # the rank-q reconstruction must miss the full operator by exactly
        # the first dropped eigenvalue (dense eigendecomposition oracle)
        g = Grid.uniform(0.0, 1.0, 101)
        q = 10
        full = IntegralOperator(g)
        trunc = IntegralOperator(g, rank=q)

        sw = np.sqrt(g.weights)
        sym = sw[:, None] * full.matrix() / sw[None, :]
        oracle_vals = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))[::-1]

        vals, _ = trunc.spectrum()
        assert vals.shape == (q,)
        assert np.allclose(vals, oracle_vals[:q], atol=1e-10)

        diff = full.matrix() - trunc.matrix()
        sym_diff = sw[:, None] * diff / sw[None, :]
        gap = np.linalg.norm(sym_diff, 2)
        assert gap == pytest.approx(oracle_vals[q], rel=1e-8)

    @pytest.mark.parametrize("rank", [2.5, True, "3", 0, 10, -1])
    def test_integral_rank_must_be_integral_and_in_range(self, grid, rank):
        with pytest.raises(ValueError, match="rank"):
            IntegralOperator(grid, rank=rank)

    def test_integral_rank_integral_float_is_an_integer(self, grid):
        op = IntegralOperator(grid, rank=3.0)
        assert type(op.rank) is int and op.rank == 3
        assert IntegralOperator(grid, rank=9.0).rank is None

    @pytest.mark.parametrize("rank", [None, 3])
    def test_mean_eigenvalue(self, grid, rank):
        assert IdentityOperator(grid).mean_eigenvalue() == pytest.approx(1.0)
        mult = MultiplicationOperator(grid)
        assert mult.mean_eigenvalue() == pytest.approx(mult.diag.mean())
        integ = IntegralOperator(grid, rank=rank)
        expected = np.trace(integ.matrix()) / grid.size
        assert integ.mean_eigenvalue() == pytest.approx(expected, rel=1e-10)

    def test_shifted_solve_identity(self, rng, grid):
        b = random_curve(rng, grid)
        out = IdentityOperator(grid).shifted_solve(1.0, 1.0, b)
        assert np.allclose(out.values, b.values / 2.0)

    @pytest.mark.parametrize("make_op", [IdentityOperator,
                                         MultiplicationOperator,
                                         IntegralOperator])
    def test_shifted_solve_pure_ridge(self, rng, grid, make_op):
        b = random_curve(rng, grid)
        out = make_op(grid).shifted_solve(2.5, 0.0, b)
        assert np.allclose(out.values, b.values / 2.5)

    @pytest.mark.parametrize("rank", [None, 7])
    def test_shifted_solve_matches_dense(self, rng, rank):
        g = Grid.uniform(0.0, 1.0, 51)
        op = IntegralOperator(g, rank=rank)
        b = random_curve(rng, g)
        u = op.shifted_solve(0.1, 1.0, b)
        dense = np.linalg.solve(op.matrix() + 0.1 * np.eye(51), b.values)
        assert np.linalg.norm(u.values - dense) <= 1e-6 * np.linalg.norm(dense)

    def test_shifted_solve_residual(self, rng, grid):
        for op in all_operators(grid):
            b = random_curve(rng, grid)
            u = op.shifted_solve(0.3, 0.8, b)
            resid = 0.8 * op.apply(u).values + 0.3 * u.values - b.values
            assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(b.values), 1.0)

    def test_shifted_solve_rejects_bad_shift(self, rng, grid):
        with pytest.raises(ValueError):
            IdentityOperator(grid).shifted_solve(0.0, 1.0, random_curve(rng, grid))


class TestStack:
    def test_constraint_enforced(self, grid):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError):
            KernelStack([OvKernelTerm(k, IdentityOperator(grid), 1.0),
                         OvKernelTerm(k, IdentityOperator(grid), 1.0)],
                        norm_exponent=2.0)

    def test_nan_norm_exponent_rejected(self, grid):
        with pytest.raises(ValueError):
            KernelStack.uniform([(GaussianKernel(1.0), IdentityOperator(grid))],
                                norm_exponent=float("nan"))

    def test_uniform_weights(self, grid):
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(grid)),
             (GaussianKernel(2.0), IdentityOperator(grid))])
        assert np.allclose(stack.weights, [0.5, 0.5])

    def test_shared_operator_detection(self, grid):
        op = IntegralOperator(grid, rank=3)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), op), (PolynomialKernel(1), IntegralOperator(grid, rank=3))])
        assert stack.shared_operator() == op
        mixed = KernelStack.uniform(
            [(GaussianKernel(1.0), op), (GaussianKernel(1.0), IdentityOperator(grid))])
        assert mixed.shared_operator() is None

    def test_negative_weight_rejected(self, grid):
        with pytest.raises(ValueError):
            OvKernelTerm(GaussianKernel(1.0), IdentityOperator(grid), -0.1)


def densify_oracle(gram):
    # independent densification: explicit kron per term, no merging
    m = gram.grid.size
    out = np.zeros((gram.n * m, gram.n * m))
    for G, op, d in zip(gram.scalar_grams, gram.operators, gram.weights):
        out += d * np.kron(G, op.matrix())
    return out


class TestBlockGram:
    def test_single_gaussian_gram_is_one(self, rng):
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, 5)
        xs = random_curve_vec(rng, gin, 1)
        stack = KernelStack([OvKernelTerm(GaussianKernel(1.0),
                                          IdentityOperator(gout), 1.0)])
        gram = assemble_gram(stack, xs)
        assert gram.scalar_grams[0] == pytest.approx(np.ones((1, 1)))

    def test_duplicate_terms_match_single(self, rng):
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, 5)
        xs = random_curve_vec(rng, gin, 4)
        alpha = random_curve_vec(rng, gout, 4)
        k = GaussianKernel(0.8)
        op = IntegralOperator(gout)
        twice = assemble_gram(
            KernelStack([OvKernelTerm(k, op, 0.5), OvKernelTerm(k, op, 0.5)]), xs)
        once = assemble_gram(KernelStack([OvKernelTerm(k, op, 1.0)]), xs)
        assert np.allclose(twice.apply(alpha).values, once.apply(alpha).values,
                           atol=1e-12)

    def test_apply_matches_densified(self, rng):
        gin = Grid.uniform(0, 1, 7)
        gout = Grid.uniform(0, 1, 6)
        xs = random_curve_vec(rng, gin, 4)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), MultiplicationOperator(gout)),
             (PolynomialKernel(2), IntegralOperator(gout, rank=4))])
        gram = assemble_gram(stack, xs)
        alpha = random_curve_vec(rng, gout, 4)
        dense = densify_oracle(gram)
        expected = (dense @ alpha.values.ravel()).reshape(4, 6)
        assert np.allclose(gram.apply(alpha).values, expected, atol=1e-10)
        assert np.allclose(gram.densify(), dense, atol=1e-12)

    def test_gram_apply_zero(self, rng, grid):
        xs = random_curve_vec(rng, Grid.uniform(0, 1, 5), 3)
        stack = KernelStack.uniform([(GaussianKernel(1.0), IdentityOperator(grid))])
        gram = assemble_gram(stack, xs)
        out = gram.apply(CurveVec.zero(grid, 3))
        assert np.all(out.values == 0.0)

    def test_gram_apply_identity_case(self, rng, grid):
        # n = 1, identity operator, G(x, x) = 1, d = 1: K alpha = alpha
        xs = random_curve_vec(rng, Grid.uniform(0, 1, 5), 1)
        stack = KernelStack([OvKernelTerm(GaussianKernel(1.0),
                                          IdentityOperator(grid), 1.0)])
        gram = assemble_gram(stack, xs)
        alpha = random_curve_vec(rng, grid, 1)
        assert np.allclose(gram.apply(alpha).values, alpha.values,
                           atol=1e-14)

    def test_random_small_instance_oracle(self, rng):
        gin = Grid.uniform(0, 1, 4)
        gout = Grid.uniform(0, 1, 5)
        xs = random_curve_vec(rng, gin, 3)
        stack = KernelStack.uniform(
            [(GaussianKernel(0.9), IdentityOperator(gout)),
             (GaussianKernel(2.0), IntegralOperator(gout))])
        gram = assemble_gram(stack, xs)
        alpha = random_curve_vec(rng, gout, 3)
        dense = densify_oracle(gram)
        expected = (dense @ alpha.values.ravel()).reshape(3, 5)
        assert np.allclose(gram.apply(alpha).values, expected, atol=1e-10)

    def test_hermitian_and_psd(self, rng):
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, 7)
        xs = random_curve_vec(rng, gin, 5)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(gout)),
             (PolynomialKernel(1), MultiplicationOperator(gout)),
             (GaussianKernel(0.6), IntegralOperator(gout, rank=5))])
        gram = assemble_gram(stack, xs)
        for _ in range(10):
            a = random_curve_vec(rng, gout, 5)
            b = random_curve_vec(rng, gout, 5)
            lhs = vec_inner(gram.apply(a), b)
            rhs = vec_inner(a, gram.apply(b))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
            assert vec_inner(gram.apply(a), a) >= -1e-8

    def test_weight_linearity(self, rng):
        gin = Grid.uniform(0, 1, 5)
        gout = Grid.uniform(0, 1, 4)
        xs = random_curve_vec(rng, gin, 3)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(gout)),
             (GaussianKernel(2.0), IntegralOperator(gout))])
        gram = assemble_gram(stack, xs)
        alpha = random_curve_vec(rng, gout, 3)
        d1 = np.array([0.3, 0.2])
        d2 = np.array([0.1, 0.4])
        combined = gram.with_weights(d1 + d2).apply(alpha).values
        separate = (gram.with_weights(d1).apply(alpha).values
                    + gram.with_weights(d2).apply(alpha).values)
        assert np.allclose(combined, separate, atol=1e-12)
