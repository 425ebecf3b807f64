import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    ScaledKernel,
    assemble_gram,
    l2_inner,
    median_pairwise_distance,
    vec_inner,
)
import movkl.kernels
from movkl.kernels import _ou_precision
from conftest import (plain_kernel_values, quadrature_residual, random_curve,
                      random_curve_vec, reference_decompose, traced_peak)


@pytest.fixture
def grid():
    return Grid.uniform(0.0, 1.0, 9)


class TestCurveStats:
    def test_pairs_reuses_its_squared_norms(self, rng, grid, monkeypatch):
        xs = random_curve_vec(rng, grid, 7)
        want = movkl.kernels.CurveStats(xs).cross(xs.grid, xs.values)
        calls = []
        sq_norms = movkl.kernels._sq_norms

        def counting(values, weights):
            calls.append(1)
            return sq_norms(values, weights)

        monkeypatch.setattr(movkl.kernels, "_sq_norms", counting)
        got = movkl.kernels.CurveStats(xs).pairs()
        assert len(calls) == 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


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

    @pytest.mark.parametrize("degree", [2.5, True, "2"])
    def test_polynomial_degree_must_be_an_integer(self, degree):
        # int() would truncate 2.5 to 2 and read true as 1
        with pytest.raises(ValueError, match="degree must be an integer"):
            PolynomialKernel(degree)
        kernel = PolynomialKernel(2.0)
        assert kernel.degree == 2 and type(kernel.degree) is int

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
        vals = op.eigvals()
        # a truncated operator keeps its retained pairs only
        assert op._eigvecs.shape == (grid.size, 4)
        expected = 1.0 / (np.diag(base.gram(xs)).mean() * vals.sum() / grid.size)
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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["gaussian", 1, 2, 3]), param=st.floats(0.05, 5.0),
           factors=st.lists(st.floats(0.05, 20.0), max_size=2),
           shape=st.sampled_from([(1,), (7,), (5, 3), (65, 40)]),
           seed=st.integers(0, 2 ** 16))
    def test_evaluate_into_buffer_is_bit_identical(self, kind, param, factors,
                                                   shape, seed):
        rng = np.random.default_rng(seed)
        ip = rng.normal(scale=3.0, size=shape)
        sq = rng.uniform(0.0, 40.0, size=shape)
        kernel = (GaussianKernel(param) if kind == "gaussian"
                  else PolynomialKernel(kind, param))
        for f in factors:
            kernel = ScaledKernel(kernel, f)
        args = ip.tobytes() + sq.tobytes()
        want = kernel.evaluate(ip, sq)
        # a slot of a larger array, as a prediction block fills them
        buf = np.full((2,) + shape, np.nan)[1]
        assert kernel.evaluate(ip, sq, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert want.tobytes() == plain_kernel_values(kernel, ip, sq).tobytes()
        assert ip.tobytes() + sq.tobytes() == args


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

    @pytest.mark.parametrize("make_op", [IdentityOperator,
                                         MultiplicationOperator,
                                         IntegralOperator])
    def test_eigenpairs_satisfy_definition(self, rng, make_op):
        # T = V diag(s) V^T W with V orthonormal under the quadrature weights,
        # on a uniform and an uneven grid; the integral operator at every
        # rank from 1 to m, where m is the full operator, and as truncated
        # views of the full one
        m = 9
        for grid in (Grid.uniform(0.0, 1.0, m),
                     Grid.from_points(np.sort(rng.uniform(-2.0, 2.0, m)))):
            if make_op is IntegralOperator:
                ops = [IntegralOperator(grid, rank=q) for q in range(1, m + 1)]
                ops += [IntegralOperator(grid).truncated(q) for q in range(1, m)]
            else:
                ops = [make_op(grid)]
            for op in ops:
                vals = op.eigvals()
                # W-orthonormality: coords inverts expand
                C = rng.normal(size=(4, vals.size))
                assert np.max(np.abs(op.coords(op.expand(C)) - C)) <= 1e-12
                A = rng.normal(size=(5, m))
                want = op.apply_rows(A)
                got = op.expand(op.coords(A) * vals)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
                if make_op is IntegralOperator:
                    assert_coords_use_weighted_basis(op, A)

    @pytest.mark.parametrize("rank", [None, 20, 10])
    def test_integral_coords_bit_for_bit_at_desk_size(self, rng, rank):
        # the desk tasks' 200-point grid and a 65-curve block; rank 10 also
        # as a view of the rank-20 operator's pairs
        grid = Grid.uniform(0.0, 1.0, 200)
        A = rng.normal(size=(65, 200))
        ops = [IntegralOperator(grid, rank=rank)]
        if rank == 10:
            ops.append(IntegralOperator(grid, rank=20).truncated(10))
        for op in ops:
            assert_coords_use_weighted_basis(op, A)

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

        vals = trunc.eigvals()
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

    @pytest.mark.parametrize("make_op", [IdentityOperator, MultiplicationOperator])
    def test_diagonal_mean_eigenvalue_builds_no_matrix(self, make_op):
        # the dense m x m eigenvector matrix would be 30.5 MiB here
        op = make_op(Grid.uniform(0.0, 1.0, 2000))
        _, peak = traced_peak(op.mean_eigenvalue)
        assert peak < 2 ** 20


def assert_coords_use_weighted_basis(op: IntegralOperator, A: np.ndarray):
    """coords(A) is A @ (w[:, None] * V) bit for bit: the weighted basis the
    operator keeps is the one it would form afresh from its eigenvectors."""
    vecs = op._decompose()[1]
    assert np.array_equal(op.coords(A), A @ (op.grid.weights[:, None] * vecs))


def spectrum_grid(kind: str, m: int, seed: int) -> Grid:
    """Grids for the spectrum tests.

    uniform: [0, 1]; random: from_points of sorted uniform draws;
    clustered: every gap near 1e-6, where Q's entries reach 1e12; mixed:
    half the gaps near 1e-6 and the rest ordinary, so clusters of close
    points sit between ordinary gaps; wide: gaps of 40 or 60, where Q's
    off-diagonal is about 0 and eigenvalues tie.
    """
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return Grid.uniform(0.0, 1.0, m)
    if kind == "random":
        return Grid.from_points(np.sort(rng.uniform(-3.0, 3.0, m)))
    if kind == "wide":
        gaps = rng.choice([40.0, 60.0], m - 1)
    else:
        gaps = rng.uniform(0.5e-6, 2e-6, m - 1)
        if kind == "mixed":
            ordinary = rng.uniform(0.01, 1.0, m - 1)
            gaps = np.where(rng.random(m - 1) < 0.5, gaps, ordinary)
    start = rng.uniform(-2.0, 2.0)
    return Grid.from_points(np.concatenate([[start], gaps]).cumsum())


def assert_pairs_match_oracle(op, ref_vals):
    """The operator's retained pairs against the oracle's leading
    eigenvalues and the dense kernel formula of the full operator."""
    grid, q = op.grid, op.retained
    vals, vecs = op._decompose()
    assert vals.shape == (q,) and vecs.shape == (grid.size, q)
    top = ref_vals[0]
    # the dense oracle is accurate relative to the largest eigenvalue
    assert np.max(np.abs(vals - ref_vals[:q])) <= 1e-9 * top
    assert np.all(np.diff(vals) <= 0.0)
    gram = vecs.T @ (grid.weights[:, None] * vecs)
    assert np.max(np.abs(gram - np.eye(q))) <= 1e-10
    # each pair against the dense kernel formula, in the quadrature norm
    resid = op._kernel_matrix() @ vecs - vecs * vals
    assert np.max(np.sqrt((resid * resid).T @ grid.weights)) <= 1e-8 * top


class TestIntegralSpectrum:
    """The tridiagonal spectrum against the dense oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(2, 200), uneven=st.booleans(), seed=st.integers(0, 2 ** 16))
    # gaps near both ends of the uneven range
    @example(m=200, uneven=True, seed=7)
    @example(m=2, uneven=False, seed=0)
    def test_precision_inverts_kernel(self, m, uneven, seed):
        if uneven:
            gaps = np.random.default_rng(seed).uniform(0.01, 0.5, m - 1)
            points = np.concatenate([[0.0], np.cumsum(gaps)])
            grid = Grid.from_points(points)
        else:
            grid = Grid.uniform(0.0, 1.0, m)
        diag, off = _ou_precision(grid.points)
        Q = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        t = grid.points
        K = np.exp(-np.abs(t[:, None] - t[None, :]))
        assert np.max(np.abs(Q @ K - np.eye(m))) <= 1e-10
        assert np.max(np.abs(Q - np.linalg.inv(K))) <= 1e-10 * np.max(np.abs(Q))

    def test_precision_at_tiny_and_wide_gaps(self):
        # independent closed forms: e / (1 - e^2) = 1 / (2 sinh gap) and
        # e^2 / (1 - e^2) = 1 / expm1(2 gap); 1 - e*e loses digits at tiny gaps
        points = np.concatenate([[0.0], np.cumsum(np.logspace(-12, 2.5, 30))])
        diag, off = _ou_precision(points)
        gaps = np.diff(points)
        ratio = 1.0 / np.expm1(2.0 * gaps)
        expected_diag = np.ones(gaps.size + 1)
        expected_diag[:-1] += ratio
        expected_diag[1:] += ratio
        assert np.allclose(off, -0.5 / np.sinh(gaps), rtol=1e-14, atol=0.0)
        assert np.allclose(diag, expected_diag, rtol=1e-14, atol=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["uniform", "random", "clustered", "mixed", "wide"]),
           m=st.integers(2, 200), seed=st.integers(0, 2 ** 16))
    # every gap near 1e-6: the reciprocals of Q's eigenvalues are off by
    # 3.5e-9 and 4.8e-9 here; unscaled, MRRR stops with LAPACK info 22 on
    # the second and on the mixed grid
    @example(kind="clustered", m=200, seed=0)
    @example(kind="clustered", m=200, seed=53)
    @example(kind="mixed", m=200, seed=0)
    # equal interior weights: m - 2 tied eigenvalues
    @example(kind="wide", m=200, seed=0)
    @example(kind="uniform", m=2, seed=0)
    def test_spectrum_matches_dense_oracle(self, kind, m, seed):
        grid = spectrum_grid(kind, m, seed)
        op = IntegralOperator(grid)
        ref_vals, ref_vecs = reference_decompose(op)
        top = ref_vals[0]
        assert_pairs_match_oracle(op, ref_vals)
        # a truncated operator, rebuilt from its spectrum, against the
        # oracle's rank-q map; q sits at a spectral gap, so that subspaces,
        # not single eigenvectors, are compared and ties cannot matter
        gaps = ref_vals[:-1] - ref_vals[1:]
        cuts = np.flatnonzero(gaps > 1e-3 * top)
        if cuts.size:
            q = int(cuts[min(cuts.size - 1, 5)]) + 1
            trunc = IntegralOperator(grid, rank=q).matrix()
            ref = (ref_vecs[:, :q] * ref_vals[:q]) @ (ref_vecs[:, :q].T * grid.weights)
            sw = np.sqrt(grid.weights)
            err = np.linalg.norm(sw[:, None] * (trunc - ref) / sw[None, :], 2)
            assert err <= 1e-7 * top

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["uniform", "random", "clustered", "mixed", "wide"]),
           m=st.integers(2, 200), seed=st.integers(0, 2 ** 16),
           frac=st.floats(0.0, 1.0))
    # subset solves (4 q <= m) on the grids pinned above, ...
    @example(kind="clustered", m=200, seed=53, frac=0.0)
    @example(kind="clustered", m=200, seed=0, frac=0.1)
    @example(kind="mixed", m=200, seed=0, frac=0.24)
    # (asked for this one pair alone, MRRR misses by 5e-5 in residual)
    @example(kind="mixed", m=200, seed=0, frac=0.0)
    @example(kind="wide", m=200, seed=0, frac=0.05)
    @example(kind="random", m=16, seed=1, frac=3 / 14)
    # ... full solves just above the crossover and at q = m - 1, ...
    @example(kind="mixed", m=200, seed=0, frac=0.26)
    @example(kind="random", m=200, seed=1, frac=1.0)
    # ... and below the smallest grid size that takes the subset
    @example(kind="uniform", m=15, seed=0, frac=0.0)
    @example(kind="uniform", m=2, seed=0, frac=0.0)
    def test_truncated_spectrum_matches_dense_oracle(self, kind, m, seed, frac):
        grid = spectrum_grid(kind, m, seed)
        q = 1 + round(frac * (m - 2))  # 1 to m - 1
        op = IntegralOperator(grid, rank=q)
        assert_pairs_match_oracle(op, reference_decompose(op)[0])

    def test_truncated_solve_asks_for_retained_pairs_only(self, monkeypatch):
        calls = []
        solve = movkl.kernels.eigh_tridiagonal

        def recording(*args, **kwargs):
            calls.append(kwargs.get("select_range"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(movkl.kernels, "eigh_tridiagonal", recording)
        for m, q in [(200, 5), (200, 50), (200, 51), (200, None), (15, 1), (16, 4),
                     (200, 1)]:
            IntegralOperator(Grid.uniform(0.0, 1.0, m), rank=q).eigvals()
        assert calls == [(0, 4), (0, 49), None, None, None, (0, 3), (0, 1)]

    @pytest.mark.parametrize("q", [45, 100])  # subset and full solves
    def test_truncated_subspace_at_tied_boundary(self, q):
        # on this wide grid the 36 leading eigenvalues tie at 60 and the
        # next 105 at 50; q cuts through the second cluster, so only
        # subspaces, not the retained vectors, are unique
        grid = spectrum_grid("wide", 200, 8)
        op = IntegralOperator(grid, rank=q)
        ref_vals, ref_vecs = reference_decompose(op)
        assert_pairs_match_oracle(op, ref_vals)
        tol = 1e-12 * ref_vals[0]
        tied = np.abs(ref_vals - ref_vals[q - 1]) <= tol
        above = ref_vals > ref_vals[q - 1] + tol
        assert tied[q] and np.count_nonzero(above) == 36
        _, vecs = op._decompose()
        w = grid.weights
        # the retained span holds every oracle eigenvector above the tie ...
        assert quadrature_residual(vecs, ref_vecs[:, above], w) <= 1e-10
        # ... and lies in the span of those at or above it
        assert quadrature_residual(ref_vecs[:, above | tied], vecs, w) <= 1e-10

    @pytest.mark.parametrize("wide_rank", [40, None])  # subset and full solves
    def test_truncation_reads_the_wider_solve(self, monkeypatch, wide_rank):
        calls = []
        solve = movkl.kernels.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(movkl.kernels, "eigh_tridiagonal", counting)
        grid = spectrum_grid("mixed", 200, 0)
        wide = IntegralOperator(grid, rank=wide_rank)
        vals, vecs = wide._decompose()
        ref_vals = reference_decompose(wide)[0]
        for q in (1, 2, 17, 39):
            narrow = wide.truncated(q)
            assert narrow == IntegralOperator(grid, rank=q) and narrow.retained == q
            n_vals, n_vecs = narrow._decompose()
            # read-only views of the leading pairs, no copy
            assert np.shares_memory(n_vecs, vecs) and not n_vecs.flags.writeable
            assert not n_vals.flags.writeable
            assert np.array_equal(n_vals, vals[:q])
            assert np.array_equal(n_vecs, vecs[:, :q])
            assert_pairs_match_oracle(narrow, ref_vals)
        assert len(calls) == 1

    def test_truncation_rules(self):
        grid = Grid.uniform(0.0, 1.0, 12)
        for op in (IdentityOperator(grid), MultiplicationOperator(grid),
                   IntegralOperator(grid), IntegralOperator(grid, rank=4)):
            assert op.truncated(op.retained) is op
            with pytest.raises(ValueError):
                op.truncated(op.retained + 1)
        assert IdentityOperator(grid).retained == 12
        assert IntegralOperator(grid, rank=4).retained == 4
        # the diagonal operators keep all m pairs and have no truncation
        for op in (IdentityOperator(grid), MultiplicationOperator(grid)):
            with pytest.raises(ValueError, match="no rank-11 truncation"):
                op.truncated(11)
        with pytest.raises(ValueError, match="rank"):
            IntegralOperator(grid).truncated(0)

    def test_replaced_rank_has_fresh_caches(self):
        grid = Grid.uniform(0.0, 1.0, 20)
        wide = IntegralOperator(grid, rank=8)
        wide.eigvals()
        wide.matrix()
        narrow = dataclasses.replace(wide, rank=3)
        fresh = IntegralOperator(grid, rank=3)
        assert narrow == fresh and narrow.retained == 3
        assert np.array_equal(narrow.eigvals(), fresh.eigvals())
        assert np.array_equal(narrow.matrix(), fresh.matrix())

    def test_truncated_operator_builds_no_dense_matrix(self):
        op = IntegralOperator(Grid.uniform(0.0, 1.0, 50), rank=5)
        op.apply_rows(np.ones((2, 50)))
        op.eigvals()
        assert op._tmat is None
        assert op._eigvecs.shape == (50, 5)
        full = IntegralOperator(Grid.uniform(0.0, 1.0, 50))
        assert full._tmat is None
        first = full.matrix()
        assert full._tmat is not None
        assert np.array_equal(full.matrix(), first)


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

    def test_negative_weight_rejected(self, grid):
        # negative, non-finite and boolean weights alike
        for bad in (-0.1, float("nan"), float("inf"), -float("inf"), True):
            with pytest.raises(ValueError, match="term weight"):
                OvKernelTerm(GaussianKernel(1.0), IdentityOperator(grid), bad)

    @pytest.mark.parametrize("bad", [True, "3"])
    def test_norm_exponent_must_be_a_number(self, grid, bad):
        pairs = [(GaussianKernel(1.0), IdentityOperator(grid))]
        with pytest.raises(ValueError, match="norm exponent"):
            KernelStack.uniform(pairs, norm_exponent=bad)
        stack = KernelStack.uniform(pairs, norm_exponent=math.inf)
        assert stack.norm_exponent == math.inf


# one maker per value type; each makes a value unequal to every other's
VALUE_MAKERS = {
    "gaussian": lambda g: GaussianKernel(0.7),
    "polynomial": lambda g: PolynomialKernel(2, 0.5),
    "scaled": lambda g: ScaledKernel(GaussianKernel(0.7), 2.0),
    "identity": IdentityOperator,
    "multiplication": MultiplicationOperator,
    "integral": IntegralOperator,
    "integral rank 3": lambda g: IntegralOperator(g, rank=3),
    "stack": lambda g: KernelStack.uniform([(GaussianKernel(0.7), IdentityOperator(g))]),
}


@pytest.mark.parametrize("name", list(VALUE_MAKERS))
def test_values_are_frozen_and_compare_by_fields(grid, name):
    # neither a field nor derived state or a filled cache can be reassigned,
    # and the caches take no part in equality or hashing
    value = VALUE_MAKERS[name](grid)
    if isinstance(value, IntegralOperator):
        value.eigvals()
        value.matrix()
    assert {f.name for f in dataclasses.fields(value)} <= set(vars(value))
    for attr, current in vars(value).items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, current)
    twin = VALUE_MAKERS[name](grid)
    if name == "stack":
        assert twin != value  # stacks compare by identity
    else:
        assert twin == value and hash(twin) == hash(value)
    for other, make in VALUE_MAKERS.items():
        if other != name:
            assert make(grid) != value


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


def factored_stack_operator(kind, q, grid):
    if kind == "identity":
        return IdentityOperator(grid)
    if kind == "multiplication":
        return MultiplicationOperator(grid)
    return IntegralOperator(grid, rank=q)


def term_quad_oracle(G, op, alpha):
    """<(G kron T) a, a> in the quadrature pairing from the densified term,
    and the sum of its summands' magnitudes, the scale of its rounding."""
    K = BlockGram([G], [op], [1.0], op.grid).densify()
    a = alpha.ravel()
    wa = np.tile(op.grid.weights, alpha.shape[0]) * a
    return float((K @ a) @ wa), float((np.abs(K) @ np.abs(a)) @ np.abs(wa))


class TestFactoredProducts:
    """apply_values and quad_forms, which work from each operator's factors,
    against the densified block Gram."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(2, 40),
        n=st.integers(1, 7),
        uneven=st.booleans(),
        terms=st.lists(
            st.tuples(st.sampled_from(["identity", "multiplication", "integral"]),
                      st.floats(0.0, 1.0),
                      st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
            min_size=1, max_size=6),
        seed=st.integers(0, 2 ** 16),
    )
    # every kind, ranks 1 and m, a zero weight and a repeated operator, on
    # a grid where the truncated operators take the subset eigensolve
    @example(m=32, n=5, uneven=True,
             terms=[("identity", 0.0, 0.3), ("multiplication", 0.0, 0.0),
                    ("integral", 0.0, 0.4), ("integral", 1.0, 0.2),
                    ("integral", 0.2, 0.5), ("integral", 0.2, 0.1)], seed=3)
    # every weight zero: nothing is applied, and every form is still taken
    @example(m=5, n=2, uneven=False, terms=[("identity", 0.0, 0.0)], seed=4)
    def test_match_densified(self, m, n, uneven, terms, seed):
        rng = np.random.default_rng(seed)
        if uneven:
            points = np.cumsum(rng.uniform(0.05, 0.5, m)) - 1.0
            gout = Grid(points, rng.uniform(0.05, 0.5, m))
        else:
            gout = Grid.uniform(0.0, 1.0, m)
        X = random_curve_vec(rng, Grid.uniform(0.0, 1.0, m + 1), n)
        kernels = [GaussianKernel(0.8), PolynomialKernel(2), GaussianKernel(1.5)]
        grams = [kernels[k % 3].gram(X) for k in range(len(terms))]
        # rank q from 1 to m; q = m is the full-rank operator
        ops = [factored_stack_operator(kind, 1 + round(frac * (m - 1)), gout)
               for kind, frac, _ in terms]
        gram = BlockGram(grams, ops, [d for _, _, d in terms], gout)
        alpha = rng.normal(size=(n, m))

        expected = (gram.densify() @ alpha.ravel()).reshape(n, m)
        scale = max(float(np.abs(expected).max()), 1.0)
        np.testing.assert_allclose(gram.apply_values(alpha), expected,
                                   rtol=1e-10, atol=1e-12 * scale)

        quads = gram.quad_forms(alpha)
        assert quads.shape == (len(terms),)
        # a term of weight zero is formed like any other
        for k, (G, op) in enumerate(zip(grams, ops)):
            oracle, magnitude = term_quad_oracle(G, op, alpha)
            assert quads[k] == pytest.approx(oracle, rel=1e-10,
                                             abs=1e-12 * magnitude)


class TestQuadForms:
    def setup_gram(self, rng):
        gin = Grid.uniform(0, 1, 6)
        gout = Grid.uniform(0, 1, 5)
        xs = random_curve_vec(rng, gin, 3)
        stack = KernelStack.uniform(
            [(GaussianKernel(1.0), IdentityOperator(gout)),
             (PolynomialKernel(2), IntegralOperator(gout))])
        return assemble_gram(stack, xs), gout

    def test_zero_alpha(self, rng):
        gram, gout = self.setup_gram(rng)
        assert np.all(gram.quad_forms(np.zeros((3, gout.size))) == 0.0)

    def test_zero_weight(self, rng):
        # the weight does not enter the unweighted form: a term of weight
        # zero keeps its form
        gram, gout = self.setup_gram(rng)
        gram0 = gram.with_weights([0.0, 0.5])
        alpha = random_curve_vec(rng, gout, 3).values
        quads = gram0.quad_forms(alpha)
        assert quads[0] > 0.0
        assert quads[1] > 0.0
        assert np.array_equal(quads, gram.quad_forms(alpha))

    def test_densified_quadratic_form_oracle(self, rng):
        gram, gout = self.setup_gram(rng)
        alpha = random_curve_vec(rng, gout, 3)
        w_flat = np.tile(gout.weights, 3)
        a_flat = alpha.values.ravel()
        quads = gram.quad_forms(alpha.values)
        for k in range(2):
            K_k = np.kron(gram.scalar_grams[k], gram.operators[k].matrix())
            oracle = float((K_k @ a_flat) @ (w_flat * a_flat))
            assert quads[k] == pytest.approx(oracle, rel=1e-10, abs=1e-12)
