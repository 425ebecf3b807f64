import numpy as np
import pytest

from movkl import (
    Curve,
    CurveVec,
    DimensionError,
    Grid,
    l2_inner,
    l2_norm_sq,
    vec_inner,
    vec_norm_sq,
)
from movkl.funcspace import _BLOCK
from conftest import (random_curve, random_curve_vec, traced_peak,
                      writeable_through)


class TestGrid:
    def test_uniform_trapezoid_weights(self):
        g = Grid.uniform(0.0, 1.0, 5)
        step = 0.25
        assert np.allclose(g.weights, [step / 2, step, step, step, step / 2])
        assert np.isclose(g.weights.sum(), 1.0)

    def test_from_points_matches_uniform(self):
        g1 = Grid.uniform(0.0, 2.0, 9)
        g2 = Grid.from_points(np.linspace(0.0, 2.0, 9))
        assert np.allclose(g1.weights, g2.weights)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.0, 1.0], [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            Grid([0.0, 1.0], [0.5, -0.5])
        with pytest.raises(DimensionError):
            Grid([0.0, 1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            Grid([0.0], [1.0])

    @pytest.mark.parametrize("make", [
        lambda: Grid.from_points([0.0]),
        lambda: Grid.from_points([]),
        lambda: Grid.uniform(0.0, 1.0, 1),
        lambda: Grid.uniform(0.0, 1.0, 0),
    ])
    def test_constructors_reject_fewer_than_two_points(self, make):
        with pytest.raises(ValueError, match="at least 2 points"):
            make()

    def test_equality(self):
        assert Grid.uniform(0, 1, 4) == Grid.uniform(0, 1, 4)
        assert Grid.uniform(0, 1, 4) != Grid.uniform(0, 1, 5)


class TestCurve:
    def test_rejects_nan(self):
        g = Grid.uniform(0, 1, 3)
        with pytest.raises(ValueError):
            Curve(g, [1.0, np.nan, 0.0])

    def test_rejects_length_mismatch(self):
        g = Grid.uniform(0, 1, 3)
        with pytest.raises(DimensionError):
            Curve(g, [1.0, 2.0])

    def test_values_are_readonly(self):
        c = Curve(Grid.uniform(0, 1, 3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            c.values[0] = 5.0

    def test_curve_vec_requires_shared_grid(self):
        a = Curve(Grid.uniform(0, 1, 3), [1.0, 2.0, 3.0])
        b = Curve(Grid.uniform(0, 2, 3), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            CurveVec.from_curves([a, b])


class TestL2Inner:
    def test_constant_one_integrates_to_one(self):
        for m in (2, 5, 17, 101):
            g = Grid.uniform(0.0, 1.0, m)
            c = Curve(g, np.ones(m))
            assert abs(l2_inner(c, c) - 1.0) <= 1e-12

    def test_zero_curve(self, rng):
        g = Grid.uniform(0.0, 1.0, 9)
        z = Curve.zero(g)
        assert l2_inner(z, random_curve(rng, g)) == 0.0

    def test_linear_ramp_quadrature(self):
        # integral of t^2 over [0,1] is 1/3; also check against a 10x
        # refined grid as an independent quadrature oracle
        g = Grid.uniform(0.0, 1.0, 101)
        ramp = Curve(g, g.points)
        val = l2_inner(ramp, ramp)
        assert abs(val - 1.0 / 3.0) <= 1e-3

        g_fine = Grid.uniform(0.0, 1.0, 1001)
        fine = Curve(g_fine, g_fine.points)
        assert abs(val - l2_inner(fine, fine)) <= 1e-3

    def test_grid_mismatch_raises(self, rng):
        a = random_curve(rng, Grid.uniform(0, 1, 5))
        b = random_curve(rng, Grid.uniform(0, 2, 5))
        with pytest.raises(DimensionError):
            l2_inner(a, b)

    def test_symmetry(self, rng):
        g = Grid.uniform(0.0, 3.0, 13)
        for _ in range(20):
            a, b = random_curve(rng, g), random_curve(rng, g)
            assert l2_inner(a, b) == pytest.approx(l2_inner(b, a), abs=1e-15)

    def test_cauchy_schwarz(self, rng):
        g = Grid.uniform(-1.0, 1.0, 11)
        for _ in range(50):
            a, b = random_curve(rng, g), random_curve(rng, g)
            assert l2_inner(a, b) ** 2 <= l2_norm_sq(a) * l2_norm_sq(b) + 1e-12

    def test_linearity(self, rng):
        g = Grid.uniform(0.0, 1.0, 8)
        for _ in range(20):
            a, a2, b = (random_curve(rng, g) for _ in range(3))
            c = float(rng.normal())
            lhs = l2_inner(c * a + a2, b)
            rhs = c * l2_inner(a, b) + l2_inner(a2, b)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestL2Norm:
    def test_zero(self):
        assert l2_norm_sq(Curve.zero(Grid.uniform(0, 1, 6))) == 0.0

    def test_constant_two(self):
        g = Grid.uniform(0.0, 1.0, 21)
        c = Curve(g, np.full(21, 2.0))
        assert abs(l2_norm_sq(c) - 4.0) <= 1e-12

    def test_matches_inner(self, rng):
        g = Grid.uniform(0.0, 1.0, 10)
        a = random_curve(rng, g)
        assert l2_norm_sq(a) == l2_inner(a, a)


class TestVecInner:
    def test_zeros(self):
        g = Grid.uniform(0, 1, 4)
        z = CurveVec.zero(g, 2)
        assert vec_inner(z, z) == 0.0

    def test_single_curve_reduces_to_l2(self, rng):
        g = Grid.uniform(0, 1, 7)
        a, b = random_curve(rng, g), random_curve(rng, g)
        va = CurveVec.from_curves([a])
        vb = CurveVec.from_curves([b])
        assert vec_inner(va, vb) == pytest.approx(l2_inner(a, b), rel=1e-14)

    def test_flat_vector_oracle(self, rng):
        # independent computation: concatenate values and tile the weights
        g = Grid.uniform(0.0, 2.0, 8)
        a = random_curve_vec(rng, g, 3)
        b = random_curve_vec(rng, g, 3)
        flat_w = np.tile(g.weights, 3)
        oracle = float(np.dot(a.values.ravel() * flat_w, b.values.ravel()))
        assert vec_inner(a, b) == pytest.approx(oracle, rel=1e-13)

    def test_length_mismatch(self, rng):
        g = Grid.uniform(0, 1, 4)
        with pytest.raises(DimensionError):
            vec_inner(random_curve_vec(rng, g, 2), random_curve_vec(rng, g, 3))

    def test_norm_positive(self, rng):
        g = Grid.uniform(0, 1, 4)
        a = random_curve_vec(rng, g, 3)
        assert vec_norm_sq(a) > 0.0


class TestCurveVecIndexing:
    def test_item_shares_the_read_only_row(self, rng):
        g = Grid.uniform(0, 1, 5)
        cv = random_curve_vec(rng, g, 3)
        for i in (0, 2, -1):
            c = cv[i]
            assert isinstance(c, Curve) and c.grid is g
            assert np.shares_memory(c.values, cv.values)
            assert np.array_equal(c.values, cv.values[i])
            assert not c.values.flags.writeable
            with pytest.raises(ValueError):
                c.values[0] = 1.0

    @pytest.mark.parametrize("index", [slice(0, 2), slice(None), (0, 1),
                                       [0, 1], Ellipsis, None])
    def test_slice_or_2d_index_raises(self, rng, index):
        cv = random_curve_vec(rng, Grid.uniform(0, 1, 4), 3)
        with pytest.raises(DimensionError):
            cv[index]

    def test_out_of_range_raises_index_error(self, rng):
        cv = random_curve_vec(rng, Grid.uniform(0, 1, 4), 3)
        with pytest.raises(IndexError):
            cv[3]

    def test_curves_share_rows(self, rng):
        cv = random_curve_vec(rng, Grid.uniform(0, 1, 4), 3)
        assert all(np.shares_memory(c.values, cv.values) for c in cv.curves())


class TestTakeOverWithoutCopy:
    def test_curve_takes_over_fresh_array(self):
        g = Grid.uniform(0, 1, 4)
        values = np.arange(4.0)
        c = Curve(g, values, copy=False)
        assert c.values is values and not values.flags.writeable
        fresh = np.arange(4.0)
        assert not np.shares_memory(Curve(g, fresh).values, fresh)

    def test_curve_vec_takes_over_fresh_array(self):
        g = Grid.uniform(0, 1, 4)
        values = np.ones((2, 4))
        cv = CurveVec(g, values, copy=False)
        assert cv.values is values and not values.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_still_rejected(self, bad):
        g = Grid.uniform(0, 1, 4)
        values = np.ones((2, 4))
        values[1, 2] = bad
        with pytest.raises(ValueError):
            CurveVec(g, values, copy=False)
        with pytest.raises(ValueError):
            Curve(g, values[1].copy(), copy=False)

    def test_wrong_shape_still_rejected(self):
        g = Grid.uniform(0, 1, 4)
        with pytest.raises(DimensionError):
            Curve(g, np.ones(5), copy=False)
        with pytest.raises(DimensionError):
            CurveVec(g, np.ones((2, 3)), copy=False)

    def test_array_needing_conversion_is_refused(self):
        with pytest.raises(ValueError):
            Curve(Grid.uniform(0, 1, 3), np.arange(3), copy=False)


class TestSharingRule:
    """A float64 array that nothing can write through is shared; any other
    input is copied, and shared values are still validated."""

    def test_slice_of_curve_vec_values_is_shared(self, rng):
        g = Grid.uniform(0, 1, 5)
        cv = random_curve_vec(rng, g, 6)
        for part in (cv.values[1:4], cv.values[::2], cv.values[-1:]):
            sub = CurveVec(g, part)
            assert sub.values is part
            assert not writeable_through(sub.values)
        row = Curve(g, cv.values[2])
        assert row.values.base is cv.values

    def test_writeable_array_is_copied(self):
        g = Grid.uniform(0, 1, 4)
        values = np.ones((2, 4))
        cv = CurveVec(g, values)
        assert not np.shares_memory(cv.values, values)
        values[0, 0] = 7.0
        assert cv.values[0, 0] == 1.0

    def test_read_only_view_of_writeable_array_is_copied(self):
        g = Grid.uniform(0, 1, 4)
        base = np.ones((3, 4))
        view = base[1:]
        view.setflags(write=False)
        cv = CurveVec(g, view)
        c = Curve(g, view[0])
        assert not np.shares_memory(cv.values, base)
        assert not np.shares_memory(c.values, base)
        base[1, 0] = 7.0
        assert cv.values[0, 0] == 1.0 and c.values[0] == 1.0
        assert not writeable_through(cv.values)

    def test_array_over_bytes_is_copied(self):
        g = Grid.uniform(0, 1, 4)
        raw = np.arange(8.0).tobytes()
        flat = np.frombuffer(raw, dtype=np.float64)
        assert not flat.flags.writeable
        cv = CurveVec(g, flat.reshape(2, 4))
        assert not np.shares_memory(cv.values, flat)
        assert cv.values.base is None
        assert np.array_equal(cv.values, np.arange(8.0).reshape(2, 4))

    def test_read_only_memmap_is_copied(self, tmp_path):
        path = tmp_path / "values.bin"
        np.arange(8.0).tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(2, 4))
        g = Grid.uniform(0, 1, 4)
        for values in (mapped, np.asarray(mapped), mapped[1]):
            taken = CurveVec(g, values).values
            assert type(taken) is np.ndarray
            assert not np.shares_memory(taken, mapped)

    def test_read_only_non_float64_is_converted(self):
        g = Grid.uniform(0, 1, 3)
        for values in (np.arange(3), np.arange(3.0, dtype=np.float32),
                       np.arange(3.0).astype(">f8")):
            values.setflags(write=False)
            c = Curve(g, values)
            assert c.values.dtype == np.dtype(np.float64)
            assert not np.shares_memory(c.values, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shared_values_are_still_validated(self, bad):
        g = Grid.uniform(0, 1, 4)
        values = np.ones((3, 4))
        values[2, 1] = bad
        values.setflags(write=False)
        with pytest.raises(ValueError, match="finite"):
            CurveVec(g, values)
        with pytest.raises(ValueError, match="finite"):
            CurveVec(g, values[1:])
        with pytest.raises(ValueError, match="finite"):
            Curve(g, values[2])
        with pytest.raises(DimensionError):
            CurveVec(Grid.uniform(0, 1, 3), values[:2])

    @pytest.mark.parametrize("row", [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 2])
    def test_finiteness_check_covers_every_row(self, row):
        g = Grid.uniform(0, 1, 3)
        values = np.ones((2 * _BLOCK + 3, 3))
        values[row, 1] = np.nan
        values.setflags(write=False)
        with pytest.raises(ValueError, match="curve values must be finite"):
            CurveVec(g, values)

    def test_shared_slice_is_validated_without_a_full_mask(self):
        # a 10,000 x 600 slice is shared, not copied; an np.isfinite mask of
        # all of it would take 6 MB, one block of rows takes 154 kB
        g = Grid.uniform(0, 1, 600)
        values = np.zeros((10001, 600))
        values.setflags(write=False)
        part = values[1:]
        cv, peak = traced_peak(CurveVec, g, part)
        assert cv.values is part
        assert peak < part.size // 8

    def test_copy_false_keeps_its_meaning(self):
        # a read-only view of a writeable array is taken as it is when the
        # caller vouches for it, and copied otherwise
        g = Grid.uniform(0, 1, 4)
        base = np.ones((3, 4))
        view = base[1:]
        view.setflags(write=False)
        assert CurveVec(g, view, copy=False).values is view
        assert CurveVec(g, view).values is not view

    def test_grid_shares_frozen_points(self):
        g = Grid.uniform(0, 1, 5)
        assert Grid(g.points, g.weights).points is g.points
        points = np.linspace(0, 1, 5)
        assert Grid(points, g.weights).points is not points

    def test_from_curves_takes_over_its_stack(self, rng):
        g = Grid.uniform(0, 1, 4)
        curves = [random_curve(rng, g) for _ in range(3)]
        cv = CurveVec.from_curves(curves)
        assert cv.values.base is None and not cv.values.flags.writeable
        assert not any(np.shares_memory(cv.values, c.values) for c in curves)
