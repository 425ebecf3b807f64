import itertools
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movkl import (
    CurveDataset,
    CurveVec,
    DataError,
    Grid,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    load_dataset_blocks,
    save_dataset,
    stacked_channel_grid,
)
from movkl import data
from movkl.data import load_feature_csv
from conftest import force_workers, traced_peak, writeable_through


# ---------------------------------------------------------------------------
# slow reference: the per-sample definition of the synthetic task, the
# per-value text writer and the whole-text reader, kept as the oracles for
# the block-wise generator and the streaming writer and reader
# ---------------------------------------------------------------------------

def reference_generate(spec: SynthSpec) -> CurveDataset:
    rng = np.random.default_rng(spec.seed)
    m = spec.grid_size
    out_grid = Grid.uniform(0.0, 1.0, m)
    t = out_grid.points
    step = 1.0 / (m - 1)
    shift = spec.latency * step

    gains = rng.uniform(2.5, 5.0, spec.channel_count)
    halfwidths = rng.integers(10, 21, spec.channel_count)
    halfwidths = np.minimum(halfwidths, (m - 1) // 2)

    targets = np.empty((spec.n_samples, m))
    labels = np.empty((spec.n_samples, m))
    inputs = np.empty((spec.n_samples, spec.channel_count * m))
    for i in range(spec.n_samples):
        freqs = np.concatenate([rng.uniform(0.3, 2.2, 4),
                                rng.uniform(4.0, 10.0, 3)])
        amps = np.concatenate([rng.uniform(0.3, 0.9, 4),
                               rng.uniform(0.2, 0.5, 3)])
        phases = rng.uniform(0.0, 2.0 * np.pi, 7)

        def amplitude(u):
            waves = amps[:, None] * np.sin(
                2.0 * np.pi * freqs[:, None] * u[None, :] + phases[:, None]
            )
            return np.maximum(waves.sum(axis=0), 0.0)

        targets[i] = amplitude(t)
        peak = targets[i].max()
        labels[i] = (targets[i] > 0.1 * peak).astype(float) if peak > 0 else 0.0
        delayed = amplitude(t - shift)
        for c in range(spec.channel_count):
            if spec.random_filters:
                filtered = reference_boxcar(delayed, int(halfwidths[c]))
                filtered = gains[c] * (filtered - filtered.mean())
            else:
                filtered = delayed
            noise = rng.normal(0.0, spec.noise_std, m) if spec.noise_std > 0 else 0.0
            inputs[i, c * m:(c + 1) * m] = filtered + noise

    in_grid = stacked_channel_grid(m, spec.channel_count)
    return CurveDataset(
        inputs=CurveVec(in_grid, inputs),
        targets=CurveVec(out_grid, targets),
        labels=CurveVec(out_grid, labels),
    )


def reference_boxcar(values: np.ndarray, halfwidth: int) -> np.ndarray:
    if halfwidth <= 0:
        return values.copy()
    kernel = np.ones(2 * halfwidth + 1) / (2 * halfwidth + 1)
    padded = np.pad(values, halfwidth, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def reference_fmt(values) -> str:
    return ",".join(format(float(v), ".17g") for v in values)


def reference_save_dataset(path, ds: CurveDataset) -> None:
    lines = [
        data.FORMAT_TAG,
        f"n={ds.n}",
        f"has_labels={int(ds.labels is not None)}",
        "input_grid_points=" + reference_fmt(ds.input_grid.points),
        "input_grid_weights=" + reference_fmt(ds.input_grid.weights),
        "output_grid_points=" + reference_fmt(ds.output_grid.points),
        "output_grid_weights=" + reference_fmt(ds.output_grid.weights),
    ]
    for i in range(ds.n):
        lines.append("input=" + reference_fmt(ds.inputs.values[i]))
        lines.append("target=" + reference_fmt(ds.targets.values[i]))
        if ds.labels is not None:
            lines.append("label=" + reference_fmt(ds.labels.values[i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class ReferenceReader:
    """The whole-text reader: every line in memory at once."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def next_field(self, key: str) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: unexpected end of file, wanted '{key}='")
        line = self.lines[self.pos]
        self.pos += 1
        prefix = key + "="
        if not line.startswith(prefix):
            raise DataError(
                f"{self.path}:{self.pos}: expected '{key}=...', got {line[:40]!r}"
            )
        return line[len(prefix):]

    def floats(self, key: str) -> np.ndarray:
        raw = self.next_field(key)
        try:
            values = np.array(raw.split(",") if raw else [], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{self.path}:{self.pos}: bad number in '{key}': {exc}")
        if values.size and not np.all(np.isfinite(values)):
            raise DataError(
                f"{self.path}:{self.pos}: non-finite value in '{key}'"
            )
        return values


def reference_load_dataset(path) -> CurveDataset:
    r = ReferenceReader(path)
    if r.pos >= len(r.lines) or r.lines[0] != data.FORMAT_TAG:
        raise DataError(f"{path}: not a '{data.FORMAT_TAG}' file")
    r.pos = 1
    try:
        n = int(r.next_field("n"))
        has_labels = int(r.next_field("has_labels"))
    except ValueError as exc:
        raise DataError(f"{path}: bad header: {exc}")
    if n < 1:
        raise DataError(f"{path}: dataset is empty")
    if has_labels not in (0, 1):
        raise DataError(f"{path}: has_labels must be 0 or 1")
    try:
        in_grid = Grid(r.floats("input_grid_points"), r.floats("input_grid_weights"))
        out_grid = Grid(r.floats("output_grid_points"), r.floats("output_grid_weights"))
    except ValueError as exc:
        raise DataError(f"{path}: bad grid: {exc}")

    inputs = np.empty((n, in_grid.size))
    targets = np.empty((n, out_grid.size))
    labels = np.empty((n, out_grid.size)) if has_labels else None
    for i in range(n):
        inputs[i] = reference_record(r, "input", in_grid.size, i)
        targets[i] = reference_record(r, "target", out_grid.size, i)
        if has_labels:
            labels[i] = reference_record(r, "label", out_grid.size, i)
            if np.any(np.minimum(np.abs(labels[i]), np.abs(labels[i] - 1.0)) > 1e-9):
                raise DataError(f"{path}:{r.pos}: record {i}: label curves must "
                                "be {0, 1}-valued")
    if r.pos != len(r.lines):
        raise DataError(f"{path}:{r.pos + 1}: trailing content after {n} records")
    return CurveDataset(
        inputs=CurveVec(in_grid, inputs),
        targets=CurveVec(out_grid, targets),
        labels=None if labels is None else CurveVec(out_grid, labels),
    )


def reference_record(r: ReferenceReader, key: str, size: int, index: int) -> np.ndarray:
    values = r.floats(key)
    if values.size != size:
        raise DataError(
            f"{r.path}:{r.pos}: record {index}: '{key}' has {values.size} "
            f"values, expected {size}"
        )
    return values


def assert_same_bits(ds: CurveDataset, ref: CurveDataset):
    for name in ("inputs", "targets", "labels"):
        got, want = getattr(ds, name), getattr(ref, name)
        assert got.grid == want.grid, name
        assert got.values.dtype == want.values.dtype, name
        assert got.values.shape == want.values.shape, name
        assert got.values.tobytes() == want.values.tobytes(), name


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_samples=0, grid_size=10)
        with pytest.raises(ValueError):
            SynthSpec(n_samples=2, grid_size=10, latency=10)
        with pytest.raises(ValueError):
            SynthSpec(n_samples=2, grid_size=10, noise_std=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(n_samples=2, grid_size=10, channel_count=0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"),
                                       -float("inf"), True, "0.1", None])
    def test_non_finite_or_non_numeric_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            SynthSpec(n_samples=2, grid_size=10, noise_std=noise)

    @pytest.mark.parametrize("field", ["n_samples", "grid_size", "latency",
                                       "channel_count", "seed"])
    @pytest.mark.parametrize("bad", [2.5, True, "3", None, float("nan")])
    def test_non_integral_counts_rejected(self, field, bad):
        kwargs = {"n_samples": 4, "grid_size": 10, "latency": 1,
                  "channel_count": 2, "seed": 1, field: bad}
        with pytest.raises(ValueError, match=field):
            SynthSpec(**kwargs)

    def test_integral_floats_become_ints(self):
        spec = SynthSpec(n_samples=4.0, grid_size=10.0, latency=3.0,
                         channel_count=2.0, seed=7.0)
        for field in ("n_samples", "grid_size", "latency", "channel_count", "seed"):
            assert type(getattr(spec, field)) is int
        assert (spec.n_samples, spec.grid_size, spec.latency,
                spec.channel_count, spec.seed) == (4, 10, 3, 2, 7)
        ref = SynthSpec(n_samples=4, grid_size=10, latency=3, channel_count=2,
                        seed=7)
        assert_same_bits(generate_synthetic(spec), generate_synthetic(ref))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SynthSpec(n_samples=2, grid_size=10, seed=-1)


class TestGeneratorMatchesReference:
    """The block-wise generator reproduces the per-sample definition bit
    for bit: same draws in the same order, same arithmetic per value."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        grid_size=st.one_of(st.sampled_from([2, 3]), st.integers(4, 41),
                            st.integers(42, 70)),
        latency_frac=st.floats(0.0, 0.99),
        channels=st.integers(1, 3),
        n=st.one_of(st.just(1), st.integers(2, 40)),
        noise_std=st.sampled_from([0.0, 0.05, 0.7]),
        random_filters=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(grid_size=2, latency_frac=0.5, channels=3, n=1, noise_std=0.3,
             random_filters=True, seed=0)
    @example(grid_size=3, latency_frac=0.5, channels=2, n=5, noise_std=0.0,
             random_filters=True, seed=1)
    @example(grid_size=41, latency_frac=0.4, channels=3, n=7, noise_std=0.1,
             random_filters=True, seed=20120706)
    def test_bit_identical(self, grid_size, latency_frac, channels, n,
                           noise_std, random_filters, seed):
        spec = SynthSpec(n_samples=n, grid_size=grid_size,
                         latency=int(latency_frac * grid_size),
                         channel_count=channels, noise_std=noise_std,
                         seed=seed, random_filters=random_filters)
        assert_same_bits(generate_synthetic(spec), reference_generate(spec))

    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    @pytest.mark.parametrize("random_filters", [True, False])
    def test_more_samples_than_one_block(self, noise_std, random_filters):
        spec = SynthSpec(n_samples=2 * data._BLOCK + 37, grid_size=45,
                         latency=6, channel_count=2, noise_std=noise_std,
                         seed=5, random_filters=random_filters)
        assert_same_bits(generate_synthetic(spec), reference_generate(spec))

    def test_desk_task_prefix(self):
        # the criterion-5 task's first curves, on its 200-point grid
        spec = SynthSpec(n_samples=40, grid_size=200, latency=15,
                         channel_count=3, noise_std=0.1, seed=20120706)
        assert_same_bits(generate_synthetic(spec), reference_generate(spec))


class TestParallelGenerator:
    """The block arithmetic runs on the thread engine while this thread
    draws; the arrays must not depend on how many threads there are, and
    the helpers must be gone when the call returns, by value or by
    exception."""

    n = 4 * data._GEN_BLOCK + 17

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    @pytest.mark.parametrize("random_filters", [True, False])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, workers,
                                                noise_std, random_filters):
        force_workers(monkeypatch, workers)
        spec = SynthSpec(n_samples=self.n, grid_size=45, latency=6,
                         channel_count=2, noise_std=noise_std, seed=5,
                         random_filters=random_filters)
        assert_same_bits(generate_synthetic(spec), reference_generate(spec))

    @pytest.mark.parametrize("grid_size,latency,shared", [
        (30, 0, 30),    # every shifted point is a grid point
        (40, 25, 0),    # no shifted point is a grid point, bit for bit
    ])
    def test_shared_points(self, monkeypatch, grid_size, latency, shared):
        t = Grid.uniform(0.0, 1.0, grid_size).points
        assert np.intersect1d(t, t - latency / (grid_size - 1)).size == shared
        force_workers(monkeypatch, 2)
        spec = SynthSpec(n_samples=self.n, grid_size=grid_size, latency=latency,
                         channel_count=2, noise_std=0.1, seed=8)
        assert_same_bits(generate_synthetic(spec), reference_generate(spec))

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        # the workers share only read-only inputs and write disjoint rows;
        # frequent thread switches would expose any shared write
        force_workers(monkeypatch, 8)
        spec = SynthSpec(n_samples=self.n, grid_size=33, latency=4,
                         channel_count=3, noise_std=0.2, seed=21)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ds = generate_synthetic(spec)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(ds, reference_generate(spec))

    def test_no_thread_left_after_return(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        generate_synthetic(SynthSpec(n_samples=self.n, grid_size=20, seed=2))
        assert threading.active_count() == before

    def test_error_in_a_block_propagates_and_stops_the_pool(self, monkeypatch):
        force_workers(monkeypatch, 3)
        calls = itertools.count()
        boxcar = data._boxcar_rows

        def failing_boxcar(rows, halfwidth):
            if next(calls) == 2:
                raise RuntimeError("block failed")
            return boxcar(rows, halfwidth)

        monkeypatch.setattr(data, "_boxcar_rows", failing_boxcar)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            generate_synthetic(SynthSpec(n_samples=self.n, grid_size=20,
                                         channel_count=1, seed=2))
        assert threading.active_count() == before

    def test_streamed_file_equals_saved_dataset(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 3)
        spec = SynthSpec(n_samples=self.n, grid_size=20, latency=3,
                         channel_count=2, noise_std=0.1, seed=6)
        data._save_synthetic(tmp_path / "streamed.txt", spec)
        save_dataset(tmp_path / "saved.txt", generate_synthetic(spec))
        assert ((tmp_path / "streamed.txt").read_bytes()
                == (tmp_path / "saved.txt").read_bytes())

    def test_failed_write_stops_the_pool(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 3)
        calls = itertools.count()
        fmt = data._format_row

        def failing_fmt(row):
            # the header takes 4 rows; fail in the second block's records
            if next(calls) == 4 + 3 * (data._GEN_BLOCK + 5):
                raise OSError("disk full")
            return fmt(row)

        monkeypatch.setattr(data, "_format_row", failing_fmt)
        before = threading.active_count()
        with pytest.raises(OSError, match="disk full"):
            data._save_synthetic(tmp_path / "d.txt", SynthSpec(
                n_samples=self.n, grid_size=20, seed=2))
        assert threading.active_count() == before


class TestGenerator:
    def test_same_seed_bit_identical(self):
        spec = SynthSpec(n_samples=5, grid_size=30, latency=3,
                         channel_count=2, noise_std=0.2, seed=99)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.inputs.values, b.inputs.values)
        assert np.array_equal(a.targets.values, b.targets.values)
        assert np.array_equal(a.labels.values, b.labels.values)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SynthSpec(n_samples=3, grid_size=20, seed=1))
        b = generate_synthetic(SynthSpec(n_samples=3, grid_size=20, seed=2))
        assert not np.array_equal(a.targets.values, b.targets.values)

    def test_clean_identity_channel_matches_target(self):
        spec = SynthSpec(n_samples=4, grid_size=25, latency=0,
                         channel_count=1, noise_std=0.0, seed=3,
                         random_filters=False)
        ds = generate_synthetic(spec)
        assert np.array_equal(ds.inputs.values, ds.targets.values)

    @staticmethod
    def correlation_lag(ds):
        # unbiased cross-correlation (mean-centered, overlap-normalized)
        m = ds.output_grid.size
        acc = np.zeros(2 * m - 1)
        for i in range(ds.n):
            x = ds.inputs.values[i][:m] - ds.inputs.values[i][:m].mean()
            y = ds.targets.values[i] - ds.targets.values[i].mean()
            acc += np.correlate(x, y, mode="full")
        overlap = m - np.abs(np.arange(-(m - 1), m))
        return int(np.argmax(acc / overlap)) - (m - 1)

    @pytest.mark.parametrize("tau", [0, 10])
    def test_latency_shows_up_as_correlation_lag(self, tau):
        spec = SynthSpec(n_samples=40, grid_size=60, latency=tau,
                         channel_count=1, noise_std=0.0, seed=11,
                         random_filters=False)
        assert self.correlation_lag(generate_synthetic(spec)) == tau

    def test_latency_survives_channel_filters(self):
        # smearing filters blur but do not destroy the latency signature
        tau = 15
        spec = SynthSpec(n_samples=40, grid_size=200, latency=tau,
                         channel_count=3, noise_std=0.1, seed=11)
        assert abs(self.correlation_lag(generate_synthetic(spec)) - tau) <= 8

    def test_exact_sample_shift(self):
        # with identity filters and no noise the input equals the target
        # delayed by exactly the latency, over the overlapping samples
        tau = 7
        spec = SynthSpec(n_samples=3, grid_size=40, latency=tau,
                         channel_count=1, noise_std=0.0, seed=5,
                         random_filters=False)
        ds = generate_synthetic(spec)
        assert np.allclose(ds.inputs.values[:, tau:],
                           ds.targets.values[:, :-tau], atol=1e-12)

    def test_labels_are_binary_and_values_finite(self):
        ds = generate_synthetic(SynthSpec(n_samples=6, grid_size=40,
                                          latency=5, channel_count=3,
                                          noise_std=0.5, seed=4))
        vals = ds.labels.values
        assert np.all((vals == 0.0) | (vals == 1.0))
        assert np.all(np.isfinite(ds.inputs.values))
        assert np.all(np.isfinite(ds.targets.values))

    def test_labels_track_amplitude_threshold(self):
        ds = generate_synthetic(SynthSpec(n_samples=5, grid_size=50, seed=8))
        for i in range(ds.n):
            target = ds.targets.values[i]
            expected = (target > 0.1 * target.max()).astype(float)
            assert np.array_equal(ds.labels.values[i], expected)

    def test_stacked_grid_geometry(self):
        g = stacked_channel_grid(10, 3)
        assert g.size == 30
        assert np.all(np.diff(g.points) > 0)
        # each channel segment integrates to one
        assert np.isclose(g.weights[:10].sum(), 1.0)
        assert np.isclose(g.weights.sum(), 3.0)


class TestFileFormat:
    @pytest.mark.parametrize("spec", [
        SynthSpec(n_samples=9, grid_size=31, latency=4, channel_count=3,
                  noise_std=0.2, seed=8),
        SynthSpec(n_samples=3, grid_size=2, seed=1, random_filters=False),
    ])
    def test_save_matches_per_value_writer(self, tmp_path, spec):
        ds = generate_synthetic(spec)
        save_dataset(tmp_path / "new.txt", ds)
        reference_save_dataset(tmp_path / "ref.txt", ds)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_save_awkward_values_matches_per_value_writer(self, tmp_path):
        # signed zeros, subnormals, extremes and values needing 17 digits
        awkward = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                   -1.7976931348623157e308, 1 / 3, 0.1, 1e16, 1e17, 2.5e-5,
                   123456789012345678.0, -1.0, 7.0, 1e-7, 9.999999999999999e22]
        values = np.array(awkward)
        gin = Grid.uniform(-3.0, 1e-3, values.size)
        gout = Grid.from_points(np.array([0.0, 1 / 3, 0.7]))
        ds = CurveDataset(
            inputs=CurveVec(gin, np.stack([values, values[::-1]])),
            targets=CurveVec(gout, [[1e-300, -0.0, 3.0], [0.5, -5e-324, 1e200]]),
        )
        save_dataset(tmp_path / "new.txt", ds)
        reference_save_dataset(tmp_path / "ref.txt", ds)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        loaded = load_dataset(tmp_path / "new.txt")
        assert loaded.inputs.values.tobytes() == ds.inputs.values.tobytes()
        assert loaded.targets.values.tobytes() == ds.targets.values.tobytes()

    @pytest.mark.parametrize("token,message", [
        ("abc", "could not convert string to float: 'abc'"),
        ("0x1p3", "could not convert string to float: '0x1p3'"),
        ("", "could not convert string to float: ''"),
    ])
    def test_bad_number_reports_line_and_token(self, tmp_path, token, message):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=0))
        path = tmp_path / "bad.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        idx = [i for i, line in enumerate(lines) if line.startswith("target=")][1]
        parts = lines[idx].split(",")
        parts[1] = token
        lines[idx] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}:{idx + 1}: bad number in 'target': {message}")

    def test_float_syntax_accepted_as_python_float(self, tmp_path):
        # whitespace, underscores and any-case inf spellings parse exactly
        # as float() parses them; only finiteness is checked afterwards
        ds = generate_synthetic(SynthSpec(n_samples=1, grid_size=4, seed=0))
        path = tmp_path / "odd.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        idx = next(i for i, line in enumerate(lines) if line.startswith("input="))
        lines[idx] = "input= 1_000 ,+2.5e0,-0,.5"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_dataset(path)
        expected = np.array([1000.0, 2.5, -0.0, 0.5])
        assert loaded.inputs.values[0].tobytes() == expected.tobytes()
        lines[idx] = "input=1,2,3,-Infinity"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":{idx + 1}: non-finite value in 'input'"):
            load_dataset(path)

    def test_minimal_round_trip(self, tmp_path):
        gin = Grid.uniform(0, 1, 4)
        gout = Grid.uniform(0, 2, 3)
        ds = CurveDataset(
            inputs=CurveVec(gin, [[0.1, -0.2, 0.3, 1e-17]]),
            targets=CurveVec(gout, [[1.0, 2.0, 3.0]]),
        )
        path = tmp_path / "tiny.txt"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.inputs.values, ds.inputs.values)
        assert np.array_equal(loaded.targets.values, ds.targets.values)
        assert loaded.labels is None
        # writing again reproduces the bytes
        path2 = tmp_path / "tiny2.txt"
        save_dataset(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_generated_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=7, grid_size=23,
                                          latency=2, channel_count=2,
                                          noise_std=0.3, seed=42))
        path = tmp_path / "synth.txt"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.inputs.values, ds.inputs.values)
        assert np.array_equal(loaded.targets.values, ds.targets.values)
        assert np.array_equal(loaded.labels.values, ds.labels.values)
        assert loaded.input_grid == ds.input_grid
        assert loaded.output_grid == ds.output_grid

    def test_nan_rejected_with_record_index(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=3, grid_size=5, seed=0))
        path = tmp_path / "bad.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        # corrupt the second sample's target record
        idx = next(i for i, line in enumerate(lines)
                   if line.startswith("target="))
        idx += 3  # next record block (input, target, label per sample)
        assert lines[idx].startswith("target=")
        parts = lines[idx].split(",")
        parts[2] = "nan"
        lines[idx] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-finite"):
            load_dataset(path)

    def test_wrong_length_record(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=0))
        path = tmp_path / "bad.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if line.startswith("input="))
        lines[idx] = lines[idx].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="record 0"):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError, match="not a"):
            load_dataset(path)

    def test_truncated_file(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=0))
        path = tmp_path / "trunc.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_non_binary_labels_rejected(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=0))
        path = tmp_path / "bad.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if line.startswith("label="))
        parts = lines[idx].split(",")
        parts[0] = "label=0.7"
        lines[idx] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_dataset(path)


class TestFeatureCsv:
    def test_happy_path(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(3):
            features = rng.normal(size=2 * 4 + 5)
            labels = rng.integers(0, 2, 5)
            rows.append(",".join(str(v) for v in np.concatenate([features,
                                                                 labels])))
        path = tmp_path / "features.csv"
        path.write_text("# comment\n" + "\n".join(rows) + "\n")
        ds = load_feature_csv(path, channels=2, input_len=4, output_len=5,
                              has_labels=True)
        assert ds.n == 3
        assert ds.input_grid.size == 8
        assert ds.output_grid.size == 5
        assert ds.labels is not None

    def test_values_match_python_float(self, tmp_path):
        rows = [[0.1, -0.0, 1 / 3, 5e-324, 1e308, 1.0, 0.0],
                [1e-7, 3.0, -2.5, 123456789.123456789, -0.0, 0.0, 1.0]]
        text = "\n".join(",".join(format(v, ".17g") for v in row) for row in rows)
        path = tmp_path / "features.csv"
        path.write_text(text + "\n\n  # trailing comment\n")
        ds = load_feature_csv(path, channels=1, input_len=3, output_len=2,
                              has_labels=True)
        table = np.array(rows)
        assert ds.inputs.values.tobytes() == table[:, :3].tobytes()
        assert ds.targets.values.tobytes() == table[:, 3:5].tobytes()
        assert ds.labels.values.tobytes() == table[:, 5:].tobytes()

    @pytest.mark.parametrize("line,message", [
        ("1,2,x,4", "bad number: could not convert string to float: 'x'"),
        ("1,2,,4", "bad number: could not convert string to float: ''"),
        ("1,2,nan,4", "non-finite value"),
    ])
    def test_bad_value_reports_line(self, tmp_path, line, message):
        path = tmp_path / "features.csv"
        path.write_text("# header\n1,2,3,4\n" + line + "\n")
        with pytest.raises(DataError) as err:
            load_feature_csv(path, channels=1, input_len=2, output_len=2)
        assert str(err.value) == f"{path}:3: {message}"

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(DataError, match="expected"):
            load_feature_csv(path, channels=1, input_len=2, output_len=2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("# only comments\n")
        with pytest.raises(DataError, match="no data rows"):
            load_feature_csv(path, channels=1, input_len=2, output_len=2)


# ---------------------------------------------------------------------------
# the streaming reader against the whole-text reader
# ---------------------------------------------------------------------------

# every line boundary of str.splitlines() besides "\n"
SEPARATORS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
BAD_TOKENS = ["abc", "", "nan", "-inf", "1e400", "0x1p3", " 2.5 ", "1_0", "+",
              "0.7", "3", "-0", "1,2"]
TRAILERS = ["", " ", "extra", "input=1,2", "label=0", "movkl-dataset v1"]


def dataset_text(ds: CurveDataset) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ds.txt"
        save_dataset(path, ds)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


BASE_TEXTS = [
    dataset_text(generate_synthetic(SynthSpec(n_samples=3, grid_size=4,
                                              channel_count=2, noise_std=0.3,
                                              seed=2))),
    dataset_text(CurveDataset(
        inputs=CurveVec(Grid.uniform(0, 1, 3), [[0.5, -0.0, 1e-300], [1, 2, 3]]),
        targets=CurveVec(Grid.from_points([0.0, 0.2, 1.0]), [[1, 0, 1], [7, 8, 9]]),
    )),
]


def load_outcome(load, path):
    """The dataset a loader returns, or the type and text of its error."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_dataset(got: CurveDataset, want: CurveDataset):
    for name in ("input_grid", "output_grid"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.points.tobytes() == w.points.tobytes(), name
        assert g.weights.tobytes() == w.weights.tobytes(), name
    for name in ("inputs", "targets", "labels"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert g.values.shape == w.values.shape, name
            assert g.values.tobytes() == w.values.tobytes(), name


def assert_loads_like_reference(path):
    got = load_outcome(load_dataset, path)
    want = load_outcome(reference_load_dataset, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_dataset(got, want)
    return got


@st.composite
def mutated_texts(draw):
    lines = draw(st.sampled_from(BASE_TEXTS)).splitlines()
    for op in draw(st.lists(st.sampled_from(["drop", "dup", "bad", "trail"]),
                            max_size=3)):
        if op == "trail":
            lines.append(draw(st.sampled_from(TRAILERS)))
            continue
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            key, eq, rest = lines[i].rpartition("=")
            parts = rest.split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[i] = key + eq + ",".join(parts)
    style = draw(st.sampled_from(["lf", "crlf", "mixed"]))
    if style == "mixed":
        seps = draw(st.lists(st.sampled_from(["\n"] * 3 + SEPARATORS),
                             min_size=len(lines), max_size=len(lines)))
    else:
        seps = ["\n" if style == "lf" else "\r\n"] * len(lines)
    text = "".join(line + sep for line, sep in zip(lines, seps))
    if lines and draw(st.booleans()):
        text = text[:-len(seps[-1])]  # no final line break
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestStreamingReaderMatchesReference:
    """The streaming reader gives the whole-text reader's arrays bit for
    bit, or its error with the same type and text."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=mutated_texts())
    def test_mutated_files(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/mutated.txt"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert_loads_like_reference(path)

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_every_line_break(self, tmp_path, sep):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=3))
        for final in (sep, ""):
            path = tmp_path / "sep.txt"
            text = sep.join(dataset_text(ds).splitlines()) + final
            path.write_bytes(text.encode("utf-8"))
            assert_same_bits(assert_loads_like_reference(path), ds)

    @pytest.mark.parametrize("text", ["", "\n", "movkl-dataset v1",
                                      "movkl-dataset v1\r\nn=1"])
    def test_short_files(self, tmp_path, text):
        path = tmp_path / "short.txt"
        path.write_bytes(text.encode("utf-8"))
        assert isinstance(assert_loads_like_reference(path), tuple)

    def test_trailing_content_names_its_line(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=0))
        path = tmp_path / "trail.txt"
        text = dataset_text(ds)
        count = len(text.splitlines())
        path.write_text(text + "\nextra\n")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}:{count + 1}: trailing content after 2 records"


def set_first_value(lines: list[str], i: int, token: str) -> None:
    """Replace the first value of record line i with ``token``."""
    key, _, rest = lines[i].partition("=")
    lines[i] = key + "=" + ",".join([token] + rest.split(",")[1:])


class TestBlockReader:
    """load_dataset_blocks cuts load_dataset's arrays into blocks, and
    raises its errors when the reader reaches them."""

    @pytest.fixture
    def labelled(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=23, grid_size=5,
                                          channel_count=2, noise_std=0.1, seed=4))
        path = tmp_path / "labelled.txt"
        save_dataset(path, ds)
        return path

    @pytest.mark.parametrize("size", [1, 7, 22, 23, 64, None])
    def test_blocks_are_the_dataset_in_order(self, tmp_path, labelled, size):
        unlabelled = tmp_path / "unlabelled.txt"
        whole = load_dataset(labelled)
        save_dataset(unlabelled, CurveDataset(whole.inputs, whole.targets))
        for path in (labelled, unlabelled):
            want = load_dataset(path)
            blocks = list(load_dataset_blocks(path, size))
            step = size or want.n
            assert [b.n for b in blocks] == [min(step, want.n - lo)
                                             for lo in range(0, want.n, step)]
            for k, block in enumerate(blocks):
                rows = slice(k * step, (k + 1) * step)
                assert_same_dataset(block, CurveDataset(
                    inputs=CurveVec(want.input_grid, want.inputs.values[rows]),
                    targets=CurveVec(want.output_grid, want.targets.values[rows]),
                    labels=None if want.labels is None
                    else CurveVec(want.output_grid, want.labels.values[rows]),
                ))

    @pytest.mark.parametrize("size", [-1, 0, 2.5])
    def test_block_size_must_be_a_positive_integer(self, tmp_path, size):
        # on a valid 5-record file; not a false trailing-content fault, an
        # empty iteration or range()'s own error
        ds = generate_synthetic(SynthSpec(n_samples=5, grid_size=5,
                                          channel_count=1, seed=4))
        path = tmp_path / "five.txt"
        save_dataset(path, ds)
        message = "block size must be (an integer|at least 1)"
        with pytest.raises(ValueError, match=message) as err:
            list(load_dataset_blocks(path, size))
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match=message) as err:
            list(ds.blocks(size))
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("fault", ["number", "label", "trailing"])
    def test_fault_raised_where_reached(self, labelled, fault):
        lines = labelled.read_text().splitlines()
        label_line = 7 + 3 * 17 + 2
        if fault == "trailing":
            lines.append("extra")
        else:
            set_first_value(lines, label_line, "0.5" if fault == "label" else "x")
        labelled.write_text("\n".join(lines) + "\n")
        _, message = load_outcome(load_dataset, labelled)
        if fault != "trailing":
            assert f":{label_line + 1}: " in message
        assert message == load_outcome(reference_load_dataset, labelled)[1]
        # record 17 is in the third block of 7; trailing content is found
        # when a block after the last one is asked for
        sizes = [7, 7, 7, 2] if fault == "trailing" else [7, 7]
        blocks = load_dataset_blocks(labelled, 7)
        assert [next(blocks).n for _ in sizes] == sizes
        with pytest.raises(DataError) as err:
            next(blocks)
        assert str(err.value) == message

    def test_label_fault_names_line_and_record(self, labelled):
        # within 1e-9 of 0 or 1 is a label; 0.5 is not
        lines = labelled.read_text().splitlines()
        set_first_value(lines, 7 + 2, "1.0000000005")
        set_first_value(lines, 7 + 5, "-5e-10")
        labelled.write_text("\n".join(lines) + "\n")
        assert load_dataset(labelled).labels.values[:2, 0].tolist() == [
            1.0000000005, -5e-10]
        set_first_value(lines, 7 + 2, "0.5")
        labelled.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(labelled)
        assert str(err.value) == (f"{labelled}:10: record 0: label curves must "
                                  "be {0, 1}-valued")


class TestUnreadableFiles:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: cannot read: No such file or directory"
        with pytest.raises(DataError, match="cannot read"):
            load_feature_csv(path, channels=1, input_len=2, output_len=2)

    def test_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_dataset(tmp_path)

    def test_non_utf8_byte_reports_its_line(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=2, grid_size=5, seed=0))
        lines = dataset_text(ds).encode("utf-8").split(b"\n")
        lines[8] = lines[8][:10] + b"\xff" + lines[8][10:]
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}:9: not UTF-8 text: byte 0xff: invalid start byte")

    def test_non_utf8_feature_csv(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(b"1,2,3,4\n1,2,\xe93,4\n")
        with pytest.raises(DataError) as err:
            load_feature_csv(path, channels=1, input_len=2, output_len=2)
        assert str(err.value).startswith(f"{path}: not UTF-8 text: byte 0xe9")


class TestArraysBuiltOnce:
    def test_dataset_arrays_are_taken_over_and_frozen(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=5, grid_size=12, seed=4))
        path = tmp_path / "ds.txt"
        save_dataset(path, ds)
        csv = tmp_path / "features.csv"
        csv.write_text("1,2,3,4,1,0\n5,6,7,8,0,1\n")
        table = load_feature_csv(csv, channels=1, input_len=2, output_len=2,
                                 has_labels=True)
        for loaded in (ds, load_dataset(path), table):
            for cv in (loaded.inputs, loaded.targets, loaded.labels):
                assert not writeable_through(cv.values)
        for cv in (table.targets, table.labels):
            assert np.shares_memory(cv.values, table.inputs.values.base)

    def test_train_test_slices_are_zero_copy(self):
        ds = generate_synthetic(SynthSpec(n_samples=6, grid_size=10, seed=1))
        train = CurveVec(ds.input_grid, ds.inputs.values[:4])
        test = CurveVec(ds.output_grid, ds.labels.values[4:])
        assert train.values.base is ds.inputs.values
        assert test.values.base is ds.labels.values
        assert not writeable_through(train.values)

    @pytest.mark.parametrize("row", [0, data._BLOCK - 1, data._BLOCK,
                                     2 * data._BLOCK + 2])
    def test_label_check_covers_every_row(self, row):
        n = 2 * data._BLOCK + 3
        g = Grid.uniform(0, 1, 3)
        zeros = CurveVec(g, np.zeros((n, 3)))
        labels = np.zeros((n, 3))
        labels[:, 0] = 1.0 + 9e-10
        CurveDataset(inputs=zeros, targets=zeros, labels=CurveVec(g, labels))
        labels[row, 2] = 1.0 + 2e-9
        with pytest.raises(DataError, match="must be {0, 1}-valued"):
            CurveDataset(inputs=zeros, targets=zeros, labels=CurveVec(g, labels))

    def test_generate_and_load_peak_at_about_one_dataset(self, tmp_path):
        # 2,000 curves of the desk task, 15.3 MiB of arrays: generating or
        # reading them holds one block or one line of work on top
        spec = SynthSpec(n_samples=2000, grid_size=200, latency=15,
                         channel_count=3, noise_std=0.1, seed=20120706)
        generate_synthetic(SynthSpec(n_samples=2, grid_size=10))
        ds, generate_peak = traced_peak(generate_synthetic, spec)
        nbytes = sum(cv.values.nbytes for cv in (ds.inputs, ds.targets, ds.labels))
        assert nbytes == 2000 * (600 + 200 + 200) * 8
        path = tmp_path / "desk.txt"
        save_dataset(path, ds)
        del ds
        _, load_peak = traced_peak(load_dataset, path)
        assert generate_peak <= 1.3 * nbytes
        assert load_peak <= 1.3 * nbytes

    @pytest.mark.parametrize("rows", [2000, 1100])
    def test_feature_csv_peak_is_one_table(self, tmp_path, rows):
        # 1,100 rows lie just past a doubling of 256 rows, the worst case of
        # a table grown by doubling
        rng = np.random.default_rng(3)
        channels, input_len, output_len = 2, 150, 50
        table = np.concatenate([
            rng.normal(size=(rows, channels * input_len + output_len)).round(3),
            rng.integers(0, 2, (rows, output_len)).astype(float),
        ], axis=1)
        path = tmp_path / "features.csv"
        np.savetxt(path, table, fmt="%.3f", delimiter=",")
        ds, peak = traced_peak(load_feature_csv, path, channels, input_len,
                                    output_len, True)
        assert np.array_equal(ds.targets.values,
                              table[:, channels * input_len:-output_len])
        assert peak <= 1.5 * table.nbytes

    def test_save_peak_is_one_line(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_samples=300, grid_size=200, latency=15,
                                          channel_count=3, noise_std=0.1, seed=1))
        nbytes = sum(cv.values.nbytes for cv in (ds.inputs, ds.targets, ds.labels))
        _, save_peak = traced_peak(save_dataset, tmp_path / "desk.txt", ds)
        assert save_peak <= 0.3 * nbytes
