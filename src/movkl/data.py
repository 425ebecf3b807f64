"""Curve datasets: synthetic latency-task generation and file round-trips.

The synthetic task mimics delayed functional responses: a smooth random
amplitude curve drives the target, a step curve marks where the amplitude
is active, and the input channels observe the amplitude shifted by an
unknown latency, passed through channel-specific linear filters and white
noise.  Multi-channel inputs are concatenated into a single curve over a
stacked grid whose quadrature weights integrate each channel segment
separately.

Generation runs in fixed blocks of samples.  The calling thread makes
every random draw, one sample after another in the order of the
per-sample definition: each sample's 21 uniforms, then its noise.  The
arithmetic of a block (the sinusoids, labels, channel filters and the
sum with the noise) runs on a pool of up to one thread per CPU
available to the process, each block writing only its own rows, while
the calling thread draws the next blocks.  numpy releases the
interpreter lock in the sines and the filter convolutions, so the blocks
overlap.  The sinusoids are evaluated once per distinct point of the
output grid and of its copy shifted by the latency (most shifted points
are grid points bit for bit), and the target and delayed curves are
columns of that one evaluation.  Every value goes through the same
arithmetic as in the per-sample definition, so the arrays are
bit-identical to generating one curve at a time, for any number of
threads (the slow per-sample version is kept in the tests as the
oracle).  ``movkl gen`` writes each block to its file as it is done,
so it holds the blocks in flight, never the whole dataset.

Datasets are stored as line-oriented text: a small header (size, label
flag and both grids) followed by one ``input=``/``target=`` (and optional
``label=``) record per sample.  Floats are rendered with 17 significant
digits, so a write/read round-trip reproduces values bit-exactly.

Each dataset array is built once.  The generator and the reader fill
their ``(n, m)`` arrays in place and hand them to :class:`CurveVec`
without a copy, the label check runs over blocks of rows, and files are
written and read one line at a time.  Generating, saving or loading a
dataset therefore peaks at about the size of its arrays, plus a block of
work per generator thread or one line.  :func:`load_dataset_blocks`
reads a file as blocks of a fixed number of curves, so a caller that
handles one block at a time holds one block's arrays however long the
file is; :func:`load_dataset` is the same reader with one block of every
record.
"""

from __future__ import annotations

import collections
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math
import numbers
import os

import numpy as np

from .errors import DataError, DimensionError
from .funcspace import _BLOCK, CurveVec, Grid, as_int

__all__ = [
    "CurveDataset",
    "SynthSpec",
    "generate_synthetic",
    "save_dataset",
    "load_dataset",
    "load_dataset_blocks",
    "stacked_channel_grid",
    "load_feature_csv",
]

FORMAT_TAG = "movkl-dataset v1"
CHANNEL_GAP = 0.25


@dataclass
class CurveDataset:
    """Paired input and target curves, with optional step-label targets."""

    inputs: CurveVec
    targets: CurveVec
    labels: CurveVec | None = None

    def __post_init__(self):
        if self.inputs.n != self.targets.n:
            raise DimensionError(
                f"{self.inputs.n} inputs paired with {self.targets.n} targets"
            )
        if self.labels is not None:
            if self.labels.n != self.targets.n:
                raise DimensionError("label count does not match target count")
            if self.labels.grid != self.targets.grid:
                raise DimensionError("labels must live on the output grid")
            vals = self.labels.values
            for lo in range(0, vals.shape[0], _BLOCK):
                if _off_binary(vals[lo:lo + _BLOCK]):
                    raise DataError("label curves must be {0, 1}-valued")

    @property
    def n(self) -> int:
        return self.inputs.n

    @property
    def input_grid(self) -> Grid:
        return self.inputs.grid

    @property
    def output_grid(self) -> Grid:
        return self.targets.grid

    def blocks(self, size: int):
        """The dataset as blocks of ``size`` curves (the last may hold
        fewer), over read-only views of its arrays, not copies."""
        for lo in range(0, self.n, size):
            rows = slice(lo, lo + size)
            yield CurveDataset(
                inputs=CurveVec(self.input_grid, self.inputs.values[rows]),
                targets=CurveVec(self.output_grid, self.targets.values[rows]),
                labels=None if self.labels is None
                else CurveVec(self.output_grid, self.labels.values[rows]),
            )


def _off_binary(values: np.ndarray) -> bool:
    """True if a value lies more than 1e-9 from both 0 and 1."""
    # exact zeros and ones, as the generator and save_dataset give labels,
    # pass on two counts: a third of the tolerance test's time on a
    # 200-value record, with one boolean temporary instead of four floats
    if np.count_nonzero(values) == np.count_nonzero(values == 1.0):
        return False
    return bool(np.any(np.minimum(np.abs(values), np.abs(values - 1.0)) > 1e-9))


@dataclass
class SynthSpec:
    """Parameters of the synthetic delayed-response task."""

    n_samples: int
    grid_size: int
    latency: int = 0
    channel_count: int = 1
    noise_std: float = 0.0
    seed: int = 0
    random_filters: bool = True

    def __post_init__(self):
        self.n_samples = as_int("n_samples", self.n_samples)
        self.grid_size = as_int("grid_size", self.grid_size, minimum=2)
        self.latency = as_int("latency", self.latency, minimum=0)
        if self.latency >= self.grid_size:
            raise ValueError("latency must lie in [0, grid_size)")
        self.channel_count = as_int("channel_count", self.channel_count)
        self.seed = as_int("seed", self.seed, minimum=0)
        noise = self.noise_std
        if (isinstance(noise, bool) or not isinstance(noise, numbers.Real)
                or not math.isfinite(noise)):
            raise ValueError(f"noise std must be a finite number, got {noise!r}")
        if noise < 0:
            raise ValueError("noise std must be nonnegative")


def stacked_channel_grid(grid_size: int, channels: int) -> Grid:
    """Concatenated copies of the unit grid, one segment per channel.

    Segments are separated by a gap that carries no quadrature weight, so
    inner products integrate each channel independently.
    """
    base = Grid.uniform(0.0, 1.0, grid_size)
    offsets = np.arange(channels) * (1.0 + CHANNEL_GAP)
    points = np.concatenate([base.points + off for off in offsets])
    weights = np.tile(base.weights, channels)
    return Grid(points, weights)


# Each sample's 21 uniform draws, in the definition's order: 4 slow and 3
# fast frequencies, 4 slow and 3 fast amplitudes, 7 phases.  Scaled as
# ``lo + (hi - lo) * u``, which is how ``Generator.uniform`` maps its draws.
_DRAW_LO = np.repeat([0.3, 4.0, 0.3, 0.2, 0.0], [4, 3, 4, 3, 7])
_DRAW_SPAN = np.repeat([2.2, 10.0, 0.9, 0.5, 2.0 * np.pi], [4, 3, 4, 3, 7]) - _DRAW_LO
_COMPONENTS = 7
# samples per block of the generator: a worker's temporaries are a few
# (_GEN_BLOCK, m) arrays, small enough that per-thread malloc arenas keep
# little memory
_GEN_BLOCK = 128


def generate_synthetic(spec: SynthSpec) -> CurveDataset:
    """Deterministic synthetic dataset for the latency task.

    Each amplitude curve is a rectified sum of a handful of random
    sinusoids: four slow components plus three faster detail components,
    all well below the grid Nyquist rate.  Targets equal the amplitude and
    labels flag samples above a tenth of the curve's peak.  Each input
    channel observes the amplitude ``latency`` grid steps earlier through
    a channel-specific linear filter (a moving-average smoother composed
    with mean removal and a random gain) plus white observation noise, so
    the fine structure of a curve is only partially recoverable from its
    channels.  With ``random_filters`` off the channels pass the delayed
    amplitude through unchanged.

    The random stream is, in order: the channel gains and filter
    half-widths, then per sample its 21 uniform draws followed by its
    ``channel_count * grid_size`` noise draws (none when ``noise_std`` is
    0).  The calling thread makes every draw in that order; the
    arithmetic of each block of samples runs on a pool of up to one
    thread per available CPU, each block into its own rows, and the
    sinusoids are evaluated once per distinct point of the grid and its
    shifted copy.  The arrays are bit-identical to generating one curve
    at a time, whatever the number of threads; see the module docstring.
    """
    n, m, channels = spec.n_samples, spec.grid_size, spec.channel_count
    inputs, targets, labels = arrays = (
        np.empty((n, channels * m)), np.empty((n, m)), np.empty((n, m)))
    for _ in _synthetic_blocks(spec, arrays):
        pass
    in_grid, out_grid = _synthetic_grids(spec)
    return CurveDataset(
        inputs=CurveVec(in_grid, inputs, copy=False),
        targets=CurveVec(out_grid, targets, copy=False),
        labels=CurveVec(out_grid, labels, copy=False),
    )


def _synthetic_grids(spec: SynthSpec) -> tuple[Grid, Grid]:
    """The input (stacked channel) and output grids of a synthetic task."""
    return (stacked_channel_grid(spec.grid_size, spec.channel_count),
            Grid.uniform(0.0, 1.0, spec.grid_size))


def _worker_count(blocks: int) -> int:
    """Threads for the block arithmetic: one per CPU available to the
    process, and no more than there are blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _synthetic_blocks(spec: SynthSpec, arrays=None):
    """The synthetic dataset as ``(inputs, targets, labels)`` row blocks
    of :data:`_GEN_BLOCK` samples, in order, each yielded once complete.

    With ``arrays``, the full ``(inputs, targets, labels)`` arrays, the
    blocks are their row slices, filled in place; without, each block is
    a fresh set of arrays, so a caller that writes each block away holds
    only the blocks in flight: one per worker thread and one more.

    This thread draws each block's uniforms and noise, in stream order,
    and hands the rest to the pool.  The noise goes straight into the
    block's input rows, to which the workers add the filtered channels.
    """
    rng = np.random.default_rng(spec.seed)
    n, m, channels = spec.n_samples, spec.grid_size, spec.channel_count
    t = Grid.uniform(0.0, 1.0, m).points
    step = 1.0 / (m - 1)
    # the shifted grid mostly hits grid points bit for bit; each distinct
    # point gives the same sines wherever it appears, so it is computed once
    points, cols = np.unique(np.concatenate([t, t - spec.latency * step]),
                             return_inverse=True)
    gains = rng.uniform(2.5, 5.0, channels)
    halfwidths = rng.integers(10, 21, channels)
    halfwidths = np.minimum(halfwidths, (m - 1) // 2)
    filters = ([(int(h), g) for h, g in zip(halfwidths, gains)]
               if spec.random_filters else None)

    def draw(lo):
        count = min(_GEN_BLOCK, n - lo)
        if arrays is None:
            block = (np.empty((count, channels * m)), np.empty((count, m)),
                     np.empty((count, m)))
        else:
            block = tuple(a[lo:lo + count] for a in arrays)
        # each input row starts as its noise, or as zeros without noise,
        # and the workers add the filtered channels to it; the definition
        # adds a zero noise too, which turns -0.0 into 0.0
        noise = block[0]
        if spec.noise_std == 0:
            noise.fill(0.0)
        draws = np.empty((count, _DRAW_LO.size))
        for i in range(count):
            rng.random(out=draws[i])
            if spec.noise_std > 0:
                noise[i] = rng.normal(0.0, spec.noise_std, channels * m)
        return block, _DRAW_LO + _DRAW_SPAN * draws

    def finished():
        block, done = pending.popleft()
        done.result()
        return block

    starts = range(0, n, _GEN_BLOCK)
    workers = _worker_count(len(starts))
    # one block more than workers is queued, so a worker that finishes
    # finds the next block drawn while this thread draws the one after
    pending = collections.deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for lo in starts:
                block, params = draw(lo)
                pending.append((block, pool.submit(
                    _block_values, params, points, cols[:m], cols[m:], filters,
                    *block)))
                if len(pending) > workers:
                    yield finished()
            while pending:
                yield finished()
        finally:
            for _, queued in pending:
                queued.cancel()


def _block_values(params, points, target_cols, delayed_cols, filters,
                  inputs, targets, labels) -> None:
    """Targets, labels and filtered channels of one block, written in place.

    ``params`` holds the block's scaled draws, one row per sample.  The
    amplitude is computed on the distinct ``points`` and its target and
    delayed curves are their columns ``target_cols`` and
    ``delayed_cols``.  ``inputs`` holds each sample's noise, to which the
    channels are added; ``filters`` lists each channel's half-width and
    gain, or is None when the channels pass the delayed curve through.
    """
    freqs = params[:, :_COMPONENTS, None]
    amps = params[:, _COMPONENTS:2 * _COMPONENTS, None]
    phases = params[:, 2 * _COMPONENTS:, None]
    amplitude = _amplitude(freqs, amps, phases, points)
    np.take(amplitude, target_cols, axis=1, out=targets, mode="clip")
    # a zero peak needs no case of its own: its curve is all zeros
    peak = targets.max(axis=1, keepdims=True)
    peak *= 0.1
    np.greater(targets, peak, out=labels)
    delayed = np.take(amplitude, delayed_cols, axis=1)
    del amplitude
    m = targets.shape[1]
    tmp = None if filters is None else np.empty_like(delayed)
    for c in range(inputs.shape[1] // m):
        channel = inputs[:, c * m:(c + 1) * m]
        if filters is None:
            channel += delayed
            continue
        halfwidth, gain = filters[c]
        filtered = _boxcar_rows(delayed, halfwidth)
        # gain * (filtered - mean), in place: IEEE products commute
        np.subtract(filtered, filtered.mean(axis=1, keepdims=True), out=tmp)
        tmp *= gain
        channel += tmp


def _amplitude(freqs, amps, phases, u: np.ndarray) -> np.ndarray:
    """Rectified sinusoid sums of a block, one row per sample.  The
    components are computed and added one after another, in draw order, as
    the per-sample sum over a (7, m) array adds them, each into one of two
    (block, u.size) buffers."""
    total = np.empty((freqs.shape[0], u.size))
    wave = np.empty_like(total)
    for k in range(_COMPONENTS):
        out = wave if k else total
        np.multiply(2.0 * np.pi * freqs[:, k], u, out=out)
        out += phases[:, k]
        np.sin(out, out=out)
        out *= amps[:, k]
        if k:
            total += wave
    return np.maximum(total, 0.0, out=total)


def _boxcar_rows(rows: np.ndarray, halfwidth: int) -> np.ndarray:
    """Edge-padded moving average of each row, length ``2*halfwidth + 1``.

    The padded rows are laid end to end and convolved in one call; window
    ``j`` of row ``i`` starts at ``i * (m + 2*halfwidth) + j`` of the result
    and is the same length-``2*halfwidth + 1`` dot product as convolving
    that row alone.  Windows straddling two rows are computed and ignored.
    """
    if halfwidth <= 0:
        return rows
    count, m = rows.shape
    width = m + 2 * halfwidth
    padded = np.empty((count, width))
    padded[:, :halfwidth] = rows[:, :1]
    padded[:, halfwidth:halfwidth + m] = rows
    padded[:, halfwidth + m:] = rows[:, -1:]
    kernel = np.ones(2 * halfwidth + 1) / (2 * halfwidth + 1)
    flat = np.convolve(padded.ravel(), kernel, mode="valid")
    return np.lib.stride_tricks.as_strided(
        flat, shape=(count, m), strides=(width * flat.itemsize, flat.itemsize),
        writeable=False,
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _format_row(row: np.ndarray) -> str:
    """Comma-separated values with 17 significant digits, formatted in one
    call; byte-identical to ``format(v, ".17g")`` per value."""
    return ",".join(["%.17g"] * len(row)) % tuple(row.tolist())


def save_dataset(path, ds: CurveDataset) -> None:
    """Write the line-oriented text format (17 significant digits), one
    line at a time."""
    labels = None if ds.labels is None else ds.labels.values
    _write_dataset(path, ds.n, ds.input_grid, ds.output_grid, labels is not None,
                   [(ds.inputs.values, ds.targets.values, labels)])


def _save_synthetic(path, spec: SynthSpec) -> None:
    """Write ``save_dataset(path, generate_synthetic(spec))``, byte for
    byte, each block as it is generated, so only the blocks in flight are
    held and never the whole dataset."""
    input_grid, output_grid = _synthetic_grids(spec)
    blocks = _synthetic_blocks(spec)
    try:
        _write_dataset(path, spec.n_samples, input_grid, output_grid, True, blocks)
    finally:
        # a failed write stops the generator's pool before returning
        blocks.close()


def _write_dataset(path, n: int, input_grid: Grid, output_grid: Grid,
                   has_labels: bool, blocks) -> None:
    """The text format of ``n`` records given as ``(inputs, targets,
    labels)`` row blocks, written one line at a time as the blocks come."""
    header = [
        FORMAT_TAG,
        f"n={n}",
        f"has_labels={int(has_labels)}",
        "input_grid_points=" + _format_row(input_grid.points),
        "input_grid_weights=" + _format_row(input_grid.weights),
        "output_grid_points=" + _format_row(output_grid.points),
        "output_grid_weights=" + _format_row(output_grid.weights),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for inputs, targets, labels in blocks:
            for i in range(len(targets)):
                fh.write("input=" + _format_row(inputs[i]) + "\n")
                fh.write("target=" + _format_row(targets[i]) + "\n")
                if has_labels:
                    fh.write("label=" + _format_row(labels[i]) + "\n")


def _unreadable(where: str, exc: OSError | UnicodeDecodeError) -> DataError:
    """The error for a file that cannot be opened, read or decoded."""
    if isinstance(exc, UnicodeDecodeError):
        bad = exc.object[exc.start]
        return DataError(f"{where}: not UTF-8 text: byte 0x{bad:02x}: {exc.reason}")
    return DataError(f"{where}: cannot read: {exc.strerror or exc}")


def _open(path, mode: str, encoding: str | None = None):
    try:
        return open(path, mode, encoding=encoding)
    except OSError as exc:
        raise _unreadable(str(path), exc) from None


class _Reader:
    """The lines of an open binary dataset file, read one at a time.

    ``pos`` counts the lines read so far, so it is the 1-based number of
    the last line read.  A binary line ends at b"\\n", which no multi-byte
    UTF-8 character contains, so splitting each decoded line again yields
    exactly the lines of ``str.splitlines()`` on the whole text, including
    its other separators (\\r, \\x0b, \\x85, \\u2028, ...).
    """

    def __init__(self, path, fh):
        self.path = path
        self.pos = 0
        self._lines = (part for raw in fh for part in self._decode(raw).splitlines())

    def _decode(self, raw: bytes) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _unreadable(f"{self.path}:{self.pos + 1}", exc) from None

    def next_line(self) -> str | None:
        """The next line, or None at the end of the file."""
        line = next(self._lines, None)
        if line is not None:
            self.pos += 1
        return line

    def next_field(self, key: str) -> str:
        line = self.next_line()
        if line is None:
            raise DataError(f"{self.path}: unexpected end of file, wanted '{key}='")
        prefix = key + "="
        if not line.startswith(prefix):
            raise DataError(
                f"{self.path}:{self.pos}: expected '{key}=...', got {line[:40]!r}"
            )
        return line[len(prefix):]

    def floats(self, key: str) -> np.ndarray:
        raw = self.next_field(key)
        try:
            # numpy converts each token with Python's float(), so the syntax,
            # values and ValueError message are those of float(token)
            values = np.array(raw.split(",") if raw else [], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{self.path}:{self.pos}: bad number in '{key}': {exc}")
        if values.size and not np.all(np.isfinite(values)):
            raise DataError(
                f"{self.path}:{self.pos}: non-finite value in '{key}'"
            )
        return values


def load_dataset(path) -> CurveDataset:
    """Read and fully validate the text format written by save_dataset.

    The file is streamed; an unreadable or non-UTF-8 file raises
    ``DataError`` like any other malformed one.  This is
    :func:`load_dataset_blocks` with one block holding every record.
    """
    (ds,) = load_dataset_blocks(path)
    return ds


def load_dataset_blocks(path, size: int | None = None):
    """The records of a dataset file as :class:`CurveDataset` blocks of
    ``size`` curves (the last may hold fewer), read and checked as they
    are reached; ``size=None`` gives one block of every record.

    The checks and messages are :func:`load_dataset`'s: line numbers and
    record indices count over the whole file, and trailing content is
    checked when the block after the last one is asked for.  A fault is
    raised when the reader reaches it, so the blocks before it have been
    yielded by then.
    """
    with _open(path, "rb") as fh:
        try:
            yield from _read_blocks(_Reader(path, fh), size)
        except OSError as exc:
            raise _unreadable(str(path), exc) from None


def _read_blocks(r: _Reader, size: int | None):
    path = r.path
    if r.next_line() != FORMAT_TAG:
        raise DataError(f"{path}: not a '{FORMAT_TAG}' file")
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

    size = n if size is None else size
    for lo in range(0, n, size):
        count = min(size, n - lo)
        inputs = np.empty((count, in_grid.size))
        targets = np.empty((count, out_grid.size))
        labels = np.empty((count, out_grid.size)) if has_labels else None
        for i in range(count):
            inputs[i] = _record(r, "input", in_grid.size, lo + i)
            targets[i] = _record(r, "target", out_grid.size, lo + i)
            if has_labels:
                labels[i] = _label_record(r, out_grid.size, lo + i)
        yield CurveDataset(
            inputs=CurveVec(in_grid, inputs, copy=False),
            targets=CurveVec(out_grid, targets, copy=False),
            labels=None if labels is None else CurveVec(out_grid, labels, copy=False),
        )
    if r.next_line() is not None:
        raise DataError(f"{path}:{r.pos}: trailing content after {n} records")


def _record(r: _Reader, key: str, size: int, index: int) -> np.ndarray:
    values = r.floats(key)
    if values.size != size:
        raise DataError(
            f"{r.path}:{r.pos}: record {index}: '{key}' has {values.size} "
            f"values, expected {size}"
        )
    return values


def _label_record(r: _Reader, size: int, index: int) -> np.ndarray:
    """A label record, checked as :class:`CurveDataset` checks label
    curves, so a fault names its line and record."""
    values = _record(r, "label", size, index)
    if _off_binary(values):
        raise DataError(
            f"{r.path}:{r.pos}: record {index}: label curves must be {{0, 1}}-valued"
        )
    return values


def load_feature_csv(path, channels: int, input_len: int, output_len: int,
                     has_labels: bool = False) -> CurveDataset:
    """Import pre-extracted feature curves from a plain CSV file.

    Expected row layout (one row per segment, comma separated):
    ``channels * input_len`` input feature values (channel blocks
    concatenated in channel order), then ``output_len`` target amplitude
    values, then, when ``has_labels`` is set, ``output_len`` binary
    movement labels.  Channel segments and targets are placed on unit
    grids, matching the synthetic generator's layout.  Band-pass filtering
    and feature extraction from raw recordings happen upstream; this
    reader only ingests already-extracted curves.
    """
    expected = channels * input_len + output_len * (2 if has_labels else 1)
    # one table, grown by a quarter and trimmed at the end by ndarray.resize,
    # which reallocates it rather than copying it into a second array: at
    # its peak it holds at most 1.25 times the rows read, or _BLOCK rows
    table = np.empty((_BLOCK, expected))
    n = 0
    with _open(path, "r", "utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    # one call; numpy converts each token with float()
                    row = np.array(line.split(","), dtype=np.float64)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad number: {exc}")
                if row.size != expected:
                    raise DataError(
                        f"{path}:{lineno}: row has {row.size} values, expected {expected}"
                    )
                if not np.all(np.isfinite(row)):
                    raise DataError(f"{path}:{lineno}: non-finite value")
                if n == len(table):
                    table.resize((n + n // 4, expected), refcheck=False)
                table[n] = row
                n += 1
        except (OSError, UnicodeDecodeError) as exc:
            # text is decoded a chunk ahead of the lines, so no line number
            raise _unreadable(str(path), exc) from None
    if not n:
        raise DataError(f"{path}: no data rows")
    table.resize((n, expected), refcheck=False)
    # nothing else holds the table; once frozen, its column blocks are
    # shared by the curve vectors below, not copied
    table.setflags(write=False)
    in_len = channels * input_len
    in_grid = stacked_channel_grid(input_len, channels)
    out_grid = Grid.uniform(0.0, 1.0, output_len)
    labels = None
    if has_labels:
        labels = CurveVec(out_grid, table[:, in_len + output_len:])
    return CurveDataset(
        inputs=CurveVec(in_grid, table[:, :in_len]),
        targets=CurveVec(out_grid, table[:, in_len:in_len + output_len]),
        labels=labels,
    )
