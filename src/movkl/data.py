"""Curve datasets: synthetic latency-task generation and file round-trips.

The synthetic task mimics delayed functional responses: a smooth random
amplitude curve drives the target, a step curve marks where the amplitude
is active, and the input channels observe the amplitude shifted by an
unknown latency, passed through channel-specific linear filters and white
noise.  Multi-channel inputs are concatenated into a single curve over a
stacked grid whose quadrature weights integrate each channel segment
separately.

Generation runs in fixed blocks of samples.  Only the random draws stay
per sample, in the order of the per-sample definition; the sinusoids,
labels, channel filters and noise of a whole block are computed together
with the same arithmetic, value for value, so every array is bit-identical
to generating one curve at a time (the slow per-sample version is kept in
the tests as the oracle).

Datasets are stored as line-oriented text: a small header (size, label
flag and both grids) followed by one ``input=``/``target=`` (and optional
``label=``) record per sample.  Floats are rendered with 17 significant
digits, so a write/read round-trip reproduces values bit-exactly.

Each dataset array is built once.  The generator and the reader fill
their ``(n, m)`` arrays in place and hand them to :class:`CurveVec`
without a copy, the label check runs over blocks of rows, and files are
written and read one line at a time.  Generating, saving or loading a
dataset therefore peaks at about the size of its arrays, plus one block
or one line of work.  :func:`load_dataset_blocks` reads a file as blocks
of a fixed number of curves, so a caller that handles one block at a
time holds one block's arrays however long the file is;
:func:`load_dataset` is the same reader with one block of every record.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

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
    0).  Samples are computed in blocks; see the module docstring.
    """
    rng = np.random.default_rng(spec.seed)
    n, m, channels = spec.n_samples, spec.grid_size, spec.channel_count
    out_grid = Grid.uniform(0.0, 1.0, m)
    t = out_grid.points
    step = 1.0 / (m - 1)
    shifted = t - spec.latency * step

    gains = rng.uniform(2.5, 5.0, channels)
    halfwidths = rng.integers(10, 21, channels)
    halfwidths = np.minimum(halfwidths, (m - 1) // 2)

    targets = np.empty((n, m))
    labels = np.empty((n, m))
    inputs = np.empty((n, channels * m))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        draws = np.empty((hi - lo, _DRAW_LO.size))
        # each input row starts as its noise and the filtered channels are
        # added to it; the definition adds a zero noise too, which turns
        # -0.0 into 0.0
        block = inputs[lo:hi]
        block.fill(0.0)
        for i in range(hi - lo):
            draws[i] = rng.random(_DRAW_LO.size)
            if spec.noise_std > 0:
                block[i] = rng.normal(0.0, spec.noise_std, channels * m)
        params = _DRAW_LO + _DRAW_SPAN * draws
        freqs = params[:, :_COMPONENTS, None]
        amps = params[:, _COMPONENTS:2 * _COMPONENTS, None]
        phases = params[:, 2 * _COMPONENTS:, None]

        target = _amplitude(freqs, amps, phases, t)
        targets[lo:hi] = target
        # a zero peak needs no case of its own: its curve is all zeros
        labels[lo:hi] = target > 0.1 * target.max(axis=1, keepdims=True)
        delayed = _amplitude(freqs, amps, phases, shifted)
        for c in range(channels):
            if spec.random_filters:
                filtered = _boxcar_rows(delayed, int(halfwidths[c]))
                filtered = gains[c] * (filtered - filtered.mean(axis=1, keepdims=True))
            else:
                filtered = delayed
            block[:, c * m:(c + 1) * m] += filtered

    in_grid = stacked_channel_grid(m, channels)
    return CurveDataset(
        inputs=CurveVec(in_grid, inputs, copy=False),
        targets=CurveVec(out_grid, targets, copy=False),
        labels=CurveVec(out_grid, labels, copy=False),
    )


def _amplitude(freqs, amps, phases, u: np.ndarray) -> np.ndarray:
    """Rectified sinusoid sums of a block, one row per sample.  The
    components are computed and added one after another, in draw order, as
    the per-sample sum over a (7, m) array adds them; only (block, m)
    temporaries are live at a time."""
    total = None
    for k in range(_COMPONENTS):
        wave = amps[:, k] * np.sin(2.0 * np.pi * freqs[:, k] * u + phases[:, k])
        total = wave if total is None else total + wave
    return np.maximum(total, 0.0)


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
    header = [
        FORMAT_TAG,
        f"n={ds.n}",
        f"has_labels={int(ds.labels is not None)}",
        "input_grid_points=" + _format_row(ds.input_grid.points),
        "input_grid_weights=" + _format_row(ds.input_grid.weights),
        "output_grid_points=" + _format_row(ds.output_grid.points),
        "output_grid_weights=" + _format_row(ds.output_grid.weights),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for i in range(ds.n):
            fh.write("input=" + _format_row(ds.inputs.values[i]) + "\n")
            fh.write("target=" + _format_row(ds.targets.values[i]) + "\n")
            if ds.labels is not None:
                fh.write("label=" + _format_row(ds.labels.values[i]) + "\n")


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
