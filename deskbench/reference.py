"""Reference computations for the benchmark's correctness checks.

Everything here is plain numpy and Python: no movkl code is imported, so a
fault in movkl cannot hide itself by also being in the reference.  Curves
are rows of an (n, m) array; ``w`` holds the quadrature weights of their
grid, so the squared norm of a curve ``a`` is ``sum(w * a**2)``.

Each ``check_*`` function returns a list of failure messages; an empty
list means the check passed.
"""

from __future__ import annotations

import numpy as np

BANDWIDTH_FACTORS = (0.1, 0.5, 1.0, 5.0, 10.0)
POLY_DEGREES = (1, 2, 3)


# ---------------------------------------------------------------------------
# kernels, operators and the block system
# ---------------------------------------------------------------------------

def sq_norms(R, w) -> np.ndarray:
    """Squared quadrature norm of each row of ``R``."""
    return (R * R) @ w


def rsse(Y, P, w) -> float:
    """Integrated residual sum of squares over all curves."""
    return float(np.sum(sq_norms(Y - P, w)))


def median_distance(X, w) -> float:
    """Median quadrature distance over distinct pairs of rows of ``X``."""
    n = X.shape[0]
    return float(np.median([np.sqrt(np.sum(w * (X[i] - X[j]) ** 2))
                            for i in range(n) for j in range(i + 1, n)]))


def gaussian_gram(X, Z, w, bandwidth) -> np.ndarray:
    d2 = (sq_norms(X, w)[:, None] + sq_norms(Z, w)[None, :]
          - 2.0 * (X * w) @ Z.T)
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * bandwidth ** 2))


def poly_gram(X, Z, w, degree, offset=1.0) -> np.ndarray:
    return ((X * w) @ Z.T + offset) ** degree


def menu_grams(X, Z, w, median):
    """The desk menu's eight scalar Grams G(X_i, Z_j), Gaussians first."""
    grams = [gaussian_gram(X, Z, w, f * median) for f in BANDWIDTH_FACTORS]
    grams += [poly_gram(X, Z, w, d) for d in POLY_DEGREES]
    return grams


def integral_eigen(t, w):
    """Eigenpairs of (T a)(t) = int exp(-|t-s|) a(s) ds under quadrature.

    Returns eigenvalues in descending order and the eigenfunctions as
    columns, orthonormal in the quadrature inner product.
    """
    sw = np.sqrt(w)
    sym = sw[:, None] * np.exp(-np.abs(t[:, None] - t[None, :])) * sw[None, :]
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(-vals)
    return vals[order], vecs[:, order] / sw[:, None]


def operator_matrices(t, w, rank):
    """Identity, multiplication by exp(-t^2) and the rank-truncated integral
    operator, each as the matrix T with (T a)_j = sum_l T_jl a_l, together
    with each operator's trace divided by the grid size."""
    m = t.size
    vals, vecs = integral_eigen(t, w)
    s, V = vals[:rank], vecs[:, :rank]
    integral = (V * s) @ (V.T * w)
    mult = np.exp(-t ** 2)
    return ([np.eye(m), np.diag(mult), integral],
            [1.0, float(mult.mean()), float(s.sum()) / m])


def desk_terms(X, Z, w_in, t, w_out, rank, median):
    """Block-trace-normalized scalar Grams G_k(X_i, Z_j) and operators of the
    24-term menu, in operator-major order (8 scalars x identity,
    multiplication, integral).  The normalization factors come from the
    training curves ``X``; Gaussian bandwidths are factors of ``median``."""
    scales = [float(np.mean(np.diag(g))) for g in menu_grams(X, X, w_in, median)]
    ops, op_scales = operator_matrices(t, w_out, rank)
    G, T = [], []
    for op, op_scale in zip(ops, op_scales):
        for g, scale in zip(menu_grams(X, Z, w_in, median), scales):
            G.append(g / (scale * op_scale))
            T.append(op)
    return G, T


def block_apply(G, T, d, A) -> np.ndarray:
    """sum_k d_k (G_k kron T_k) applied to the stacked curves ``A``.

    With G_k of shape (p, n) and A of shape (n, m) the result is (p, m).
    Terms that share an operator matrix are summed before it is applied.
    """
    by_operator = {}
    for g, op, dk in zip(G, T, d):
        acc = by_operator.setdefault(id(op), [op, 0.0])
        acc[1] = acc[1] + dk * (g @ A)
    return sum(acc @ op.T for op, acc in by_operator.values())


def rel_residual(G, T, d, lam, A, Y, w) -> float:
    """||K alpha + lam alpha - y|| / ||y|| in the quadrature norm."""
    R = block_apply(G, T, d, A) + lam * A - Y
    return float(np.sqrt(np.sum(sq_norms(R, w)) / np.sum(sq_norms(Y, w))))


# ---------------------------------------------------------------------------
# leave-one-curve-out tables for single-operator ridge regression
# ---------------------------------------------------------------------------

def _loo_components(G, C, s, lam):
    """Hat-matrix leave-one-out residuals r_i / (1 - H_ii), per column.

    Column l of ``C`` is a ridge problem with Gram s_l G and ridge lam,
    whose hat matrix is H_l = s_l G (s_l G + lam I)^-1.
    """
    g, U = np.linalg.eigh(0.5 * (G + G.T))
    shrink = s[None, :] * g[:, None] / (s[None, :] * g[:, None] + lam)
    fitted = U @ (shrink * (U.T @ C))
    hat_diag = (U * U) @ shrink
    return (C - fitted) / (1.0 - hat_diag)


def loo_identity(G, Y, w, lam) -> float:
    """Leave-one-curve-out RSSE of ridge regression with G kron I."""
    E = _loo_components(G, Y, np.ones(Y.shape[1]), lam)
    return float(np.sum(sq_norms(E, w)))


def loo_integral(G, Y, t, w, lam, rank) -> float:
    """Leave-one-curve-out RSSE with G kron T, T the rank-truncated integral
    operator: per eigencomponent of T a scalar ridge problem with Gram s_l G,
    plus the part of each curve outside the retained components, which every
    fold predicts as zero."""
    vals, V = integral_eigen(t, w)
    C = (Y * w) @ V[:, :rank]
    E = _loo_components(G, C, vals[:rank], lam)
    rest = Y - C @ V[:, :rank].T
    return float(np.sum(E * E) + np.sum(sq_norms(rest, w)))


def ridge_predict_identity(G, G_cross, Y, lam) -> np.ndarray:
    """Predictions of ridge regression with G kron I at new inputs;
    ``G_cross[i, j]`` is the kernel between training curve i and query j."""
    return G_cross.T @ np.linalg.solve(G + lam * np.eye(G.shape[0]), Y)


def ridge_predict_integral(G, G_cross, Y, t, w, lam, rank) -> np.ndarray:
    """Predictions with G kron T, T the rank-truncated integral operator."""
    vals, V = integral_eigen(t, w)
    s, V = vals[:rank], V[:, :rank]
    C = (Y * w) @ V
    coef = np.column_stack([
        np.linalg.solve(s_l * G + lam * np.eye(G.shape[0]), C[:, l])
        for l, s_l in enumerate(s)
    ])
    return ((G_cross.T @ coef) * s) @ V.T


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_close(name, got, want, rtol) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    return [] if err <= rtol else [f"{name}: relative error {err:.3e} > {rtol:g}"]


def check_residual(name, G, T, d, lam, A, Y, w, tol) -> list[str]:
    res = rel_residual(G, T, d, lam, A, Y, w)
    # the solver stops on its own residual, computed in another order; allow
    # rounding on top of the tolerance, not a looser answer
    return [] if res <= tol * (1 + 1e-6) + 1e-13 else [
        f"{name}: relative residual {res:.3e} above tolerance {tol:g}"]


def check_l2_weights(name, d) -> list[str]:
    d = np.asarray(d, dtype=float)
    total = float(np.sum(d * d))
    out = [] if abs(total - 1.0) <= 1e-9 else [
        f"{name}: sum d_k^2 = {total:.12g}, not 1"]
    if np.any(d < 0):
        out.append(f"{name}: negative weight")
    return out


def check_uniform_weights(name, d) -> list[str]:
    d = np.asarray(d, dtype=float)
    return [] if np.all(d == 1.0 / d.size) else [
        f"{name}: weights moved from 1/{d.size}"]


def check_monotone(name, trace) -> list[str]:
    trace = np.asarray(trace, dtype=float)
    rises = np.flatnonzero(trace[1:] > trace[:-1] * (1 + 1e-12))
    return [] if rises.size == 0 else [
        f"{name}: objective rises at iteration {int(rises[0]) + 2}"]


def check_beats(name, score, baseline) -> list[str]:
    return [] if score < baseline else [
        f"{name}: RSSE {score:.6g} does not beat {baseline:.6g}"]


def check_selection(name, selected, table) -> list[str]:
    """``table`` maps (lambda, rank) to CV RSSE; ties go to the smallest
    lambda, then the smallest rank."""
    best = min(table, key=lambda key: (table[key], key[0], key[1] or 0))
    return [] if selected == best else [
        f"{name}: selected {selected}, the table's minimum is at {best}"]


def check_equal(name, got, want) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    bad = int(np.count_nonzero(got != want))
    return [] if bad == 0 else [f"{name}: {bad} values differ"]


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------

def _floats(line: str, key: str) -> np.ndarray:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line[:40]!r}")
    body = line[len(prefix):]
    return np.array([float(v) for v in body.split(",")]) if body else np.array([])


def read_dataset(path) -> dict:
    """Parse a 'movkl-dataset v1' text file into its arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "movkl-dataset v1":
        raise ValueError(f"{path}: not a dataset file")
    n = int(lines[1].removeprefix("n="))
    has_labels = lines[2] == "has_labels=1"
    doc = {key: _floats(lines[3 + k], key) for k, key in enumerate(
        ("input_grid_points", "input_grid_weights",
         "output_grid_points", "output_grid_weights"))}
    keys = ("input", "target", "label") if has_labels else ("input", "target")
    body = lines[7:]
    if len(body) != n * len(keys):
        raise ValueError(f"{path}: {len(body)} record lines for {n} samples")
    for k, key in enumerate(keys):
        doc[key] = np.array([_floats(body[i * len(keys) + k], key)
                             for i in range(n)])
    return doc


def read_predictions(path) -> np.ndarray:
    """Parse the predictions CSV that ``movkl predict`` writes."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines()
                if line and not line.startswith("#")]
    return np.array([[float(v) for v in row.split(",")] for row in rows])
