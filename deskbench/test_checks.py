"""Each correctness check accepts movkl's answer and rejects a perturbed one.

Run from the repository root:  python3 -m pytest deskbench
The problems are small versions of the workloads, so the file runs in
seconds.
"""

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import movkl as mk  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402

RANK = 3
LAM = 10 ** -2.5


@pytest.fixture(scope="module")
def small():
    ds = mk.generate_synthetic(mk.SynthSpec(
        n_samples=14, grid_size=12, latency=1, channel_count=2,
        noise_std=0.1, seed=7))
    n = 9
    X = mk.CurveVec(ds.input_grid, ds.inputs.values[:n])
    Y = mk.CurveVec(ds.output_grid, ds.labels.values[:n])
    Z = mk.CurveVec(ds.input_grid, ds.inputs.values[n:])
    return X, Y, Z


@pytest.fixture(scope="module")
def mkl_fits(small):
    X, Y, _ = small
    grid = Y.grid
    median = mk.median_pairwise_distance(X)
    scalars = [mk.GaussianKernel(f * median) for f in ref.BANDWIDTH_FACTORS]
    scalars += [mk.PolynomialKernel(d, 1.0) for d in ref.POLY_DEGREES]
    operators = [mk.IdentityOperator(grid), mk.MultiplicationOperator(grid),
                 mk.IntegralOperator(grid, rank=RANK)]
    pairs = [(mk.block_trace_normalized(s, op, X), op)
             for op in operators for s in scalars]
    solve = mk.SolveConfig(outer_tol=workloads.MKL_TOL, outer_max_iter=60000)
    fits = {
        name: mk.movkl_fit(mk.KernelStack.uniform(pairs, norm_exponent=r), X, Y,
                           mk.FitConfig(lam=LAM, r=r, mkl_tol=5e-3,
                                        mkl_max_iter=15, solve=solve))
        for name, r in (("linf", math.inf), ("l2", 2.0))
    }
    return fits, median


def test_residual_check(small, mkl_fits):
    X, Y, _ = small
    fits, median = mkl_fits
    t, w = Y.grid.points, Y.grid.weights
    G, T = ref.desk_terms(X.values, X.values, X.grid.weights, t, w, RANK, median)
    for model in fits.values():
        args = (G, T, model.weights, LAM)
        A = model.alpha.values
        assert ref.check_residual("r", *args, A, Y.values, w, workloads.MKL_TOL) == []
        assert ref.check_residual("r", *args, A * 1.01, Y.values, w,
                                  workloads.MKL_TOL)


def test_prediction_check(small, mkl_fits):
    X, _, Z = small
    fits, median = mkl_fits
    model = fits["l2"]
    t, w = model.output_grid.points, model.output_grid.weights
    G, T = ref.desk_terms(X.values, Z.values, X.grid.weights, t, w, RANK, median)
    want = ref.block_apply([g.T for g in G], T, model.weights, model.alpha.values)
    got = np.array(mk.predict_many(model, Z).values)
    assert ref.check_close("p", got, want, 1e-9) == []
    got[0, 0] *= 1.01
    assert ref.check_close("p", got, want, 1e-9)


def test_weight_checks(mkl_fits):
    fits, _ = mkl_fits
    d = fits["l2"].weights
    assert ref.check_l2_weights("d", d) == []
    assert ref.check_l2_weights("d", d * 1.01)
    assert ref.check_uniform_weights("d", fits["linf"].weights) == []
    assert ref.check_uniform_weights("d", d)


def test_monotone_check(mkl_fits):
    fits, _ = mkl_fits
    trace = list(fits["l2"].objective_trace)
    assert len(trace) > 1
    assert ref.check_monotone("o", trace) == []
    trace[-1] = trace[-2] * 1.01
    assert ref.check_monotone("o", trace)


def test_beats_check():
    assert ref.check_beats("s", 5.0, 8.76) == []
    assert ref.check_beats("s", 8.76, 8.76)


@pytest.mark.parametrize("operator", ["identity", "integral"])
def test_cv_table_and_selection_checks(small, operator):
    X, Y, Z = small
    gk = mk.GaussianKernel(mk.median_pairwise_distance(X))
    grid = Y.grid
    lambdas = [1e-3, 1e-1, 1.0]
    ranks = [2, 4] if operator == "integral" else [None]

    def stack(rank):
        op = (mk.IdentityOperator(grid) if rank is None
              else mk.IntegralOperator(grid, rank=rank))
        return mk.KernelStack([mk.OvKernelTerm(gk, op)])

    lam, rank, table = mk.loo_cv(stack, X, Y, mk.CvSpec(lambdas, ranks),
                                 mk.FitConfig(lam=1.0))
    Xv, Yv, w_in = X.values, Y.values, X.grid.weights
    t, w = grid.points, grid.weights
    G = ref.gaussian_gram(Xv, Xv, w_in, gk.bandwidth)

    def loo(c):
        if c.rank is None:
            return ref.loo_identity(G, Yv, w, c.lam)
        return ref.loo_integral(G, Yv, t, w, c.lam, c.rank)

    want = {(c.lam, c.rank): loo(c) for c in table}
    got = [c.cv_rsse for c in table]
    assert ref.check_close("cv", got, list(want.values()), 1e-9) == []
    nudged = list(got)
    nudged[1] *= 1 + 1e-6
    assert ref.check_close("cv", nudged, list(want.values()), 1e-9)
    assert ref.check_selection("sel", (lam, rank), want) == []
    other = next(key for key in want if key != (lam, rank))
    assert ref.check_selection("sel", other, want)

    model = mk.krr_fit(stack(rank).terms[0], X, Y, mk.FitConfig(lam=lam))
    G_cross = ref.gaussian_gram(Xv, Z.values, w_in, gk.bandwidth)
    if rank is None:
        expect = ref.ridge_predict_identity(G, G_cross, Yv, lam)
    else:
        expect = ref.ridge_predict_integral(G, G_cross, Yv, t, w, lam, rank)
    got = np.array([mk.predict(model, Z[i]).values for i in range(Z.n)])
    assert ref.check_close("p", got, expect, 1e-9) == []
    assert ref.check_close("p", got * 1.01, expect, 1e-9)


class SmallCli(workloads.CliFiles):
    n_queries = 30


@pytest.fixture
def cli_round(tmp_path):
    wl = SmallCli(20120706, str(tmp_path))
    state = wl.setup()
    rnd = workloads.Round()
    wl.run_round(state, rnd)
    return wl, state, rnd


def _edit(path, old, new):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def test_cli_checks_pass(cli_round):
    wl, state, rnd = cli_round
    assert rnd.done == wl.ops_per_round
    assert wl.check(state, rnd) == []


def test_cli_check_catches_changed_prediction(cli_round):
    wl, state, rnd = cli_round
    path = os.path.join(wl.workdir, "out", "predictions.csv")
    first = ref.read_predictions(path)[0, 0]
    _edit(path, "\n" + format(first, ".17g") + ",",
          "\n" + format(first * 1.01 + 1e-3, ".17g") + ",")
    assert any("predictions CSV" in f for f in wl.check(state, rnd))


def test_cli_check_catches_changed_rsse(cli_round):
    wl, state, rnd = cli_round
    path = os.path.join(wl.workdir, "out", "metrics.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["rsse"] *= 1.01
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert any("RSSE" in f for f in wl.check(state, rnd))


def test_cli_check_catches_changed_dataset(cli_round):
    wl, state, rnd = cli_round
    path = os.path.join(wl.workdir, "train.txt")
    value = ref.read_dataset(path)["input"][0, 5]
    text = format(value, ".17g")
    _edit(path, "," + text + ",", "," + format(value * 1.01 + 1e-3, ".17g") + ",")
    assert any("train file input" in f for f in wl.check(state, rnd))


def test_cli_check_catches_failed_command(cli_round):
    wl, state, rnd = cli_round
    state["codes"][0] = 3
    assert any("exited 3" in f for f in wl.check(state, rnd))
