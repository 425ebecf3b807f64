"""The three desk-task workloads: what each sets up, times and checks.

Every workload draws its curves from ``movkl.generate_synthetic`` on the
criterion-5 task (200-point grid, latency 15, 3 channels, noise 0.1) with
the run's seed.  The first 100 curves of the generator do not depend on
``n_samples``: curves 0-64 train and 65-99 test, as in the acceptance
suite (which uses seed 20120706), and the query curves (index 100 onward)
share their channel filters without overlapping them.

A round is the unit that is timed and repeated: the workload's main task
(``work_s``) followed by its prediction step.  Each round makes the same
calls into movkl, counted in ``ops_per_round``; an operation that raises a
movkl or linear-algebra error, or a CLI command that exits non-zero,
fails, and so does every operation after it in that round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import movkl as mk
from movkl import cli

import reference as ref

SYNTH = dict(grid_size=200, latency=15, channel_count=3, noise_std=0.1)
N_TRAIN = 65
N_DESK = 100
LAM = 10 ** -2.5
RANK = 10
CV_LAMBDAS = [float(v) for v in np.logspace(-4, 2, 5)]
CV_RANKS = [5, 10, 20]
MKL_TOL = 3e-7


class OperationFailed(Exception):
    """A call into movkl failed; the rest of the round is not attempted."""


@dataclass
class Round:
    """Timings and outputs of one round."""

    work_s: float = 0.0
    predict_s: float = 0.0
    curves: int = 0
    done: int = 0
    peak_rss_mb: float = 0.0
    outputs: dict = field(default_factory=dict)


def desk_split(seed: int, n_queries: int) -> dict:
    ds = mk.generate_synthetic(mk.SynthSpec(
        n_samples=N_DESK + n_queries, seed=seed, **SYNTH))
    X, Y = ds.inputs.values, ds.labels.values

    def part(grid, values, lo, hi):
        return mk.CurveVec(grid, values[lo:hi])

    return {
        "train_x": part(ds.input_grid, X, 0, N_TRAIN),
        "train_y": part(ds.output_grid, Y, 0, N_TRAIN),
        "test_x": part(ds.input_grid, X, N_TRAIN, N_DESK),
        "test_y": part(ds.output_grid, Y, N_TRAIN, N_DESK),
        "query_x": part(ds.input_grid, X, N_DESK, N_DESK + n_queries),
    }


def grid_arrays(curves: mk.CurveVec):
    return curves.grid.points, curves.grid.weights


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> dict:
        raise NotImplementedError

    def run_round(self, state: dict, rnd: Round) -> None:
        """Run one round, recording timings and outputs in ``rnd``."""
        raise NotImplementedError

    def check(self, state: dict, rnd: Round) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, rnd: Round) -> bytes:
        """Digest of a round's outputs; every round must give the same."""
        h = hashlib.sha256()
        for key in sorted(rnd.outputs):
            h.update(key.encode())
            h.update(np.ascontiguousarray(rnd.outputs[key]).tobytes())
        return h.digest()

    @staticmethod
    def op(rnd: Round, fn, *args):
        try:
            result = fn(*args)
        except (mk.MovklError, np.linalg.LinAlgError) as exc:
            raise OperationFailed(f"{fn.__name__}: {exc}") from exc
        rnd.done += 1
        return result


class DeskMkl(Workload):
    """Criterion-5 multiple-kernel fits (r = inf and r = 2) on the 24-term
    menu, then batch prediction of the l2 model."""

    name = "desk-mkl"
    ops_per_round = 3
    n_queries = 10000

    def setup(self) -> dict:
        state = desk_split(self.seed, self.n_queries)
        grid = state["train_y"].grid
        median = state["median"] = mk.median_pairwise_distance(state["train_x"])
        scalars = [mk.GaussianKernel(f * median) for f in ref.BANDWIDTH_FACTORS]
        scalars += [mk.PolynomialKernel(d, 1.0) for d in ref.POLY_DEGREES]
        operators = [mk.IdentityOperator(grid), mk.MultiplicationOperator(grid),
                     mk.IntegralOperator(grid, rank=RANK)]
        pairs = [(mk.block_trace_normalized(s, op, state["train_x"]), op)
                 for op in operators for s in scalars]
        state["stacks"] = {name: mk.KernelStack.uniform(pairs, norm_exponent=r)
                           for name, r in (("linf", math.inf), ("l2", 2.0))}
        return state

    def run_round(self, state: dict, rnd: Round) -> None:
        solve = mk.SolveConfig(outer_tol=MKL_TOL, outer_max_iter=60000)
        start = time.perf_counter()
        models = {}
        for name, stack in state["stacks"].items():
            cfg = mk.FitConfig(lam=LAM, r=stack.norm_exponent, mkl_tol=5e-3,
                               mkl_max_iter=15, solve=solve)
            models[name] = self.op(rnd, mk.movkl_fit, stack, state["train_x"],
                                   state["train_y"], cfg)
        rnd.work_s = time.perf_counter() - start
        start = time.perf_counter()
        preds = self.op(rnd, mk.predict_many, models["l2"], state["query_x"])
        rnd.predict_s = time.perf_counter() - start
        rnd.curves = preds.n
        rnd.outputs = {"query_pred": preds.values}
        for name, model in models.items():
            rnd.outputs[f"{name}_alpha"] = model.alpha.values
            rnd.outputs[f"{name}_weights"] = model.weights
            rnd.outputs[f"{name}_trace"] = np.array(model.objective_trace)

    def check(self, state: dict, rnd: Round) -> list[str]:
        out = rnd.outputs
        X = state["train_x"].values
        Y = state["train_y"].values
        w_in = state["train_x"].grid.weights
        t, w = grid_arrays(state["train_y"])
        median = ref.median_distance(X, w_in)
        failures = ref.check_close("median distance", state["median"], median, 1e-12)
        G, T = ref.desk_terms(X, X, w_in, t, w, RANK, median)
        G_test, _ = ref.desk_terms(X, state["test_x"].values, w_in, t, w, RANK,
                                   median)
        G_query, _ = ref.desk_terms(X, state["query_x"].values, w_in, t, w, RANK,
                                    median)
        test_y = state["test_y"].values
        mean_rsse = ref.rsse(test_y, np.broadcast_to(Y.mean(axis=0), test_y.shape), w)
        for name in ("linf", "l2"):
            d, A = out[f"{name}_weights"], out[f"{name}_alpha"]
            failures += ref.check_residual(f"{name} residual", G, T, d, LAM, A, Y,
                                           w, MKL_TOL)
            failures += ref.check_monotone(f"{name} objective", out[f"{name}_trace"])
            pred = ref.block_apply([g.T for g in G_test], T, d, A)
            failures += ref.check_beats(f"{name} test RSSE",
                                        ref.rsse(test_y, pred, w), mean_rsse)
        failures += ref.check_l2_weights("l2 weights", out["l2_weights"])
        failures += ref.check_uniform_weights("linf weights", out["linf_weights"])
        want = ref.block_apply([g.T for g in G_query], T, out["l2_weights"],
                               out["l2_alpha"])
        failures += ref.check_close("l2 query predictions", out["query_pred"],
                                    want, 1e-9)
        return failures


class DeskCv(Workload):
    """The criterion-5 baselines chosen by one-curve-leave-out CV: identity
    operator over 5 ridge values, integral operator over 5 ridge values x
    3 ranks, a ridge fit at each selected point, then per-curve prediction
    of both selected models."""

    name = "desk-cv"
    n_queries = 4000
    ops_per_round = 4 + 2 * n_queries

    def setup(self) -> dict:
        state = desk_split(self.seed, self.n_queries)
        state["kernel"] = mk.GaussianKernel(
            mk.median_pairwise_distance(state["train_x"]))
        return state

    def run_round(self, state: dict, rnd: Round) -> None:
        X, Y, gk = state["train_x"], state["train_y"], state["kernel"]
        grid = Y.grid

        def identity_stack(rank):
            return mk.KernelStack([mk.OvKernelTerm(gk, mk.IdentityOperator(grid))])

        def integral_stack(rank):
            return mk.KernelStack(
                [mk.OvKernelTerm(gk, mk.IntegralOperator(grid, rank=rank))])

        base = mk.FitConfig(lam=1.0)
        start = time.perf_counter()
        lam_id, _, id_table = self.op(rnd, mk.loo_cv, identity_stack, X, Y,
                                      mk.CvSpec(lambda_grid=CV_LAMBDAS), base)
        lam_int, rank_int, int_table = self.op(
            rnd, mk.loo_cv, integral_stack, X, Y,
            mk.CvSpec(lambda_grid=CV_LAMBDAS, rank_grid=CV_RANKS), base)
        models = [
            self.op(rnd, mk.krr_fit, mk.OvKernelTerm(gk, mk.IdentityOperator(grid)),
                    X, Y, mk.FitConfig(lam=lam_id)),
            self.op(rnd, mk.krr_fit,
                    mk.OvKernelTerm(gk, mk.IntegralOperator(grid, rank=rank_int)),
                    X, Y, mk.FitConfig(lam=lam_int)),
        ]
        rnd.work_s = time.perf_counter() - start
        queries = state["query_x"]
        preds = np.empty((2, queries.n, grid.size))
        start = time.perf_counter()
        for k, model in enumerate(models):
            for i in range(queries.n):
                preds[k, i] = self.op(rnd, mk.predict, model, queries[i]).values
        rnd.predict_s = time.perf_counter() - start
        rnd.curves = 2 * queries.n
        rnd.outputs = {
            "selected": np.array([lam_id, lam_int, rank_int]),
            "id_table": np.array([[c.lam, c.cv_rsse] for c in id_table]),
            "int_table": np.array([[c.lam, c.rank, c.cv_rsse] for c in int_table]),
            "valid": np.array([c.valid for c in id_table + int_table]),
            "query_pred": preds,
        }

    def check(self, state: dict, rnd: Round) -> list[str]:
        out = rnd.outputs
        X = state["train_x"].values
        Y = state["train_y"].values
        w_in = state["train_x"].grid.weights
        t, w = grid_arrays(state["train_y"])
        median = ref.median_distance(X, w_in)
        failures = ref.check_close("kernel bandwidth", state["kernel"].bandwidth,
                                   median, 1e-12)
        G = ref.gaussian_gram(X, X, w_in, median)
        if not out["valid"].all():
            failures.append("a CV candidate was marked invalid")
        id_ref = {(lam, None): ref.loo_identity(G, Y, w, lam) for lam in CV_LAMBDAS}
        int_ref = {(lam, rank): ref.loo_integral(G, Y, t, w, lam, rank)
                   for rank in CV_RANKS for lam in CV_LAMBDAS}
        failures += ref.check_close(
            "identity CV table", out["id_table"][:, 1],
            [id_ref[(lam, None)] for lam, _ in out["id_table"]], 1e-9)
        failures += ref.check_close(
            "integral CV table", out["int_table"][:, 2],
            [int_ref[(lam, int(rank))] for lam, rank, _ in out["int_table"]], 1e-9)
        lam_id, lam_int, rank_int = out["selected"]
        failures += ref.check_selection("identity selection", (lam_id, None), id_ref)
        failures += ref.check_selection("integral selection",
                                        (lam_int, int(rank_int)), int_ref)
        G_query = ref.gaussian_gram(X, state["query_x"].values, w_in, median)
        want = [ref.ridge_predict_identity(G, G_query, Y, lam_id),
                ref.ridge_predict_integral(G, G_query, Y, t, w, lam_int, int(rank_int))]
        for k, name in enumerate(("identity", "integral")):
            failures += ref.check_close(f"{name} query predictions",
                                        out["query_pred"][k], want[k], 1e-9)
        return failures


class CliFiles(Workload):
    """The file path through ``movkl.cli.main``: ``gen`` writes a 100-curve
    training file and a query file in set-up; a round runs ``train`` on an
    integral-operator-only menu (8 normalized terms sharing one operator),
    ``predict`` on the query file and ``eval`` on it."""

    name = "cli-files"
    ops_per_round = 3
    n_queries = 2000

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _config(self, n_samples: int) -> dict:
        return {
            "version": 1,
            "seed": self.seed,
            "label": "deskbench",
            "dataset": {"synth": dict(n_samples=n_samples, **SYNTH)},
            "kernels": {"menu": {"operators": ["integral"], "integral_rank": RANK}},
            "fit": {"lambda": LAM, "r": 2},
        }

    def _cli(self, argv: list[str]) -> int:
        # the commands' progress lines would bury the benchmark's own output
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self) -> dict:
        state = {"codes": []}
        for name, n in (("train", N_DESK), ("query", self.n_queries)):
            config = self._path(f"{name}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(self._config(n), fh)
            state["codes"].append(self._cli(
                ["gen", "--config", config, "--out", self._path(f"{name}.txt")]))
        return state

    def run_round(self, state: dict, rnd: Round) -> None:
        out_dir = self._path("out")
        model = os.path.join(out_dir, "model.json")
        commands = [
            ["train", "--config", self._path("train.json"),
             "--data", self._path("train.txt"), "--output-dir", out_dir],
            ["predict", "--model", model, "--data", self._path("query.txt"),
             "--out", os.path.join(out_dir, "predictions.csv")],
            ["eval", "--model", model, "--data", self._path("query.txt"),
             "--output-dir", out_dir],
        ]
        start = time.perf_counter()
        for argv in commands:
            began = time.perf_counter()
            code = self._cli(argv)
            if argv[0] == "predict":
                rnd.predict_s = time.perf_counter() - began
            if code != 0:
                raise OperationFailed(f"movkl {argv[0]} exited {code}")
            rnd.done += 1
        rnd.work_s = time.perf_counter() - start
        rnd.curves = self.n_queries
        for name in ("model.json", "fit_report.json", "predictions.csv",
                     "metrics.json"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                rnd.outputs[name] = np.frombuffer(fh.read(), dtype=np.uint8)

    def check(self, state: dict, rnd: Round) -> list[str]:
        failures = [f"movkl gen exited {code}" for code in state["codes"] if code]
        docs = {}
        for name, n in (("train", N_DESK), ("query", self.n_queries)):
            doc = docs[name] = ref.read_dataset(self._path(f"{name}.txt"))
            ds = mk.generate_synthetic(mk.SynthSpec(n_samples=n, seed=self.seed,
                                                    **SYNTH))
            for key, want in (("input", ds.inputs.values),
                              ("target", ds.targets.values),
                              ("label", ds.labels.values),
                              ("input_grid_points", ds.input_grid.points),
                              ("input_grid_weights", ds.input_grid.weights),
                              ("output_grid_points", ds.output_grid.points),
                              ("output_grid_weights", ds.output_grid.weights)):
                failures += ref.check_equal(f"{name} file {key}", doc[key], want)
        out_dir = self._path("out")
        query = docs["query"]
        preds = ref.read_predictions(os.path.join(out_dir, "predictions.csv"))
        model = mk.load_model(os.path.join(out_dir, "model.json"))
        grid = mk.Grid(query["input_grid_points"], query["input_grid_weights"])
        want = mk.predict_many(model, mk.CurveVec(grid, query["input"])).values
        failures += ref.check_equal("predictions CSV", preds, want)
        with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        if metrics["n"] != self.n_queries:
            failures.append(f"metrics.json scores {metrics['n']} curves")
        failures += ref.check_close(
            "metrics.json RSSE", metrics["rsse"],
            ref.rsse(query["target"], preds, query["output_grid_weights"]), 1e-12)
        with open(os.path.join(out_dir, "fit_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        failures += ref.check_l2_weights("fit weights", report["weights"])
        failures += ref.check_monotone("fit objective", report["objective_trace"])
        return failures


WORKLOADS = {cls.name: cls for cls in (DeskMkl, DeskCv, CliFiles)}
