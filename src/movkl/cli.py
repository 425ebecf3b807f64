"""Command-line front end: gen, train, predict, eval and cv.

Runs are driven by a versioned JSON config document (schema below) plus a
few long-form flags; explicit flags win over config values.  Reports are
written as JSON and CSV with deterministic formatting, so identical
configs and seeds produce byte-identical outputs.

``predict`` and ``eval`` take their dataset in blocks of
:data:`movkl.learn.QUERY_BLOCK` curves, each one :func:`predict_many`
block on the calling thread alone, so they hold one block's arrays however
many curves the file has, and their outputs equal those of the whole file
bit for bit.  ``predict`` writes to ``<out>.part``, which replaces
``<out>`` once the command succeeds; ``eval`` keeps one RSSE term and one
label-hit count per curve and writes its metrics at the end.  A fault
anywhere in the dataset leaves no output behind.  ``gen`` writes each
block of curves as the thread engine (:func:`movkl.funcspace._in_order`)
finishes it, so it holds a few blocks, not the dataset.

Exit codes: 0 success, 2 config error, 3 data error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .data import (
    CurveDataset,
    SynthSpec,
    _format_row,
    _save_synthetic,
    generate_synthetic,
    load_dataset_blocks,
)
from .errors import CapacityError, ConfigError, DataError, MovklError, SolverError
from .evaluation import CvSpec, label_hits_by_curve, loo_cv, rsse_by_curve
from .funcspace import CurveVec
from .kernels import (
    GaussianKernel,
    KernelStack,
    PolynomialKernel,
    _sq_norms,
    block_trace_normalized,
    median_pairwise_distance,
    operator_from_config,
    scalar_kernel_from_config,
)
from .learn import (
    QUERY_BLOCK,
    FitConfig,
    load_model,
    movkl_fit,
    predict_many,
    save_model,
)
from .linsolve import SolveConfig

CONFIG_VERSION = 1

DEFAULT_BANDWIDTH_FACTORS = [0.1, 0.5, 1.0, 5.0, 10.0]
DEFAULT_POLY_DEGREES = [1, 2, 3]
DEFAULT_OPERATORS = ["identity", "multiplication", "integral"]

# key whitelist per config section; unknown keys are rejected outright
_SCHEMA = {
    "": {"version", "seed", "output_dir", "label", "normalize_inputs",
         "dataset", "kernels", "fit", "cv", "eval"},
    "dataset": {"path", "synth"},
    "dataset.synth": {"n_samples", "grid_size", "latency", "channel_count",
                      "noise_std", "random_filters"},
    "kernels": {"terms", "menu"},
    "kernels.menu": {"gaussian_bandwidth_factors", "polynomial_degrees",
                     "polynomial_offset", "operators", "integral_rank",
                     "normalize"},
    "fit": {"lambda", "r", "mkl_tol", "mkl_max_iter", "solver"},
    "fit.solver": {"outer_tol", "outer_max_iter"},
    "cv": {"lambda_grid", "rank_grid"},
    "eval": {"lcr_threshold"},
}


def _check_keys(doc: dict, section: str) -> None:
    allowed = _SCHEMA[section]
    for key in doc:
        if key not in allowed:
            where = section or "config root"
            raise ConfigError(f"unknown key {key!r} in {where}")
        sub = f"{section}.{key}" if section else key
        if sub in _SCHEMA:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"{sub} must be an object")
            _check_keys(doc[key], sub)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys(doc, "")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config version must be {CONFIG_VERSION}, got {doc.get('version')!r}"
        )
    return doc


def _resolve_dataset(config: dict, override_path=None) -> CurveDataset:
    (ds,) = _dataset_blocks(config, override_path)
    return ds


def _dataset_blocks(config: dict, override_path=None, size: int | None = None):
    """The run's dataset, from ``override_path``, ``dataset.path`` or
    ``dataset.synth``, as blocks of ``size`` curves (one block when None),
    with ``normalize_inputs`` applied to each.  Config errors are raised
    here; a file is read as the blocks are taken."""
    if override_path is not None:
        blocks = load_dataset_blocks(override_path, size)
    else:
        section = config.get("dataset")
        if not section:
            raise ConfigError("config needs a 'dataset' section")
        if ("path" in section) == ("synth" in section):
            raise ConfigError("dataset section needs exactly one of path/synth")
        if "path" in section:
            blocks = load_dataset_blocks(section["path"], size)
        else:
            ds = generate_synthetic(_synth_spec(config))
            blocks = iter([ds]) if size is None else ds.blocks(size)
    if config.get("normalize_inputs", False):
        blocks = map(_normalize_inputs, blocks)
    return blocks


def _check_grids(ds: CurveDataset, model, source, outputs: bool) -> None:
    """Raise DataError unless a block's input grid, and its output grid when
    ``outputs`` is set, are the model's; ``source`` names the dataset."""
    sides = [("input", ds.input_grid, model.input_grid)]
    if outputs:
        sides.append(("output", ds.output_grid, model.output_grid))
    for side, got, want in sides:
        if got != want:
            raise DataError(f"{source}: {side} grid of {got.size} points is not "
                            f"the model's {side} grid of {want.size} points")


def _normalize_inputs(ds: CurveDataset) -> CurveDataset:
    # the squared norms alone, by CurveStats' arithmetic, without its X * w
    norms = np.sqrt(_sq_norms(ds.inputs.values, ds.input_grid.weights))
    norms = np.where(norms > 0, norms, 1.0)
    return CurveDataset(
        # the quotient is a new array that nothing else holds
        inputs=CurveVec(ds.input_grid, ds.inputs.values / norms[:, None], copy=False),
        targets=ds.targets,
        labels=ds.labels,
    )


def _synth_spec(config: dict) -> SynthSpec:
    section = config.get("dataset", {}).get("synth")
    if not section:
        raise ConfigError("config needs dataset.synth for generation")
    try:
        return SynthSpec(
            n_samples=section["n_samples"],
            grid_size=section["grid_size"],
            latency=section.get("latency", 0),
            channel_count=section.get("channel_count", 1),
            noise_std=section.get("noise_std", 0.0),
            seed=config.get("seed", 0),
            random_filters=section.get("random_filters", True),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad synth spec: {exc}")


def build_stack(config: dict, ds: CurveDataset, rank_override=None) -> KernelStack:
    section = config.get("kernels")
    if not section:
        raise ConfigError("config needs a 'kernels' section")
    if ("terms" in section) == ("menu" in section):
        raise ConfigError("kernels section needs exactly one of terms/menu")
    grid = ds.output_grid
    pairs = []
    if "terms" in section:
        for item in section["terms"]:
            if not isinstance(item, dict) or set(item) - {"scalar", "operator"}:
                raise ConfigError("each kernel term needs scalar and operator")
            op_cfg = dict(item["operator"])
            if rank_override is not None and op_cfg.get("kind") == "integral":
                op_cfg["rank"] = rank_override
            try:
                pairs.append(
                    (
                        scalar_kernel_from_config(item["scalar"]),
                        operator_from_config(op_cfg, grid),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad kernel term: {exc}")
    else:
        menu = section["menu"]
        factors = menu.get("gaussian_bandwidth_factors", DEFAULT_BANDWIDTH_FACTORS)
        degrees = menu.get("polynomial_degrees", DEFAULT_POLY_DEGREES)
        offset = menu.get("polynomial_offset", 1.0)
        op_kinds = menu.get("operators", DEFAULT_OPERATORS)
        rank = menu.get("integral_rank")
        if rank_override is not None:
            rank = rank_override
        if rank is None:
            rank = min(grid.size, 20)
        scale = median_pairwise_distance(ds.inputs)
        if scale <= 0:
            scale = 1.0
        try:
            scalars = [GaussianKernel(f * scale) for f in factors]
            scalars += [PolynomialKernel(d, offset) for d in degrees]
            operators = [operator_from_config({"kind": kind, "rank": rank}, grid)
                         for kind in op_kinds]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad kernel menu: {exc}")
        if menu.get("normalize", True):
            pairs = [
                (block_trace_normalized(s, op, ds.inputs), op)
                for op in operators for s in scalars
            ]
        else:
            pairs = [(s, op) for op in operators for s in scalars]
    if not pairs:
        raise ConfigError("kernel configuration produced no terms")
    return KernelStack.uniform(pairs, norm_exponent=_fit_r(config))


def _fit_r(config: dict) -> float:
    r = config.get("fit", {}).get("r", 2.0)
    if r == "inf":
        return math.inf
    try:
        return float(r)
    except (TypeError, ValueError):
        raise ConfigError(f"fit.r must be a number or 'inf', got {r!r}")


def _fit_config(config: dict, lam=None) -> FitConfig:
    section = config.get("fit", {})
    if lam is None:
        lam = section.get("lambda")
        if lam is None:
            raise ConfigError("config needs fit.lambda")
    # only the keys the config sets; the dataclasses hold the defaults
    stopping = {k: section[k] for k in ("mkl_tol", "mkl_max_iter") if k in section}
    try:
        solve = SolveConfig(**section.get("solver", {}))
        return FitConfig(lam=float(lam), r=_fit_r(config), solve=solve, **stopping)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fit config: {exc}")


def _out_dir(config: dict, args) -> Path:
    out = args.output_dir or config.get("output_dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    spec = _synth_spec(config)
    out = Path(args.out) if args.out else _out_dir(config, args) / "dataset.txt"
    _save_synthetic(out, spec)
    print(f"wrote {spec.n_samples} samples to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    ds = _resolve_dataset(config, args.data)
    cfg = _fit_config(config)
    stack = build_stack(config, ds)
    model = movkl_fit(stack, ds.inputs, ds.targets, cfg)
    out_dir = _out_dir(config, args)
    model_path = Path(args.out) if args.out else out_dir / "model.json"
    save_model(model_path, model)
    report = {
        "label": config.get("label", "movkl"),
        "lambda": cfg.lam,
        "norm_exponent": "inf" if math.isinf(cfg.r) else cfg.r,
        "n_train": ds.n,
        "n_terms": len(stack),
        "weights": [float(d) for d in model.weights],
        "objective_trace": [float(v) for v in model.objective_trace],
        "outer_iterations": model.outer_iterations,
        "solver_iterations": model.solver_iterations,
        "solver_routes": model.solver_routes,
        "solver_residuals": model.solver_residuals,
        "model_file": model_path.name,
    }
    _write_json(out_dir / "fit_report.json", report)
    print(
        f"fit {report['label']}: {model.outer_iterations} outer iterations, "
        f"final objective {model.objective_trace[-1]:.6g}"
    )
    return 0


def cmd_predict(args) -> int:
    config = load_config(args.config) if args.config else {"version": 1}
    model = load_model(args.model)
    if not (args.data or config.get("dataset")):
        raise ConfigError("predict needs --data or a dataset section")
    blocks = _dataset_blocks(config, args.data, QUERY_BLOCK)
    source = args.data or config["dataset"].get("path", "dataset.synth")
    out = Path(args.out) if args.out else _out_dir(config, args) / "predictions.csv"
    # rows go to a sibling file that replaces the output only once every
    # block is read and predicted
    part = out.with_name(out.name + ".part")
    n = 0
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write("# output_grid_points=" + _format_row(model.output_grid.points)
                     + "\n")
            for ds in blocks:
                _check_grids(ds, model, source, outputs=False)
                for row in predict_many(model, ds.inputs).values:
                    fh.write(_format_row(row) + "\n")
                n += ds.n
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    os.replace(part, out)
    print(f"wrote {n} predicted curves to {out}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config) if args.config else {"version": 1}
    model = load_model(args.model)
    threshold = config.get("eval", {}).get("lcr_threshold", 0.5)
    # one RSSE term and one label-hit count per curve, reduced at the end
    # as rsse() and lcr() reduce them
    sq_errors, hits, n, samples = [], [], 0, 0
    blocks = _dataset_blocks(config, args.data, QUERY_BLOCK)
    source = args.data or config["dataset"].get("path", "dataset.synth")
    for ds in blocks:
        _check_grids(ds, model, source, outputs=True)
        preds = predict_many(model, ds.inputs)
        sq_errors.append(rsse_by_curve(ds.targets, preds))
        if ds.labels is not None:
            hits.append(label_hits_by_curve(ds.labels, preds, threshold))
            samples += ds.labels.values.size
        n += ds.n
    metrics = {
        "algorithm": config.get("label", "movkl"),
        "n": n,
        "rsse": float(np.sum(np.concatenate(sq_errors))),
        "lcr": None,
    }
    if hits:
        metrics["lcr"] = float(100.0 * (np.sum(np.concatenate(hits)) / samples))
    out_dir = _out_dir(config, args)
    _write_json(out_dir / "metrics.json", metrics)
    with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "rsse", "lcr"])
        writer.writerow([
            metrics["algorithm"],
            format(metrics["rsse"], ".17g"),
            "" if metrics["lcr"] is None else format(metrics["lcr"], ".17g"),
        ])
    lcr_txt = "n/a" if metrics["lcr"] is None else f"{metrics['lcr']:.2f}%"
    print(f"{metrics['algorithm']}: RSSE={metrics['rsse']:.6g} LCR={lcr_txt}")
    return 0


def cmd_cv(args) -> int:
    config = load_config(args.config)
    ds = _resolve_dataset(config, args.data)
    section = config.get("cv")
    if not section or "lambda_grid" not in section:
        raise ConfigError("config needs cv.lambda_grid")
    try:
        spec = CvSpec(
            lambda_grid=[float(v) for v in section["lambda_grid"]],
            rank_grid=section.get("rank_grid", [None]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad cv grids: {exc}")
    cfg = _fit_config(config, lam=spec.lambda_grid[0])
    best_lam, best_rank, table = loo_cv(
        lambda rank: build_stack(config, ds, rank_override=rank),
        ds.inputs, ds.targets, spec, cfg,
    )
    out_dir = _out_dir(config, args)
    with open(out_dir / "cv_table.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "rank", "cv_rsse", "valid"])
        for cand in table:
            writer.writerow([
                format(cand.lam, ".17g"),
                "" if cand.rank is None else cand.rank,
                "" if cand.cv_rsse is None else format(cand.cv_rsse, ".17g"),
                int(cand.valid),
            ])
    _write_json(out_dir / "cv_selected.json",
                {"lambda": best_lam, "rank": best_rank})
    print(f"selected lambda={best_lam:g} rank={best_rank}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movkl",
        description="operator-valued multiple kernel learning for curve regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="JSON run configuration")
        p.add_argument("--output-dir", default=None,
                       help="overrides output_dir from the config")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides seed from the config")

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    common(p)
    p.add_argument("--out", default=None, help="dataset file path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit a model on a dataset")
    common(p)
    p.add_argument("--data", default=None, help="dataset file (overrides config)")
    p.add_argument("--out", default=None, help="model archive path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict curves with a fitted model")
    common(p, needs_config=False)
    p.add_argument("--model", required=True, help="model archive")
    p.add_argument("--data", default=None, help="dataset file")
    p.add_argument("--out", default=None, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a fitted model on a dataset")
    common(p, needs_config=False)
    p.add_argument("--model", required=True, help="model archive")
    p.add_argument("--data", default=None, help="dataset file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="one-curve-leave-out hyperparameter selection")
    common(p)
    p.add_argument("--data", default=None, help="dataset file (overrides config)")
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except MovklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
