"""Hyperparameter selection and the command-line pipeline.

One-curve-leave-out cross-validation scores every (ridge, rank)
candidate by the error on each curve held out in turn; the CLI wraps the
same machinery behind JSON configs and writes deterministic reports.
The single-term stack below keeps a fixed weight and one operator, so
its folds are scored in closed form from one eigendecomposition per
rank; a multi-term stack with a finite norm exponent, whose weights
differ per fold, or one mixing operators refits every fold.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import movkl as mk

ds = mk.generate_synthetic(mk.SynthSpec(
    n_samples=24, grid_size=60, latency=5, channel_count=2,
    noise_std=0.1, seed=21))
X, Y = ds.inputs, ds.labels
grid = ds.output_grid
gk = mk.GaussianKernel(mk.median_pairwise_distance(X))

spec = mk.CvSpec(lambda_grid=list(np.logspace(-4, 2, 5)), rank_grid=[5, 15])
lam, rank, table = mk.loo_cv(
    lambda q: mk.KernelStack([mk.OvKernelTerm(
        gk, mk.IntegralOperator(grid, rank=q), 1.0)]),
    X, Y, spec, mk.FitConfig(lam=1.0),
)
print(f"selected lambda={lam:g} rank={rank}")
for cand in table:
    print(f"  lambda={cand.lam:<10g} rank={cand.rank:<4} "
          f"cv_rsse={cand.cv_rsse:.4f}")

# the same flow through the CLI, end to end
workdir = Path(tempfile.mkdtemp(prefix="movkl_demo_"))
config = {
    "version": 1,
    "seed": 21,
    "output_dir": str(workdir / "out"),
    "dataset": {"synth": {"n_samples": 24, "grid_size": 60, "latency": 5,
                          "channel_count": 2, "noise_std": 0.1}},
    "kernels": {"menu": {"gaussian_bandwidth_factors": [0.5, 1.0, 2.0],
                         "polynomial_degrees": [1],
                         "operators": ["identity", "integral"],
                         "integral_rank": 10}},
    "fit": {"lambda": 0.01, "r": 2},
}
cfg_path = workdir / "run.json"
cfg_path.write_text(json.dumps(config, indent=2))

def cli(*args):
    cmd = [sys.executable, "-m", "movkl.cli", *args]
    print("$", " ".join(str(a) for a in cmd[2:]))
    subprocess.run(cmd, check=True)

data_path = workdir / "data.txt"
cli("gen", "--config", cfg_path, "--out", data_path)
cli("train", "--config", cfg_path, "--data", data_path)
cli("eval", "--config", cfg_path, "--model", workdir / "out" / "model.json",
    "--data", data_path)

report = json.loads((workdir / "out" / "fit_report.json").read_text())
print("fit report objective trace:", np.round(report["objective_trace"], 4))
metrics = json.loads((workdir / "out" / "metrics.json").read_text())
print("metrics:", metrics)
print("outputs in", workdir / "out")
