"""Desk-task benchmark for movkl: run one workload and print its metrics.

    python3 deskbench/run.py --workload desk-mkl [--seed 20120706]
                             [--seconds 20] [--trace 0|1]

Run from the root of a source checkout; movkl is imported from ``src/``.
Workloads: desk-mkl, desk-cv and cli-files (see README.md).

With ``--trace 0`` the run sets up the workload several times and reports
the median set-up time, then repeats whole rounds (main task plus
prediction step) until ``--seconds`` have passed and reports the medians
over rounds.  With ``--trace 1`` it sets up once under the tracer, runs
one round untraced and one traced, and reports the per-layer metrics;
the difference between the two rounds' ``work_s`` is the tracing
overhead.  Either way the outputs are then checked against reference
computations that do not use movkl, and the last line printed is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# one BLAS thread: with a thread per core the timings spread far more, and
# the variables must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
DEFAULT_SEED = 20120706
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("predict_curves_per_s", "curves/s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-mkl", "desk-cv", "cli-files"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, state, until):
    """Run whole rounds until ``until(rounds attempted)`` is true.

    Returns the completed rounds and the operations attempted and failed.
    """
    from workloads import OperationFailed, Round

    rounds, attempted, failed = [], 0, 0
    while True:
        rnd = Round()
        attempted += workload.ops_per_round
        try:
            workload.run_round(state, rnd)
            rnd.peak_rss_mb = peak_rss_mb()
            rounds.append(rnd)
        except OperationFailed:
            traceback.print_exc(file=sys.stderr)
            failed += workload.ops_per_round - rnd.done
        if until(attempted // workload.ops_per_round):
            return rounds, attempted, failed


def timed_run(workload, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before timing the next
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    rounds, attempted, failed = run_rounds(
        workload, state, lambda n: time.perf_counter() - start >= seconds)
    metrics = {}
    if rounds:
        metrics = {
            "setup_s": statistics.median(setups),
            "work_s": statistics.median(r.work_s for r in rounds),
            "predict_curves_per_s": statistics.median(
                r.curves / r.predict_s for r in rounds),
            # after the first round, so that the figure does not grow with the
            # number of rounds a faster program fits into the run
            "peak_rss_mb": rounds[0].peak_rss_mb,
        }
    return state, rounds, attempted, failed, metrics


def traced_run(workload):
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        state = workload.setup()
    plain, attempted, failed = run_rounds(workload, state, lambda n: n >= 1)
    with tracer:
        traced, attempted_t, failed_t = run_rounds(workload, state,
                                                   lambda n: n >= 1)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced[0].work_s - plain[0].work_s
                                   if plain and traced else 0.0)
    return (state, plain + traced, attempted + attempted_t, failed + failed_t,
            metrics, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "movkl" / "__init__.py").is_file():
        print(f"error: no movkl sources under {CHECKOUT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(HERE)]
    from workloads import WORKLOADS
    from tracing import PER_LAYER

    out_dir = CHECKOUT / ".deskbench"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            state, rounds, attempted, failed, metrics, tracer = traced_run(
                workload)
            units = dict(PER_LAYER)
        else:
            state, rounds, attempted, failed, metrics = timed_run(
                workload, args.seconds)
            units = dict(END_TO_END)
        if not rounds:
            print("error: every round failed", file=sys.stderr)
            return 1
        failures = workload.check(state, rounds[-1])
        prints = {workload.fingerprint(r) for r in rounds}
        if len(prints) != 1:
            failures.append(f"rounds gave {len(prints)} different outputs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        with open(out_dir / f"trace-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    for message in failures:
        print(f"CHECK FAILED: {message}")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed, "
          f"checks {'passed' if not failures else 'FAILED'}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    line = json.dumps(result)
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
