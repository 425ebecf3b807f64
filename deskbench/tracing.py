"""Spans around every call into movkl's public functions.

The tracer wraps each public function of the traced modules and installs
the wrapper under every name it is looked up by: the defining module, the
package namespace and each sibling module that imported it by name (for
example ``movkl.learn.kron_solve`` or ``movkl.cli.movkl_fit``).  Patching
only the defining module would miss those calls.

A span records its name, start, end and parent span.  Spans stay in memory
until :meth:`Tracer.layer_metrics` turns them into per-layer figures; the
counts that live in returned values (solver reports, models) and file
sizes are recorded as the calls return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("data", "kernels", "linsolve", "learn", "evaluation", "cli")
CLI_COMMANDS = ("gen", "train", "predict", "eval")
SOLVERS = ("dense_solve", "kron_solve", "gauss_seidel_solve")
FITS = ("learn.movkl_fit", "learn.krr_fit")

# (metric, unit) in the order the traced run prints them
PER_LAYER = [
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("total_s", "s"), ("self_s", "s"), ("calls", "count"))
] + [
    ("data.generate_s", "s"),
    ("data.save_s", "s"),
    ("data.file_mb", "MB"),
    ("data.load_s", "s"),
    ("kernels.normalize_s", "s"),
    ("kernels.assemble_s", "s"),
    ("kernels.assemble_calls", "count"),
    ("linsolve.gs_s", "s"),
    ("linsolve.gs_calls", "count"),
    ("linsolve.gs_sweeps", "count"),
    ("linsolve.kron_s", "s"),
    ("linsolve.kron_calls", "count"),
    ("linsolve.max_rel_residual", "ratio"),
    ("linsolve.unconverged", "count"),
    ("learn.fit_s", "s"),
    ("learn.fit_calls", "count"),
    ("learn.outer_iterations", "count"),
    ("learn.solves_per_fit", "solves/fit"),
    ("learn.weight_update_s", "s"),
    ("learn.predict_s", "s"),
    ("learn.predict_calls", "count"),
    ("learn.save_model_s", "s"),
    ("learn.load_model_s", "s"),
    ("learn.model_mb", "MB"),
    ("evaluation.loo_cv_s", "s"),
    ("evaluation.fold_fits", "count"),
] + [(f"cli.{cmd}_s", "s") for cmd in CLI_COMMANDS] + [
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


class Tracer:
    """In-memory span recorder; install() patches movkl, uninstall() undoes it."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, float] = {
            "gs_sweeps": 0, "max_rel_residual": 0.0, "unconverged": 0,
            "outer_iterations": 0, "file_bytes": 0, "model_bytes": 0,
        }
        self._open: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args) if name_of else name, 0.0, 0.0,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_solve(self, args, result):
        report = result[1]
        if report.solver_kind == "gauss_seidel":
            self.counts["gs_sweeps"] += report.iterations
        self.counts["max_rel_residual"] = max(self.counts["max_rel_residual"],
                                              report.final_residual)
        self.counts["unconverged"] += not report.converged

    def _after_fit(self, args, model):
        self.counts["outer_iterations"] += model.outer_iterations

    def _after_save(self, key):
        def after(args, result):
            self.counts[key] += os.path.getsize(args[0])
        return after

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("movkl")
        modules = [package] + [importlib.import_module(f"movkl.{layer}")
                               for layer in LAYERS]
        hooks = {name: self._after_solve for name in SOLVERS}
        hooks.update(movkl_fit=self._after_fit, krr_fit=self._after_fit,
                     save_dataset=self._after_save("file_bytes"),
                     save_model=self._after_save("model_bytes"))
        for layer, module in zip(LAYERS, modules[1:]):
            if layer == "cli":
                targets = {"main": self._wrap(
                    "cli.main", module.main,
                    name_of=lambda args: f"cli.{args[0][0]}")}
            else:
                targets = {
                    name: self._wrap(f"{layer}.{name}", getattr(module, name),
                                     hooks.get(name))
                    for name in module.__all__
                    if inspect.isfunction(getattr(module, name))
                    and getattr(module, name).__module__ == module.__name__
                }
            for name, wrapper in targets.items():
                original = wrapper.__wrapped__
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, self times, calls and the recorded counts."""
        n = len(self.spans)
        duration = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * n
        for k, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += duration[k]
        layer_of = [name.split(".", 1)[0] for name, *_ in self.spans]

        def under(k, target) -> bool:
            return any(self.spans[p][0] == target
                       for p in _ancestors(self.spans, k))

        def total(*names) -> float:
            return sum(duration[k] for k in range(n) if self.spans[k][0] in names)

        def calls(*names) -> int:
            return sum(1 for k in range(n) if self.spans[k][0] in names)

        out: dict[str, float] = {}
        for layer in LAYERS:
            # a layer's total counts only its outermost spans, so time spent
            # in one of its functions called by another is not counted twice
            out[f"{layer}.total_s"] = sum(
                duration[k] for k in range(n) if layer_of[k] == layer
                and not any(layer_of[p] == layer
                            for p in _ancestors(self.spans, k)))
            out[f"{layer}.self_s"] = sum(
                duration[k] - child_time[k] for k in range(n)
                if layer_of[k] == layer)
            out[f"{layer}.calls"] = layer_of.count(layer)
        solves = [f"linsolve.{name}" for name in SOLVERS]
        fit_calls = calls(*FITS)
        solves_in_fits = sum(1 for k in range(n) if self.spans[k][0] in solves
                             and any(under(k, fit) for fit in FITS))
        out.update({
            "data.generate_s": total("data.generate_synthetic"),
            "data.save_s": total("data.save_dataset"),
            "data.file_mb": self.counts["file_bytes"] / 1e6,
            "data.load_s": total("data.load_dataset"),
            "kernels.normalize_s": total("kernels.block_trace_normalized"),
            "kernels.assemble_s": total("kernels.assemble_gram"),
            "kernels.assemble_calls": calls("kernels.assemble_gram"),
            "linsolve.gs_s": total("linsolve.gauss_seidel_solve"),
            "linsolve.gs_calls": calls("linsolve.gauss_seidel_solve"),
            "linsolve.gs_sweeps": self.counts["gs_sweeps"],
            "linsolve.kron_s": total("linsolve.kron_solve"),
            "linsolve.kron_calls": calls("linsolve.kron_solve"),
            "linsolve.max_rel_residual": self.counts["max_rel_residual"],
            "linsolve.unconverged": self.counts["unconverged"],
            "learn.fit_s": total(*FITS),
            "learn.fit_calls": fit_calls,
            "learn.outer_iterations": self.counts["outer_iterations"],
            "learn.solves_per_fit": solves_in_fits / fit_calls if fit_calls else 0.0,
            "learn.weight_update_s": total("learn.weight_update"),
            "learn.predict_s": total("learn.predict", "learn.predict_many"),
            "learn.predict_calls": calls("learn.predict", "learn.predict_many"),
            "learn.save_model_s": total("learn.save_model"),
            "learn.load_model_s": total("learn.load_model"),
            "learn.model_mb": self.counts["model_bytes"] / 1e6,
            "evaluation.loo_cv_s": total("evaluation.loo_cv"),
            "evaluation.fold_fits": sum(
                1 for k in range(n) if self.spans[k][0] in FITS
                and under(k, "evaluation.loo_cv")),
            "trace.spans": n,
        })
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
        return out

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]


def _ancestors(spans, k):
    parent = spans[k][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]
