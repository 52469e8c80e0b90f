"""The traced run: per-layer metrics from inside one process.

The same ops as the untraced run are made in process through
``cvol.cli.main``.  Each op runs twice in a row: plain, then with the
public functions of every ``cvol`` layer wrapped.  A wrapper records one
span per call (name, parent, start, end) into flat arrays; the spans are
written to ``.perfbench_work/spans-<workload>.tsv`` at the end.  Per
function the run reports, per op: calls, inclusive seconds (``.s``) and
self seconds (``.self_s``: duration minus the direct child spans).  The
ratio of traced to plain wall time, less one, is the tracing overhead.

A function is wrapped under every attribute of every loaded ``cvol``
module that binds it, since modules import these by name.  A function
that no ``cvol`` module defines any more is reported with zero calls and
counted in ``trace.absent``; it does not stop the run.

The ``cli`` layer is also measured from outside: the wall time of a bare
interpreter, and the time ``import numpy`` and ``import cvol`` take in a
fresh interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import statistics
import sys
import time
from array import array
from pathlib import Path

import checks
import workloads
from child import SRC, WORKDIR, run_child

CLI_PROBE_REPEATS = 5

#: metric prefix -> (defining module, function name), one per layer function
LAYER_FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "triangulation.parse_triangulation": ("triangulation",
                                          "parse_triangulation"),
    "triangulation.edge_classes": ("triangulation", "edge_classes"),
    "triangulation.orientation_signs": ("triangulation", "orientation_signs"),
    "triangulation.path_passes": ("triangulation", "path_passes"),
    "triangulation.vertex_link_cycles": ("triangulation",
                                         "vertex_link_cycles"),
    "gluing.gluing_equations": ("gluing", "gluing_equations"),
    "gluing.solve_shapes": ("gluing", "solve_shapes"),
    "flattening.solve_flattenings": ("flattening", "solve_flattenings"),
    "flattening.build_j_complex": ("flattening", "build_j_complex"),
    "flattening.integral_defect": ("flattening", "integral_defect"),
    "flattening.homology_of_j": ("flattening", "homology_of_j"),
    "flattening.h1_mod2": ("flattening", "h1_mod2"),
    "flattening.complex_volume": ("flattening", "complex_volume"),
    "intlinalg.row_hnf": ("intlinalg", "row_hnf"),
    "intlinalg.solve_integer_system": ("intlinalg", "solve_integer_system"),
    "intlinalg.reduce_mod_lattice": ("intlinalg", "reduce_mod_lattice"),
    "intlinalg.rank": ("intlinalg", "rank"),
    "intlinalg.smith_invariant_factors": ("intlinalg",
                                          "smith_invariant_factors"),
    "intlinalg.gf2_rank": ("intlinalg", "gf2_rank"),
    "polylog.dilog": ("polylog", "dilog"),
    "polylog.rogers": ("polylog", "rogers"),
    "polylog.lifted_rogers": ("polylog", "lifted_rogers"),
    "polylog.lifted_rogers_raw": ("polylog", "lifted_rogers_raw"),
    "bloch.r_of_element": ("bloch", "r_of_element"),
    "bloch.nu_symbolic": ("bloch", "nu_symbolic"),
    "wedge.wedge": ("wedge", "wedge"),
    "wedge.combine": ("wedge", "combine"),
    "wedge.is_zero": ("wedge", "is_zero"),
}

#: the suites of ``cvol.verify.ALL_SUITES`` at the time the benchmark was
#: defined; each is reported as ``verify.<suite>.s``.
VERIFY_SUITES = (
    "suite_five_term_rogers", "suite_five_term_nu", "suite_five_term_parity",
    "suite_five_term_eep", "suite_transfer", "suite_three_equations",
    "suite_homo", "suite_super_transfer", "suite_one_minus_x", "suite_chi",
    "suite_chi_hat", "suite_kappa", "suite_edge_kernel",
    "suite_cycle_relation",
)

_COUNTERS = {
    "intlinalg.row_hnf.max_cells": "cells",
    "triangulation.vertex_link_cycles.cycles": "cycles/call",
    "triangulation.vertex_link_cycles.capped": "fraction",
    "flattening.kernel_rank_raw": "rank",
    "flattening.kernel_rank_pruned": "rank",
    "gluing.solve_shapes.iterations": "iter/call",
    "cli.interp_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_cvol_s": "s",
    "trace.overhead": "fraction",
    "trace.ops": "ops",
    "trace.absent": "functions",
    "failed_fraction": "fraction",
    "known_defect.cs_vertex_relabeled": "fraction",
}

#: name -> unit of every per-layer metric, in output order.
PER_LAYER = {
    **{f"{prefix}.{stat}": unit
       for prefix in LAYER_FUNCTIONS
       for stat, unit in (("calls", "calls/op"), ("s", "s/op"),
                          ("self_s", "s/op"))},
    **{f"verify.{suite}.s": "s/op" for suite in VERIFY_SUITES},
    **_COUNTERS,
    **{f"check.{kind}": "fraction" for kind in checks.KINDS
       if kind != "timeout"},
}


class Tracer:
    """Wraps functions and records their spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.counters: dict[str, float] = {}

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one span per call under ``name``; ``after``
        sees (args, kwargs, result) of each call, outside the span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _observer(self, prefix: str, fn):
        """Counter hook for the functions whose arguments or results are
        reported (sums; ``traced_run`` divides by the call count)."""
        if prefix == "intlinalg.row_hnf":
            def after(args, kwargs, result):
                m = args[0] if args else next(iter(kwargs.values()))
                cells = len(m) * (len(m[0]) if m else 0)
                key = "intlinalg.row_hnf.max_cells"
                self.counters[key] = max(self.counters.get(key, 0), cells)
        elif prefix == "triangulation.vertex_link_cycles":
            signature = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                cap = bound.arguments.get("max_cycles")
                self._add(f"{prefix}.cycles", len(result))
                self._add(f"{prefix}.capped",
                          cap is not None and len(result) >= cap)
        elif prefix == "flattening.solve_flattenings":
            def after(args, kwargs, result):
                self._add("flattening.kernel_rank_raw",
                          len(getattr(result, "raw_kernel", ())))
                self._add("flattening.kernel_rank_pruned",
                          len(getattr(result, "kernel", ())))
        elif prefix == "gluing.solve_shapes":
            def after(args, kwargs, result):
                self._add(f"{prefix}.iterations",
                          getattr(result, "iterations", 0))
        else:
            after = None
        return after

    def prepare(self, modules: list) -> list[str]:
        """Make a wrapper for every layer function and find every binding
        to replace; return the metric prefixes whose function no module
        defines."""
        absent = []
        for prefix, (module_name, func_name) in LAYER_FUNCTIONS.items():
            fn = _find_function(modules, module_name, func_name)
            if fn is None:
                absent.append(prefix)
                continue
            wrapper = self.wrap(fn, prefix, self._observer(prefix, fn))
            for module in modules:
                for attr, value in vars(module).items():
                    if value is fn:
                        self._bindings.append((module, attr, fn, wrapper))
        verify = sys.modules.get("cvol.verify")
        suites = getattr(verify, "ALL_SUITES", None)
        if suites is not None:
            wrapped = tuple(self.wrap(s, f"verify.{s.__name__}")
                            for s in suites)
            self._bindings.append((verify, "ALL_SUITES", suites, wrapped))
        return absent

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(len(self.name)):
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return out

    def write(self, path: Path) -> None:
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                handle.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - origin:.9f}\t"
                    f"{self.end[i] - origin:.9f}\n")


def _find_function(modules: list, module_name: str, func_name: str):
    """The function where it is defined now: in ``cvol.<module_name>`` if
    it is still there, else in whichever cvol module defines it."""
    preferred = sys.modules.get(f"cvol.{module_name}")
    candidates = ([preferred] if preferred else []) + modules
    for module in candidates:
        fn = getattr(module, func_name, None)
        if inspect.isfunction(fn) and fn.__module__.startswith("cvol"):
            return fn
    return None


def _import_cvol() -> list:
    """Import cvol and all of its submodules from the checkout."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("cvol")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"cvol.{info.name}")
    return [module for name, module in sorted(sys.modules.items())
            if name == "cvol" or name.startswith("cvol.")]


def _cli_probes() -> dict[str, float]:
    """Interpreter start, and the import times of numpy and cvol, each
    measured in a fresh interpreter."""
    def timed_import(module: str) -> list[str]:
        return [sys.executable, "-c",
                "import time; t = time.perf_counter(); "
                f"import {module}; print(time.perf_counter() - t)"]

    samples: dict[str, list[float]] = {"cli.interp_s": [],
                                       "cli.import_numpy_s": [],
                                       "cli.import_cvol_s": []}
    for _ in range(CLI_PROBE_REPEATS):
        samples["cli.interp_s"].append(
            run_child([sys.executable, "-c", "pass"]).wall_s)
        for key, module in (("cli.import_numpy_s", "numpy"),
                            ("cli.import_cvol_s", "cvol")):
            outcome = run_child(timed_import(module))
            if outcome.returncode != 0:
                raise RuntimeError(f"import {module} failed: "
                                   f"{outcome.stderr.strip()[-300:]}")
            samples[key].append(float(outcome.stdout))
    return {key: statistics.median(v) for key, v in samples.items()}


def _run_inprocess(cli, op: workloads.Op) -> tuple[int | None, str]:
    """One op through ``cli.main`` (looked up at call time, so a wrapped
    ``main`` is the one called); returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing op is a failed op
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = None
    return code, out.getvalue()


def _defect_share(cli, seed: int) -> float:
    """Share of the defect probes whose cs is wrong.  These are not ops of
    the workload: they measure a known defect, so they count in no failure
    figure."""
    probes = workloads.defect_probes(seed, WORKDIR)
    wrong = 0
    for op in probes:
        code, stdout = _run_inprocess(cli, op)
        failed, _ = checks.check_output(op.kind, op.cover, code, False,
                                        stdout)
        wrong += "cs" in failed
    return wrong / len(probes)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    warmup, ops = workloads.build(workload, seed, WORKDIR)
    probes = _cli_probes()
    modules = _import_cvol()
    cli = sys.modules["cvol.cli"]
    _run_inprocess(cli, warmup)

    # Each op runs plain, then traced; alternating keeps drift in machine
    # speed out of the overhead figure.
    tracer = Tracer()
    absent = tracer.prepare(modules)
    failures = {kind: 0 for kind in checks.KINDS}
    failed_ops = count = 0
    plain_s = traced_s = 0.0
    while count == 0 or plain_s + traced_s < seconds:
        op = ops[count % len(ops)]
        count += 1
        t0 = time.perf_counter()
        _run_inprocess(cli, op)
        plain_s += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            code, stdout = _run_inprocess(cli, op)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        failed, _ = checks.check_output(op.kind, op.cover, code, False,
                                        stdout)
        failed_ops += bool(failed)
        for kind in failed:
            failures[kind] += 1
    tracer.write(WORKDIR / f"spans-{workload}.tsv")

    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for prefix in LAYER_FUNCTIONS:
        calls, inclusive, own = totals.get(prefix, (0, 0.0, 0.0))
        metrics[f"{prefix}.calls"] = calls / count
        metrics[f"{prefix}.s"] = inclusive / count
        metrics[f"{prefix}.self_s"] = own / count
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.s"] = totals.get(
            f"verify.{suite}", (0, 0.0, 0.0))[1] / count

    c = tracer.counters
    for key, function in (
            ("triangulation.vertex_link_cycles.cycles",
             "triangulation.vertex_link_cycles"),
            ("triangulation.vertex_link_cycles.capped",
             "triangulation.vertex_link_cycles"),
            ("flattening.kernel_rank_raw", "flattening.solve_flattenings"),
            ("flattening.kernel_rank_pruned", "flattening.solve_flattenings"),
            ("gluing.solve_shapes.iterations", "gluing.solve_shapes")):
        metrics[key] = c.get(key, 0) / max(totals.get(function, [0])[0], 1)
    metrics["intlinalg.row_hnf.max_cells"] = c.get(
        "intlinalg.row_hnf.max_cells", 0)
    metrics.update(probes)
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    metrics["trace.ops"] = count
    metrics["trace.absent"] = len(absent)
    metrics["failed_fraction"] = failed_ops / count
    metrics["known_defect.cs_vertex_relabeled"] = _defect_share(cli, seed)
    for kind in checks.KINDS:
        if kind != "timeout":
            metrics[f"check.{kind}"] = failures[kind] / count
    if absent:
        print(f"absent layer functions: {', '.join(absent)}",
              file=sys.stderr)
    return {
        "attempted": count,
        "failed": failed_ops,
        "elapsed_s": plain_s + traced_s,
        "failures": failures,
        "metrics": {name: metrics[name] for name in PER_LAYER},
    }
