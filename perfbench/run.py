"""Benchmark of the ``cvol`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop (one client,
one ``cvol`` child process at a time) runs the workload's ops for
``--seconds`` seconds, checks every op's output, and reports per-op wall
time, throughput and peak memory; times are rescaled to a reference
machine speed (see ``REFERENCE_LOOP_S``).  ``--trace 1`` makes the same ops in
process and reports the per-layer metrics (see ``tracer.py``).

The program under test is ``src/cvol`` of the checkout, imported through
``PYTHONPATH``; the run fails without printing a result when it is
missing.  Generated inputs, op outputs and span dumps go to
``.perfbench_work/`` in the checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count ops; an op fails on a
nonzero exit, a timeout or a wrong answer, and ``correct`` is true only
when no op failed.  The lines before it give the failures by kind and
the metrics, for a reader.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import checks
import workloads
from child import SRC, WORKDIR, run_child

SETUP_REPEATS = 3
CHILD_MAIN = "import sys; from cvol.cli import main; sys.exit(main())"

#: name -> unit of every end-to-end metric, in output order.
END_TO_END = {
    "setup_s": "s",
    "op_wall_s.p50": "s",
    "op_wall_s.p75": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


#: Speed calibration.  The CPU speed a shared host gives this benchmark
#: drifts by 20-40% over tens of seconds, and the child's CPU time drifts
#: with its wall time, so raw times of two runs differ by more than any
#: useful bound.  The client therefore times a fixed pure-Python loop
#: (median of CALIBRATION_REPEATS) before the set-ups and after every
#: set-up and op, and rescales each time t to a machine on which that loop
#: takes REFERENCE_LOOP_S:  t * REFERENCE_LOOP_S / loop_s, with loop_s the
#: mean of the loop times just before and just after t.  The raw times are
#: printed above the result line.
REFERENCE_LOOP_S = 0.0035
CALIBRATION_REPEATS = 5


def _reference_loop() -> int:
    acc = 0
    table = {}
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return acc + len(table)


def loop_time() -> float:
    """Median wall time of the reference loop now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedScale:
    """Rescales the times measured between two calls of ``scale``."""

    def __init__(self) -> None:
        self.before = loop_time()

    def scale(self, t: float) -> float:
        after = loop_time()
        loop_s = (self.before + after) / 2
        self.before = after
        return t * REFERENCE_LOOP_S / loop_s


def cvol_command(op: workloads.Op) -> list[str]:
    return [sys.executable, "-c", CHILD_MAIN, *op.argv]


def op_units(op: workloads.Op, report: dict) -> int:
    return checks.verify_units(report) if op.kind == "verify" else op.tets


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_wall_percentile(walls_by_size: dict[int, list[float]], q: int) -> float:
    """Per-op wall-time percentile; on a workload that mixes input sizes,
    the geometric mean of the per-size percentiles, so the figure does not
    jump between size clusters as the op count changes."""
    return statistics.geometric_mean(
        [percentile(v, q) for v in walls_by_size.values()])


def work_rate(walls_by_size: dict[int, list[float]],
              units_by_size: dict[int, list[int]]) -> float:
    """Work per second over one round of the op mix (one op of each size),
    from the mean wall time and mean work of each size, so the figure does
    not depend on which size the loop happened to stop after."""
    units = sum(statistics.fmean(units_by_size[s]) for s in walls_by_size)
    wall = sum(statistics.fmean(v) for v in walls_by_size.values())
    return units / wall


def timing_metrics(setups: list[float],
                   walls_by_size: dict[int, list[float]],
                   units_by_size: dict[int, list[int]]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "op_wall_s.p50": op_wall_percentile(walls_by_size, 50),
        "op_wall_s.p75": op_wall_percentile(walls_by_size, 75),
        "work_per_s": work_rate(walls_by_size, units_by_size),
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced closed-loop run: end-to-end metrics and failure counts."""
    speed = SpeedScale()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        warmup, ops = workloads.build(workload, seed, WORKDIR)
        run_child(cvol_command(warmup))
        raw_setups.append(time.perf_counter() - t0)
        setups.append(speed.scale(raw_setups[-1]))

    walls_by_size: dict[int, list[float]] = {}
    raw_walls_by_size: dict[int, list[float]] = {}
    units_by_size: dict[int, list[int]] = {}
    failures = {kind: 0 for kind in checks.KINDS}
    failed_ops = 0
    peak_rss = 0.0
    attempted = 0
    first_errors: dict[str, str] = {}
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        op = ops[attempted % len(ops)]
        attempted += 1
        outcome = run_child(cvol_command(op))
        failed, report = checks.check_output(
            op.kind, op.cover, outcome.returncode, outcome.timed_out,
            outcome.stdout)
        raw_walls_by_size.setdefault(op.size, []).append(outcome.wall_s)
        walls_by_size.setdefault(op.size, []).append(
            speed.scale(outcome.wall_s))
        peak_rss = max(peak_rss, outcome.maxrss_mb)
        units_by_size.setdefault(op.size, []).append(op_units(op, report))
        if failed:
            failed_ops += 1
            for kind in failed:
                failures[kind] += 1
                first_errors.setdefault(
                    kind, f"{' '.join(op.argv)}: exit {outcome.returncode}; "
                    f"{outcome.stderr.strip()[-300:] or outcome.stdout[:300]}")
    elapsed = time.perf_counter() - start

    metrics = timing_metrics(setups, walls_by_size, units_by_size)
    metrics["peak_rss_mb"] = peak_rss
    return {
        "raw": timing_metrics(raw_setups, raw_walls_by_size, units_by_size),
        "attempted": attempted,
        "failed": failed_ops,
        "elapsed_s": elapsed,
        "failures": failures,
        "first_errors": first_errors,
        "metrics": metrics,
    }


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cvol" / "cli.py").is_file():
        print(f"error: no cvol sources under {SRC}; run the benchmark from "
              "the root of a cvol checkout", file=sys.stderr)
        return 2
    if args.trace:
        import tracer
        result = tracer.traced_run(args.workload, args.seed, args.seconds)
        units = tracer.PER_LAYER
    else:
        result = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END
        for kind, message in result["first_errors"].items():
            print(f"first {kind} failure: {message}", file=sys.stderr)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed} "
          f"({failed / attempted:.3g})  measured {result['elapsed_s']:.3f} s")
    for kind, count in result["failures"].items():
        print(f"  check.{kind}: {count} of {attempted} ops failed")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in result.get("raw", {}).items():
        print(f"  raw {name} = {value:.6g} {units[name]}")
    # An op with a wrong answer is a failed op, and a run with a failed op
    # is not correct.
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
