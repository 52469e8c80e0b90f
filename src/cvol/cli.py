"""Command-line front end.

Subcommands:

* ``cvol FILE``      full pipeline: parse, solve shapes, solve flattenings,
                     evaluate the lifted Rogers sum; reports volume and the
                     Chern-Simons value modulo pi^2.
* ``verify``         randomized identity suites (five-term, transfer, ...).
* ``homology FILE``  homology of the J-complex.
* ``edges FILE``     edge classes and valences.
* ``flatten FILE``   branch-index table and residual report.

Output is text or JSON; JSON field order is fixed and floats use the
shortest round-trip decimal, so identical inputs (and seeds) give
byte-identical output.  Exit code 0 means every requested check passed.
A command loads and computes only what it prints: each handler imports the
modules it uses, so ``verify`` loads no triangulation code, ``cvol`` and
``flatten`` no Bloch-group, wedge or J-complex code, ``homology`` and
``edges`` no logarithm, and only ``flatten`` prunes the flattening kernel.
Every command that reads a triangulation refuses, at stage ``parse``, one
whose vertex links are not all tori.

Importing this module registers ``gc.freeze`` with ``atexit``, so that when
the interpreter exits every live object is moved to the permanent generation
and the shutdown collection skips it: every object a command loads or
builds lives until exit anyway, and collecting them costs a ``cvol``
process about 4 ms.  Freezing allocates nothing and frees nothing, and
the interpreter flushes stdout and stderr after the atexit callbacks
whatever the collector does, so output and exit code are unchanged.  A
frozen reference cycle is not finalized at exit; no command leaves one
holding an open file or process.  The callback is registered once, at
import, so calling ``main`` again adds none.  An in-process caller (a test,
a tracer) is affected only when its own interpreter exits; a forked
``verify`` worker leaves by ``os._exit`` and runs no atexit callback.

``main`` also pauses the cyclic collector while the command runs and puts
back the state it found, whether the command returns or raises, so an
in-process caller keeps its collector.  The commands leave no reference
cycles, so the collections the pause skips would free next to nothing;
reference counting still frees everything else at once.  ``verify``
workers forked during the pause run without the collector too.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys

from .errors import CVolError

atexit.register(gc.freeze)


def _load(path: str):
    from .triangulation import parse_triangulation

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CVolError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CVolError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CVolError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise CVolError(f"{path} nests too deeply to parse: {exc}") from exc
    return parse_triangulation(document)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
        return
    for key, value in report.items():
        print(f"{key}: {value}")


def _solve(args):
    """Parse, solve the shapes, then the flattenings."""
    from .flattening import solve_flattenings
    from .gluing import solve_shapes

    tri = _stage("parse", _load, args.file)
    solution = _stage(
        "solve_shapes", solve_shapes, tri, None, args.tolerance_newton,
        args.max_iter,
    )
    assignment = _stage(
        "solve_flattenings", solve_flattenings, tri, solution.shapes,
        args.tolerance,
    )
    return tri, solution, assignment


def _pipeline(args) -> dict:
    from .flattening import complex_volume

    tri, solution, assignment = _solve(args)
    vol, cs = complex_volume(tri, solution.shapes, assignment)
    warnings = []
    if not solution.geometric:
        warnings.append("solution contains negatively oriented tetrahedra")
    if assignment.edge_flattened_only:
        warnings.append("edge-flattened only: no cusp paths supplied, "
                        "cs unverified")
    report = {
        "volume": vol,
        "cs_mod_pi2": cs,
        "flattenings": [list(pq) for pq in assignment.pq()],
        "shapes": [[z.real, z.imag] for z in solution.shapes],
        "residuals": {
            "gluing_max": solution.residual,
            "edge_flattening_max": max(
                (abs(r) for r in assignment.edge_residuals), default=0.0
            ),
            "path_flattening_max": max(
                (abs(r) for r in assignment.path_residuals), default=0.0
            ),
            "path_parities": assignment.path_parities,
            "defect_even": all(d % 2 == 0 for d in assignment.defect),
        },
        "mode": "ep",
        "warnings": warnings,
    }
    return report


class _StageError(CVolError):
    def __init__(self, stage: str, original: Exception):
        super().__init__(f"error at stage {stage}: {original}")
        self.stage = stage


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except CVolError as exc:
        raise _StageError(name, exc) from exc


def cmd_cvol(args) -> int:
    _emit(_pipeline(args), args.format)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_parallel

    results = run_parallel(count=args.count, seed=args.seed,
                           tol=args.tolerance)
    report = {
        "seed": args.seed,
        "count": args.count,
        "suites": [
            {
                "name": r.name,
                "count": r.count,
                "passed": r.passed,
                "max_residual": r.max_residual,
                "failures": r.failures,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
        "max_residual": max((r.max_residual for r in results), default=0.0),
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{status}  {r.name}  (count={r.count}, "
                  f"max residual {r.max_residual:.3g})")
            for failure in r.failures:
                print(f"      counterexample: {failure}")
        print("all passed" if report["passed"] else "FAILURES above")
    return 0 if report["passed"] else 1


def cmd_homology(args) -> int:
    from .jcomplex import build_j_complex, h1_mod2, homology_of_j

    tri = _stage("parse", _load, args.file)
    jc = build_j_complex(tri)
    groups = homology_of_j(jc)
    report = {
        "homology": {f"H{k}": str(groups[k]) for k in (5, 4, 3, 2, 1)},
        "h1_mod2_rank": h1_mod2(jc),
    }
    _emit(report, args.format)
    return 0


def cmd_edges(args) -> int:
    tri = _stage("parse", _load, args.file)
    report = {
        "edge_classes": [
            {
                "index": e.index,
                "valence": e.valence,
                "incidences": [
                    {"tet": t, "edge": list(pair), "orientation": o}
                    for t, pair, o in e.incidences
                ],
            }
            for e in tri.combinatorics.edges
        ],
    }
    _emit(report, args.format)
    return 0


def cmd_flatten(args) -> int:
    from .flattening import _prune_kernel

    tri, _, assignment = _solve(args)
    report = {
        "flattenings": [list(pq) for pq in assignment.pq()],
        "orientation_signs": assignment.signs,
        "edge_residuals": [abs(r) for r in assignment.edge_residuals],
        "path_residuals": [abs(r) for r in assignment.path_residuals],
        "path_parities": assignment.path_parities,
        "defect": assignment.defect,
        "edge_flattened_only": assignment.edge_flattened_only,
        "kernel": _prune_kernel(tri, assignment.kernel),
    }
    _emit(report, args.format)
    return 0


def _checked(convert, accept, expected: str):
    """An argparse type that refuses the values ``accept`` rejects: a NaN
    or infinite tolerance would pass every check, a negative count would
    report a pass."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
_iterations = _checked(int, lambda v: v >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvol",
        description="Complex volume of hyperbolic 3-manifolds from ideal "
        "triangulations, plus identity verification suites.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--tolerance", type=_tolerance, default=1e-9,
                        help="integrality / comparison tolerance")
    parser.add_argument("--tolerance-newton", type=_tolerance, default=1e-12,
                        help="Newton residual target")
    parser.add_argument("--max-iter", type=_iterations, default=100)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cvol", help="volume and Chern-Simons of a "
                       "triangulation file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cvol)

    p = sub.add_parser("verify", help="run the randomized identity suites")
    p.add_argument("--count", type=_count, default=100)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("homology", help="homology of the J-complex")
    p.add_argument("file")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("edges", help="edge classes of a triangulation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_edges)

    p = sub.add_parser("flatten", help="branch-index assignment and residuals")
    p.add_argument("file")
    p.set_defaults(fn=cmd_flatten)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()  # a command leaves no cyclic garbage: see the docstring
    try:
        return args.fn(args)
    except CVolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
