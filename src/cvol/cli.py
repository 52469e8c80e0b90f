"""Command-line front end.

Usage: ``cvol [global flags] COMMAND [FILE | --count N]``.

Subcommands:

* ``cvol FILE``      full pipeline: parse, solve shapes, solve flattenings,
                     evaluate the lifted Rogers sum; reports volume and the
                     Chern-Simons value modulo pi^2.
* ``verify``         randomized identity suites (five-term, transfer, ...).
* ``homology FILE``  homology of the J-complex.
* ``edges FILE``     edge classes and valences.
* ``flatten FILE``   branch-index table and residual report.

The global flags (``--format``, ``--tolerance``, ``--tolerance-newton``,
``--max-iter``, ``--seed``) come before the command, as ``--name value`` or
``--name=value``, and a repeated flag keeps its last value; ``verify``
takes ``--count`` after it.  Flags are spelled out in full.  ``-h`` or
``--help`` prints the help to stdout and exits 0.  Any other command line
that ``parse_args`` cannot read whole prints the usage and ``cvol:
error: ...`` to stderr and raises ``SystemExit(2)`` before any module of
the pipeline is loaded.  The parser is one loop over ``argv`` and loads
no module: a general option parser's import and set-up cost each process
about 4 ms.

Output is text or JSON; JSON field order is fixed and floats use the
shortest round-trip decimal, so identical inputs (and seeds) give
byte-identical output.  Exit code 0 means every requested check passed.
A command loads and compiles only what it runs: ``cmd_<name>`` imports
the handler of ``verify``, ``homology`` or ``flatten`` from ``verify``,
``jcomplex`` or ``pruning``.  So ``verify`` loads no triangulation code,
``cvol`` and ``flatten`` no Bloch-group, wedge or J-complex code,
``homology`` and ``edges`` no logarithm, and only ``flatten`` prunes.
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

import atexit
import gc
import json
import math
import sys
from types import SimpleNamespace

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
    from .verify import cmd_verify
    return cmd_verify(args)


def cmd_homology(args) -> int:
    from .jcomplex import cmd_homology
    return cmd_homology(args)


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
    from .pruning import cmd_flatten
    return cmd_flatten(args)


def _checked(convert, accept, expected: str):
    """A converter that refuses the values ``accept`` rejects: a NaN or
    infinite tolerance would pass every check, a negative count would
    report a pass."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {expected}, got {text!r}")
    return parse


_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
_iterations = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: True, "an integer")
_format = _checked(str, ("json", "text").__contains__, "json or text")

_USAGE = """\
usage: cvol [-h] [--format json|text] [--tolerance X] [--tolerance-newton X]
            [--max-iter N] [--seed N] {cvol,homology,edges,flatten} FILE
       cvol [global flags] verify [--count N]
"""

_HELP = _USAGE + """
Complex volume of hyperbolic 3-manifolds from ideal triangulations, plus
identity verification suites.  Flags are given whole, as --name value or
--name=value; a repeated flag keeps its last value.

commands:
  cvol FILE            volume and Chern-Simons of a triangulation file
  verify [--count N]   run the randomized identity suites (default N 100)
  homology FILE        homology of the J-complex
  edges FILE           edge classes of a triangulation
  flatten FILE         branch-index assignment and residuals

global flags, before the command:
  -h, --help           show this help and exit
  --format json|text   output format (default text)
  --tolerance X        integrality / comparison tolerance (default 1e-9)
  --tolerance-newton X Newton residual target (default 1e-12)
  --max-iter N         Newton iteration limit (default 100)
  --seed N             seed of the verify suites (default 0)
"""

#: flag -> (attribute, converter), before the command and after ``verify``
_GLOBAL_FLAGS = {
    "--format": ("format", _format),
    "--tolerance": ("tolerance", _tolerance),
    "--tolerance-newton": ("tolerance_newton", _tolerance),
    "--max-iter": ("max_iter", _iterations),
    "--seed": ("seed", _seed),
}
_VERIFY_FLAGS = {"--count": ("count", _count)}
#: each command runs the handler ``cmd_<command>``, looked up when parsed
_COMMANDS = ("cvol", "verify", "homology", "edges", "flatten")


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}cvol: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The handler and settings that ``argv`` names.  ``-h`` or ``--help``
    prints the help and exits 0; any other input that is not a whole
    command line prints the usage and the fault and exits 2."""
    args = {"format": "text", "tolerance": 1e-9, "tolerance_newton": 1e-12,
            "max_iter": 100, "seed": 0}
    flags = _GLOBAL_FLAGS
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if token.startswith("-") and token != "-":
            name, is_joined, text = token.partition("=")
            if name not in flags:
                _usage_error(f"unrecognized arguments: {token}")
            if not is_joined and (text := next(tokens, None)) is None:
                _usage_error(f"argument {name}: expected one argument")
            attribute, convert = flags[name]
            try:
                args[attribute] = convert(text)
            except ValueError as exc:
                _usage_error(f"argument {name}: {exc}")
        elif "command" not in args:
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _usage_error(f"argument command: invalid choice: {token!r} "
                             f"(choose from {choices})")
            args.update(command=token, fn=globals()[f"cmd_{token}"])
            if token == "verify":
                flags, args["count"] = _VERIFY_FLAGS, 100
            else:
                flags = {}
        elif "file" in args or args["command"] == "verify":
            _usage_error(f"unrecognized arguments: {token}")
        else:
            args["file"] = token
    if "command" not in args:
        _usage_error("the following arguments are required: command")
    if args["command"] != "verify" and "file" not in args:
        _usage_error("the following arguments are required: file")
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
