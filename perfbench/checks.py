"""Output checks for one benchmark op.

Every op is checked against what the mathematics says, never against a
stored run of the program:

* ``cvol`` on an n-fold cover of the figure-eight complement: the volume
  is n * vol(4_1) to 1e-9 * n, and cs is 0 on the circle R / pi^2 Z to
  1e-6 (so a representative just below pi^2 counts as 0);
* ``homology`` on those covers: the J-complex homology below, with
  ``h1_mod2_rank`` 0;
* ``verify``: ``passed`` is true.

An op also fails on a nonzero exit code or a per-op timeout.  Each failed
check is reported by kind, so one op can fail more than one check.
"""

from __future__ import annotations

import json
import math

from inputs import FIG8_VOLUME

KINDS = ("timeout", "exit", "vol", "cs", "homology", "verify")

EXPECTED_HOMOLOGY = {"H5": "0", "H4": "Z/2", "H3": "Z + Z", "H2": "0",
                     "H1": "Z/2"}

PI_SQUARED = math.pi ** 2
VOL_TOL = 1e-9
CS_TOL = 1e-6


def cs_distance_to_zero(cs: float) -> float:
    """Distance from cs to 0 on the circle R / pi^2 Z."""
    r = cs % PI_SQUARED
    return min(r, PI_SQUARED - r)


def _content_failures(kind: str, cover: int, report) -> list[str]:
    if kind == "cvol":
        failed = []
        try:
            vol_ok = abs(report["volume"] - cover * FIG8_VOLUME) <= \
                VOL_TOL * cover
        except (TypeError, KeyError):
            vol_ok = False
        if not vol_ok:
            failed.append("vol")
        try:
            cs_ok = cs_distance_to_zero(report["cs_mod_pi2"]) <= CS_TOL
        except (TypeError, KeyError):
            cs_ok = False
        if not cs_ok:
            failed.append("cs")
        return failed
    if kind == "homology":
        try:
            ok = (report["homology"] == EXPECTED_HOMOLOGY
                  and report["h1_mod2_rank"] == 0)
        except (TypeError, KeyError):
            ok = False
        return [] if ok else ["homology"]
    if kind == "verify":
        try:
            ok = report["passed"] is True
        except (TypeError, KeyError):
            ok = False
        return [] if ok else ["verify"]
    raise ValueError(f"unknown op kind {kind!r}")


def check_output(kind: str, cover: int, returncode: int | None,
                 timed_out: bool, stdout: str) -> tuple[list[str], dict]:
    """Failed check kinds for one op, and its parsed JSON report
    (empty when the output is not a JSON object)."""
    if timed_out:
        return ["timeout"], {}
    failed = [] if returncode == 0 else ["exit"]
    try:
        report = json.loads(stdout)
    except ValueError:
        report = {}
    if not isinstance(report, dict):
        report = {}
    failed += _content_failures(kind, cover, report)
    return failed, report


def verify_units(report: dict) -> int:
    """Identity instances a ``verify`` report checked (suites x count)."""
    try:
        return sum(int(s["count"]) for s in report["suites"])
    except (TypeError, KeyError, ValueError):
        return 0
