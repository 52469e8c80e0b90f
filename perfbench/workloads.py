"""The workloads: seeded op lists of ``cvol`` command lines.

Every op is one ``cvol`` CLI call.  Each op of ``small`` and ``homology``
reads its own seeded relabeling, so a run averages over many labellings;
the op list alternates between the workload's sizes.  The untimed
warm-up op reads the canonical (not relabeled) input of the smallest size,
so set-up does the same work for every seed.

The ``cvol`` ops of ``small`` only shuffle the tetrahedra.  On inputs
whose vertices are relabeled too, the program has a known defect: cs
comes out as k * pi^2 / 6 with k != 0 for about two labellings in three,
so every run of such a workload would fail its output check.  The traced
run measures that defect on its own inputs (``defect_probes``) and
reports the share of wrong answers as ``known_defect.cs_vertex_relabeled``.

There is no workload of ``cvol`` on covers (T >= 4): from T=6 on, the
link-cycle enumeration takes from 2 s to past the 30 s op timeout
depending on the labelling, so such a workload gives no steady figure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import inputs

#: ``cvol verify --count`` of one ``verify`` op.  On a shared 2-core host
#: whose CPU speed swings by about 30% from second to second, an op of
#: about 2 s spans several swings, so op times do not split into a fast and
#: a slow cluster that ``op_wall_s.p50`` jumps between (at count 200,
#: about 1 s per op, they did).
VERIFY_COUNT = 500


@dataclass(frozen=True)
class Spec:
    kind: str                 # the cvol subcommand: cvol, homology, verify
    covers: tuple[int, ...]   # cover degrees of fig8, one size class each
    n_inputs: int             # distinct inputs generated per run
    relabel_vertices: bool    # relabel vertices too, not only tetrahedra
    why: str


WORKLOADS = {
    "small": Spec("cvol", (1,), 160, False,
                  "census-sized input (fig8, T=2): interpreter start, "
                  "imports and kernel pruning dominate"),
    "homology": Spec("homology", (64, 128), 12, True,
                     "covers at T=128 and T=256: integer linear algebra "
                     "(SNF, HNF) on large sparse matrices, no Newton"),
    "verify": Spec("verify", (0,), 48, False,
                   "identity suites: polylog, bloch and wedge without any "
                   "triangulation code"),
}

#: vertex-relabeled fig8 inputs of the traced run's defect probe
DEFECT_PROBES = 12


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]     # cvol arguments after the program name
    cover: int                # cover degree n of fig8; 0 for verify
    size: int                 # percentile class: T, or the verify count
    tets: int                 # work units of a cvol / homology op


def _file_op(kind: str, cover: int, path: Path) -> Op:
    tets = 2 * cover
    return Op(kind, ("--format", "json", kind, str(path)), cover, tets, tets)


def _verify_op(seed: int) -> Op:
    return Op("verify", ("--format", "json", "--seed", str(seed), "verify",
                         "--count", str(VERIFY_COUNT)), 0, VERIFY_COUNT, 0)


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def build(workload: str, seed: int, workdir: Path) -> tuple[Op, list[Op]]:
    """Write the inputs of one run and return (warm-up op, op list)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if spec.kind == "verify":
        ops = [_verify_op(rng.randrange(2**31)) for _ in range(spec.n_inputs)]
        return _verify_op(0), ops
    bases = {n: inputs.cyclic_cover(inputs.FIG8, n) if n > 1 else inputs.FIG8
             for n in spec.covers}
    workdir.mkdir(parents=True, exist_ok=True)
    warm = workdir / f"{workload}-warmup.json"
    _write(warm, bases[spec.covers[0]])
    ops = []
    for i in range(spec.n_inputs):
        n = spec.covers[i % len(spec.covers)]
        path = workdir / f"{workload}-{i:03d}.json"
        _write(path, inputs.relabel(bases[n], rng, spec.relabel_vertices))
        ops.append(_file_op(spec.kind, n, path))
    return _file_op(spec.kind, spec.covers[0], warm), ops


def defect_probes(seed: int, workdir: Path) -> list[Op]:
    """``cvol`` ops on seeded vertex-relabeled fig8 inputs, the inputs of
    the known cs defect."""
    rng = random.Random(f"defect:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(DEFECT_PROBES):
        path = workdir / f"defect-{i:03d}.json"
        _write(path, inputs.relabel(inputs.FIG8, rng))
        ops.append(_file_op("cvol", 1, path))
    return ops
