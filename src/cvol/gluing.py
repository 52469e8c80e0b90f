"""Gluing equations of an ideal triangulation and their Newton solver.

For shapes z_1..z_n (one per tetrahedron) the system requires, in
logarithmic form with principal branches,

* for every edge class:  sum over incidences of eps * log(edge parameter)
                         = 2 pi i, eps the tetrahedron's orientation sign
* for every cusp path:   signed sum of log(edge parameter at the passed
                         corner) = 0

Each log term is a * log z + b * log z' + c * log z'' with integer exponents
a, b, c: the per-slot weight sums of the condition, which the condition
table (``Combinatorics.edge_rows`` and ``cusp_rows``, built on their first
read) holds as ``PassRows.exponents``.  An equation is that sparse row of
(tet, a, b, c) terms, one per tetrahedron it involves, plus a constant
target.  A negatively oriented tetrahedron (eps = -1) has its
geometric shape in the lower half plane.

Newton iterates in the shape variables with a halving line search.  The
Jacobian J is short of full row rank in every system the solver meets
(Neumann-Zagier): the T edge rows of a triangulation with c cusps have
rank T - c, and edge plus cusp rows, T + 2c of them, have rank T.  The step
is lstsq's, the minimum-norm least-squares solution x = J^+ (-r), found
sparsely: x = J^H y with (J J^H) y = -r.  J J^H is eliminated symmetrically
in minimum-degree order; a pivot at or below ``PIVOT_DROP_TOL`` times its
row's diagonal marks that row as dependent on the rows eliminated before
it, and its y is set to 0.  Each dropped row also yields a left null vector
of J, and r is first cleared of its components along them, so that the kept
rows are solved exactly and the dropped ones hold too.  This one path
serves square, overdetermined (edges plus cusps) and underdetermined
(edges only, no cusp paths) systems; the minimum norm is what lets the
edge-only system converge from the symmetric start, where a square solve
divides by zero.  The normal equations J^H J are avoided on purpose: the
lifted longitude row of a cover is dense, and J^H J would fill in
completely.
"""

from __future__ import annotations

import cmath
import heapq
import math
from collections import namedtuple

from .errors import ConvergenceError, DegenerateGeometryError
from .triangulation import Triangulation

TWO_PI_I = 2j * math.pi
FLAT_IM_MARGIN = 1e-10
DEFAULT_INITIAL_SHAPE = 0.5 + 0.8j

#: a pivot of J J^H at or below PIVOT_DROP_TOL times its row's diagonal
#: drops the row as dependent.  The ratio is the squared sine of the angle
#: between the row of J and the span of the rows eliminated before it.  Over
#: every Newton iteration on fig8 and on vertex-relabeled covers of it up to
#: T = 512, with and without cusp paths, dependent rows gave ratios up to
#: 1.2e-14 and kept rows down to 4e-3 (about 2 / T).
PIVOT_DROP_TOL = 1e-10

#: (tet, a, b, c) terms of a log z + b log z' + c log z''
Row = list[tuple[int, int, int, int]]
#: (tet, derivative) entries of a Jacobian row
SparseRow = list[tuple[int, complex]]


class GluingSystem(namedtuple("GluingSystem", "edge_rows cusp_rows")):
    """Sparse exponent rows (each a list[Row]) with constant targets: 2 pi i
    for ``edge_rows``, 0 for ``cusp_rows``."""

    __slots__ = ()

    @property
    def edge_flattened_only(self) -> bool:
        return not self.cusp_rows

    def rows(self) -> list[Row]:
        return self.edge_rows + self.cusp_rows

    def targets(self) -> list[complex]:
        return [TWO_PI_I] * len(self.edge_rows) + [0j] * len(self.cusp_rows)

    def residual(self, shapes: list[complex]) -> list[complex]:
        logs = [_slot_logs(z) for z in shapes]
        return [
            sum(a * logs[t][0] + b * logs[t][1] + c * logs[t][2]
                for t, a, b, c in row) - target
            for row, target in zip(self.rows(), self.targets())
        ]

    def jacobian(self, shapes: list[complex]) -> list[SparseRow]:
        derivs = [_slot_log_derivatives(z) for z in shapes]
        return [
            [(t, a * derivs[t][0] + b * derivs[t][1] + c * derivs[t][2])
             for t, a, b, c in row]
            for row in self.rows()
        ]


def _slot_logs(z: complex) -> tuple[complex, complex, complex]:
    return cmath.log(z), -cmath.log(1 - z), cmath.log(1 - 1 / z)


def _slot_log_derivatives(z: complex) -> tuple[complex, complex, complex]:
    dz = 1.0 / z
    dzp = 1.0 / (1.0 - z)
    return dz, dzp, -dz - dzp


def gluing_equations(tri: Triangulation) -> GluingSystem:
    """Exponent rows of the edge and cusp-path equations."""
    comb = tri.combinatorics
    return GluingSystem([e.exponents for e in comb.edge_rows],
                        [c.exponents for c in comb.cusp_rows])


def _min_norm_step(
    jac: list[SparseRow], res: list[complex], n: int
) -> list[complex]:
    """The minimum-norm least-squares solution x = J^+ (-r) of J x = -r,
    the step lstsq gives.

    J J^H = L D L^H is eliminated by ``_eliminate_gram``.  Each dropped row
    k gives a left null vector v = L^-H e_k of J (v^H J J^H v = D_kk = 0);
    r less its components along these is in the range of J, and for such r
    x = J^H y with (J J^H) y = -r, y = 0 on the dropped rows.  Raises
    ConvergenceError when no row is kept or the step is not finite.
    """
    pivots, dropped = _eliminate_gram(jac, n)
    if not pivots:
        raise ConvergenceError("Newton step: the Jacobian has no nonzero row")
    rhs = [-r for r in res]
    null_basis: list[list[complex]] = []
    for k in dropped:
        v = [0j] * len(jac)
        v[k] = 1.0
        v = _back_substitute(pivots, [0j] * len(jac), v)
        for q in null_basis:
            c = sum(qi.conjugate() * vi for qi, vi in zip(q, v))
            v = [vi - c * qi for qi, vi in zip(q, v)]
        size = math.sqrt(sum(abs(vi) ** 2 for vi in v))
        q = [vi / size for vi in v]
        null_basis.append(q)
        c = sum(qi.conjugate() * bi for qi, bi in zip(q, rhs))
        rhs = [bi - c * qi for qi, bi in zip(q, rhs)]
    for k, pivot, row in pivots:
        for i, a in row.items():
            rhs[i] -= a.conjugate() / pivot * rhs[k]  # l_ik = m_ik / m_kk
    y = _back_substitute(pivots, rhs, [0j] * len(jac))
    step = [0j] * n
    for row, yi in zip(jac, y):
        if yi:
            for t, d in row:
                step[t] += d.conjugate() * yi
    if not all(cmath.isfinite(dz) for dz in step):
        raise ConvergenceError("Newton step is not finite")
    return step


def _eliminate_gram(
    jac: list[SparseRow], n: int
) -> tuple[list[tuple[int, float, dict[int, complex]]], list[int]]:
    """Symmetric elimination of J J^H in minimum-degree order.

    J J^H is built column by column of J as ``{row: value}`` dicts.  A heap
    holds (degree, row) items that go stale when a row's degree changes and
    are then pushed again, so the popped item whose degree is still current
    is a minimum-degree pivot.  A pivot at or below ``PIVOT_DROP_TOL`` times
    its row's diagonal drops the row.  Returns the kept pivots in order as
    (row, pivot, {later row: entry}), which are D and L, and the dropped
    rows.
    """
    cols: list[SparseRow] = [[] for _ in range(n)]
    for i, row in enumerate(jac):
        for t, d in row:
            cols[t].append((i, d))
    gram: list[dict[int, complex] | None] = [{} for _ in jac]
    for col in cols:
        for i, a in col:
            gi = gram[i]
            for j, b in col:
                gi[j] = gi.get(j, 0j) + a * b.conjugate()
    diag = [g.get(i, 0j).real for i, g in enumerate(gram)]
    heap = [(len(g), i) for i, g in enumerate(gram)]
    heapq.heapify(heap)
    pivots: list[tuple[int, float, dict[int, complex]]] = []
    dropped: list[int] = []
    while heap:
        degree, k = heapq.heappop(heap)
        row = gram[k]
        if row is None or degree != len(row):
            continue  # stale item
        gram[k] = None
        pivot = row.pop(k, 0j).real
        for j in row:
            del gram[j][k]
        if pivot > PIVOT_DROP_TOL * diag[k]:
            pivots.append((k, pivot, row))
            for i, a in row.items():
                gi = gram[i]
                f = a.conjugate() / pivot
                for j, b in row.items():
                    gi[j] = gi.get(j, 0j) - f * b
        else:
            dropped.append(k)
        for i in row:
            heapq.heappush(heap, (len(gram[i]), i))
    return pivots, dropped


def _back_substitute(pivots, rhs: list[complex], y: list[complex]):
    """Solve D L^H y = rhs over the kept pivots, the other entries of y
    fixed at their given values."""
    for k, pivot, row in reversed(pivots):
        y[k] = (rhs[k] - sum(b * y[j] for j, b in row.items())) / pivot
    return y


class ShapeSolution(namedtuple(
        "ShapeSolution", "shapes residual iterations geometric history")):
    """Newton's ``shapes`` (list[complex]), its final ``residual`` (float),
    ``iterations`` (int) and whether all shapes are ``geometric`` (bool).
    ``history`` holds, per Newton iteration, the residual reached and the
    number of line-search halvings it took."""

    __slots__ = ()


def _check_nondegenerate(shapes, what: str) -> None:
    for k, z in enumerate(shapes):
        if not cmath.isfinite(z):
            raise DegenerateGeometryError(
                f"{what}: shape {k} = {z!r} is not finite")
        # z' = 1/(1 - z) and z'' = 1 - 1/z have Im z / |1 - z|^2 and
        # Im z / |z|^2, so they flatten as z runs off to infinity
        scale = max(1.0, abs(z) * abs(z), abs(1 - z) * abs(1 - z))
        if abs(z.imag) < FLAT_IM_MARGIN * scale:
            raise DegenerateGeometryError(
                f"{what}: shape {k} = {z!r} is flat "
                f"(|Im| of z, z' or z'' < {FLAT_IM_MARGIN})"
            )


def _norm(vec: list[complex]) -> float:
    # a NaN entry counts as inf: max would skip it unless it came first
    return max((abs(v) if v == v else math.inf for v in vec), default=0.0)


def _lowers(system: GluingSystem, shapes, best: float) -> bool:
    """Whether the residual at ``shapes`` is below ``best``; false where a
    shape is 0 or 1, at which the logarithms are not defined."""
    try:
        return _norm(system.residual(shapes)) < best
    except (ValueError, ArithmeticError):
        return False


def solve_shapes(
    tri: Triangulation,
    initial: list[complex] | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> ShapeSolution:
    """Newton-solve the gluing equations.

    ``initial`` defaults to the triangulation's shape hints and then to
    0.5 + 0.8i for every tetrahedron (its conjugate where eps = -1).
    Each iteration takes the minimum-norm least-squares step
    (``_min_norm_step``); a simple halving line search keeps the residual
    monotone.  Iterates that flatten a simplex abort, non-finite shapes are
    refused, and a residual with a NaN entry never counts as converged.  A
    line search that stalls after refusing a flat trial with a lower
    residual raises that trial's ``DegenerateGeometryError``: the shapes
    are running into a flat simplex, at the real line or at infinity.
    ``geometric`` means eps * Im z > 0 for every shape.
    """
    system = gluing_equations(tri)
    signs = tri.combinatorics.signs
    n = tri.num_tetrahedra
    if initial is None:
        start = DEFAULT_INITIAL_SHAPE
        initial = tri.shape_hints or [
            start if eps > 0 else start.conjugate() for eps in signs
        ]
    if len(initial) != n:
        raise ValueError(f"need {n} initial shapes, got {len(initial)}")
    shapes = [complex(z) for z in initial]
    _check_nondegenerate(shapes, "initial shapes")

    res = system.residual(shapes)
    best = _norm(res)
    history: list[tuple[float, int]] = []
    while not best < tol:
        if len(history) >= max_iter:
            raise ConvergenceError(
                f"Newton did not reach {tol:g} in {max_iter} iterations "
                f"(residual {best:g})"
            )
        step = _min_norm_step(system.jacobian(shapes), res, n)
        alpha = 1.0
        halvings = 0
        refused = None  # the first flat trial that would have lowered best
        while True:
            trial = [z + alpha * dz for z, dz in zip(shapes, step)]
            try:
                _check_nondegenerate(trial, "Newton iterate")
                trial_res = system.residual(trial)
            except DegenerateGeometryError as exc:
                if alpha < 2**-20:
                    raise
                if refused is None and _lowers(system, trial, best):
                    refused = exc
                alpha *= 0.5
                halvings += 1
                continue
            if _norm(trial_res) < best or alpha < 2**-20:
                break
            alpha *= 0.5
            halvings += 1
        if not _norm(trial_res) < best:
            # a stall behind a refused flat trial is the shapes degenerating
            raise refused or ConvergenceError(
                f"line search stalled at residual {best:g}"
            )
        shapes, res, best = trial, trial_res, _norm(trial_res)
        history.append((best, halvings))
    geometric = all(eps * z.imag > 0 for eps, z in zip(signs, shapes))
    return ShapeSolution(shapes, best, len(history), geometric, history)
