"""The flattening solver and the complex volume.

``solve_flattenings`` finds integer branch indices (p_i, q_i) such that
every edge class has zero signed log-parameter sum and every supplied cusp
path has zero log-parameter and zero parity, by solving one combined
integer linear system in Hermite normal form.  It reads the condition
table (``Combinatorics.edge_rows`` and ``cusp_rows``, built on their first
read and kept with the triangulation): the sparse rows as they are, and
each condition's value at the shapes and at the solution
(``PassRows.value``); it calls ``pass_rows`` on none of them.

The edge defect is read off the same system: ``defect`` is minus its edge
rows' right-hand side, each edge's signed log-parameter sum at p = q = 0
divided by pi i.  That is (1/pi i) beta*(omega) with every term weighted by
the orientation sign of its simplex, where omega in J (x) C has the
Delta-component -(log(1-z) e_0 + log(z) e_1) (Neumann 1992), so the
orientation signs enter in one place only, ``cvol.geometry.pass_rows``.

``complex_volume`` sums the lifted Rogers function over sum_i eps_i [z_i,
p_i, q_i] to i(vol + i cs) modulo pi^2.  Only ``flatten`` prunes the
system's kernel, in ``cvol.pruning``, which ``cvol`` never loads.

The J-complex, its integer maps alpha and beta and its homology, lives in
``cvol.jcomplex``, which needs no logarithm.  The solver calls none of it,
and this module does not import it, so ``cvol`` and ``flatten`` never load
it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import InconsistentSystemError, NonIntegralError
from .intlinalg import solve_integer_system
from .params import ExtendedParam
from .polylog import (
    PI_SQUARED,
    lifted_rogers_sum,
    reduce_mod,
    slot_values,
)
from .triangulation import Triangulation

# ``bloch`` (and through it ``wedge``) is imported only inside
# ``fundamental_element``, so no command but ``verify`` loads it.
if TYPE_CHECKING:
    from .bloch import EBElement


def _pi_i_multiple(value: complex, tol: float, what: str) -> int:
    """The integer n with value = n pi i, to within ``tol``."""
    ratio = value / (1j * math.pi)
    nearest = round(ratio.real)
    if abs(ratio - nearest) > tol:
        raise NonIntegralError(
            f"{what} is {value!r}, not an integer multiple of pi i; shapes "
            "do not satisfy the gluing equations"
        )
    return nearest


# ---------------------------------------------------------------------------
# Flattening solver
# ---------------------------------------------------------------------------

class FlatteningAssignment(namedtuple("FlatteningAssignment", (
        "params signs edge_residuals path_residuals path_parities defect "
        "edge_flattened_only kernel"))):
    """Solved branch indices ``params`` (list[ExtendedParam]) with a full
    residual report: ``signs``, ``path_parities`` and ``defect`` are
    list[int], the residuals list[complex], ``edge_flattened_only`` a bool.

    ``kernel`` (list[list[int]]) is the HNF basis of the enforced system's
    integer kernel: shifting the solution by it keeps the edge and supplied
    cusp-path conditions.  ``flatten`` prints the HNF of its sub-lattice
    that keeps every closed vertex-link path condition too (``pruning``).

    ``defect`` is -(the edge rows' right-hand side), the orientation-weighted
    (1/pi i) beta*(omega).  Its parity is no check: it changes with the
    vertex labelling (odd at some edge on 29 of 36 seeded even relabelings
    of fig8 and its 3- and 5-fold covers), and it misses the k pi^2/6 error
    of relabeled input (8 such relabelings with an odd defect give cs 0, 7
    with an even one a wrong cs).  ``cvol``'s ``defect_even`` reports it.
    """

    __slots__ = ()

    def pq(self) -> list[tuple[int, int]]:
        return [(p.p, p.q) for p in self.params]

    def signed_terms(self) -> dict[ExtendedParam, int]:
        """sum_i eps_i [z_i, p_i, q_i], merged in first-seen order, no 0s."""
        terms: dict[ExtendedParam, int] = {}
        for sign, param in zip(self.signs, self.params):
            terms[param] = terms.get(param, 0) + sign
        return {param: coeff for param, coeff in terms.items() if coeff}

    def max_residual(self) -> float:
        vals = [abs(r) for r in self.edge_residuals + self.path_residuals]
        return max(vals) if vals else 0.0


def _build_system(
    tri: Triangulation, shapes: list[complex], tol: float
) -> tuple[list[list[int]], list[int]]:
    """Integer rows for edge conditions, path log conditions and path parity
    conditions (the latter with an auxiliary doubled unknown each)."""
    comb = tri.combinatorics
    n = tri.num_tetrahedra
    width = 2 * n + len(comb.cusp_rows)
    constants = slot_values(ExtendedParam(z, 0, 0) for z in shapes)
    sparse: list[dict[int, int]] = []
    rhs: list[int] = []
    for k, edge in enumerate(comb.edge_rows):
        sparse.append(edge.pq)
        rhs.append(-_pi_i_multiple(edge.value(constants), tol,
                                   f"edge {k} constant"))

    for k, cusp in enumerate(comb.cusp_rows):
        sparse.append(cusp.pq)
        rhs.append(-_pi_i_multiple(cusp.value(constants), tol,
                                   f"cusp path {k} constant"))
        # a copy: the parse-time entry is shared by every solve
        sparse.append({**cusp.parity, 2 * n + k: 2})
        rhs.append(-cusp.parity_const)
    rows = [[0] * width for _ in sparse]
    for row, entries in zip(rows, sparse):
        for j, c in entries.items():
            row[j] = c
    return rows, rhs


def solve_flattenings(
    tri: Triangulation, shapes: list[complex], tol: float = 1e-9
) -> FlatteningAssignment:
    """Assign branch indices (p_i, q_i) meeting the edge and path conditions.

    The combined integer system is solved in Hermite normal form; the
    solution is reduced modulo the kernel's HNF basis, so the output
    depends on the system only.  Missing cusp paths yield a partial,
    'edge-flattened only' assignment.
    """
    rows, rhs = _build_system(tri, shapes, tol)
    solution = solve_integer_system(rows, rhs)
    if solution is None:
        raise InconsistentSystemError(
            "flattening system has no integer solution; the triangulation "
            "data is invalid"
        )
    defect = [-r for r in rhs[:len(tri.combinatorics.edge_rows)]]
    return _assignment_from_vector(tri, shapes, solution.particular, defect,
                                   solution.kernel)


def _assignment_from_vector(
    tri: Triangulation,
    shapes: list[complex],
    x: list[int],
    defect: list[int],
    kernel: list[list[int]],
) -> FlatteningAssignment:
    comb = tri.combinatorics
    n = tri.num_tetrahedra
    params = [
        ExtendedParam(shapes[t], x[2 * t], x[2 * t + 1]) for t in range(n)
    ]
    components = slot_values(params)
    return FlatteningAssignment(
        params=params,
        signs=comb.signs,
        edge_residuals=[e.value(components) for e in comb.edge_rows],
        path_residuals=[c.value(components) for c in comb.cusp_rows],
        path_parities=[c.parity_of(x) for c in comb.cusp_rows],
        defect=defect,
        edge_flattened_only=not tri.cusp_paths,
        kernel=kernel,
    )


def fundamental_element(
    tri: Triangulation, assignment: FlatteningAssignment
) -> EBElement:
    """sum_i eps_i [z_i, p_i, q_i] in ep mode."""
    from .bloch import EBElement

    return EBElement(assignment.signed_terms(), "ep")


#: a cs representative within CS_ZERO_ULPS * T * eps * pi^2 of 0 or of pi^2
#: is the class 0.  The Rogers sum adds T terms of size about pi^2, each
#: off by a few ulps; on fig8 and its tetrahedron-shuffled covers up to
#: T = 32 the class-0 representatives lie within 0.41 T eps pi^2 of 0 or pi^2.
CS_ZERO_ULPS = 8


def snap_cs(cs: float, tets: int) -> float:
    """A cs representative in [0, pi^2), read as 0.0 when it lies within
    the rounding bound of the class 0 for a sum of ``tets`` terms."""
    bound = CS_ZERO_ULPS * tets * sys.float_info.epsilon * PI_SQUARED
    return 0.0 if min(cs, PI_SQUARED - cs) <= bound else cs


def complex_volume(
    tri: Triangulation, shapes: list[complex], assignment: FlatteningAssignment
) -> tuple[float, float]:
    """(vol, cs) with vol = Im R and cs = -Re R reduced into [0, pi^2), a
    class 0 up to rounding printed as 0.0 (``snap_cs``)."""
    value = reduce_mod(lifted_rogers_sum(assignment.signed_terms()), PI_SQUARED)
    vol = value.value.imag
    cs = reduce_mod(complex(-value.value.real, 0.0), PI_SQUARED).value.real
    return vol, snap_cs(cs, tri.num_tetrahedra)
