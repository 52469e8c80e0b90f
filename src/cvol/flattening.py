"""The flattening solver and the complex volume.

``solve_flattenings`` finds integer branch indices (p_i, q_i) such that
every edge class and every supplied cusp path has zero signed
log-parameter sum: one integer row per condition over the 2T indices,
solved in Hermite normal form.  A path's parity (Neumann 1992) is then the
same at every solution (``PassRows.parity_of``); an odd one is refused.
It reads the condition table (``Combinatorics.edge_rows`` and
``cusp_rows``, built on their first read and kept with the
triangulation): the sparse rows as they are, and each condition's value
at the shapes and at the solution (``PassRows.value``); it calls
``pass_rows`` on none of them.

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

    ``kernel`` (list[list[int]], rows of width 2T) is the HNF basis of the
    enforced system's integer kernel: shifting the solution by it keeps the
    edge and supplied cusp-path conditions, parities included, which are 0
    as the solver refuses an odd one.  ``flatten`` prints the HNF of its
    sub-lattice that keeps every closed vertex-link path condition too
    (``pruning``).

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
    """The rows and right-hand sides of the edge and cusp-path log
    conditions, edges first, over (p_0, q_0, p_1, q_1, ...)."""
    comb = tri.combinatorics
    constants = slot_values(ExtendedParam(z, 0, 0) for z in shapes)
    conditions = [(edge, f"edge {k}") for k, edge in enumerate(comb.edge_rows)]
    conditions += [(cusp, f"cusp path {k}")
                   for k, cusp in enumerate(comb.cusp_rows)]
    rows = [[0] * (2 * tri.num_tetrahedra) for _ in conditions]
    rhs = []
    for row, (condition, what) in zip(rows, conditions):
        for j, c in condition.pq.items():
            row[j] = c
        rhs.append(-_pi_i_multiple(condition.value(constants), tol,
                                   f"{what} constant"))
    return rows, rhs


def solve_flattenings(
    tri: Triangulation, shapes: list[complex], tol: float = 1e-9
) -> FlatteningAssignment:
    """Assign branch indices (p_i, q_i) meeting the edge and path conditions.

    The integer system is solved in Hermite normal form; the solution is
    reduced modulo the kernel's HNF basis, so the output depends on the
    system only.  A cusp path of odd parity is refused.  Missing cusp paths
    yield a partial, 'edge-flattened only' assignment.
    """
    rows, rhs = _build_system(tri, shapes, tol)
    solution = solve_integer_system(rows, rhs)
    if solution is None:
        raise InconsistentSystemError(
            "flattening system has no integer solution; the triangulation "
            "data is invalid"
        )
    defect = [-r for r in rhs[:len(tri.combinatorics.edge_rows)]]
    assignment = _assignment_from_vector(tri, shapes, solution.particular,
                                         defect, solution.kernel)
    if any(assignment.path_parities):
        raise InconsistentSystemError(
            "cusp path parity is odd at every solution; the triangulation "
            "data is invalid"
        )
    return assignment


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
