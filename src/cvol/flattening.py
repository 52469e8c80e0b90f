"""Integer chain complex of a triangulation and the flattening solver.

To each tetrahedron belongs a rank-2 lattice J_Delta spanned by its edges
e_0..e_5 (slot i carrying log-parameter w_{i mod 3}) with relations
e_i = e_{i+3} and e_0 + e_1 + e_2 = 0, and the skew form <e_0, e_1> = 1.
With C_0 and C_1 the free modules on vertex and edge classes, the sequence

    J-complex:  0 -> C_0 --alpha--> C_1 --beta--> J --beta*--> C_1
                  --alpha*--> C_0 -> 0

is a chain complex (spots indexed 5..1); beta* is the adjoint of beta under
the skew form.  The maps have O(T) nonzero entries (two per edge in alpha,
at most eight per simplex in beta), so alpha and beta are stored as sparse
``{col: value}`` rows and never as dense matrices; alpha* and beta* are
read off them as adjoints on demand.
``omega`` is the element of J (x) C whose Delta-component is
-(log(1-z) e_0 + log(z) e_1); at a solution of the gluing equations
(1/pi i) beta*(omega) is an even integer vector.

``solve_flattenings`` finds integer branch indices (p_i, q_i) such that
every edge class has zero signed log-parameter sum and every supplied cusp
path has zero log-parameter and zero parity, by solving one combined
integer linear system in Hermite normal form.  Each condition is a list of
(tet, slot, weight) terms, derived at parse (``Combinatorics``), that
``cvol.geometry.pass_rows``, the one condition-to-row helper, turns into
sparse rows, as it does beta's columns and the pruning walk's arcs.
``complex_volume`` sums the lifted Rogers function over sum_i eps_i [z_i,
p_i, q_i] to i(vol + i cs) modulo pi^2; only ``flatten`` prunes the
system's kernel (``_prune_kernel``).
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import InconsistentSystemError, NonIntegralError
from .geometry import pass_rows, slot_values
from .intlinalg import (
    AbelianGroup,
    gf2_rank,
    reduce_mod_lattice,
    row_hnf,
    smith_invariant_factors,
    solve_integer_system,
)
from .params import ExtendedParam
from .polylog import PI_SQUARED, lifted_rogers_sum, principal_log, reduce_mod
from .triangulation import EdgeClass, Triangulation, link_arcs

# ``bloch`` (and through it ``wedge``) is imported only inside
# ``fundamental_element``, so no command but ``verify`` loads it.
if TYPE_CHECKING:
    from .bloch import EBElement


class JComplex(NamedTuple):
    """The chain complex C0 -> C1 -> J -> C1 -> C0 as sparse integer rows.

    ``alpha`` and ``beta`` hold only their nonzero entries, one
    ``{col: value}`` dict per row with its columns in increasing order.
    ``alpha_star`` and ``beta_star`` are not stored: each access reads them
    off as adjoints, alpha* = alpha^T and beta* = beta^T composed with the
    skew form, in the same sparse form.
    """

    tri: Triangulation
    edges: list[EdgeClass]
    vertices: list[list[tuple[int, int]]]
    alpha: list[dict[int, int]]   # (n_edges) x (n_vertices)
    beta: list[dict[int, int]]    # (2T) x (n_edges)

    @property
    def j_rank(self) -> int:
        return 2 * self.tri.num_tetrahedra

    @property
    def alpha_star(self) -> list[dict[int, int]]:
        """(n_vertices) x (n_edges): edge -> sum of its endpoints."""
        rows: list[dict[int, int]] = [{} for _ in self.vertices]
        for e, row in enumerate(self.alpha):
            for v, c in row.items():
                rows[v][e] = c
        return rows

    @property
    def beta_star(self) -> list[dict[int, int]]:
        """(n_edges) x (2T): beta's adjoint under <e_0, e_1> = 1, which
        sends the coordinates (c0, c1) of a simplex to (c1, -c0)."""
        rows: list[dict[int, int]] = [{} for _ in self.edges]
        for t in range(self.tri.num_tetrahedra):
            for e, c in self.beta[2 * t + 1].items():
                rows[e][2 * t] = c
            for e, c in self.beta[2 * t].items():
                rows[e][2 * t + 1] = -c
        return rows


def build_j_complex(tri: Triangulation) -> JComplex:
    """Assemble alpha and beta as sparse exact integer rows."""
    comb = tri.combinatorics
    vertex_of = comb.vertex_of

    # alpha: vertex -> sum of incident edges (loops counted twice), stored
    # by rows: edge -> its two endpoints.
    alpha: list[dict[int, int]] = []
    for e in comb.edges:
        tet, (a, b), _ = e.incidences[0]
        row: dict[int, int] = {}
        for endpoint in sorted((vertex_of[(tet, a)], vertex_of[(tet, b)])):
            row[endpoint] = row.get(endpoint, 0) + 1
        alpha.append(row)

    # beta: edge class -> the pq row of its terms taken with weight 1 (the
    # slots identified with it, per simplex; they may cancel).
    beta: list[dict[int, int]] = [{} for _ in range(2 * tri.num_tetrahedra)]
    for col, terms in enumerate(comb.edge_terms):
        for j, c in pass_rows([(t, s, 1) for t, s, _ in terms]).pq.items():
            beta[j][col] = c
    return JComplex(tri, comb.edges, comb.vertices, alpha, beta)


def omega(tri: Triangulation, shapes: list[complex]) -> list[complex]:
    """Element of J (x) C with Delta-component -(log(1-z) e_0 + log(z) e_1),
    as a coordinate vector over the (e_0, e_1) bases."""
    out: list[complex] = []
    for z in shapes:
        out.append(-principal_log(1 - z))
        out.append(-principal_log(z))
    return out


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


def integral_defect(
    jc: JComplex, omega_vec: list[complex], tol: float = 1e-9
) -> list[int]:
    """c = (1/pi i) beta*(omega): integral exactly when the shapes satisfy
    the gluing equations, and then even at every edge."""
    return [
        _pi_i_multiple(
            sum(c * omega_vec[j] for j, c in row.items()), tol,
            f"beta*(omega) at edge {k}",
        )
        for k, row in enumerate(jc.beta_star)
    ]


def homology_of_j(jc: JComplex) -> dict[int, AbelianGroup]:
    """Homology at the five spots (keys 5..1) via Smith normal form.

    A map's rank is the number of its invariant factors, which also present
    the homology where it comes in.  alpha* = alpha^T and beta* = beta^T
    times the unimodular skew form share the factors of alpha and beta.
    """
    nv = len(jc.vertices)
    ne = len(jc.edges)
    alpha = smith_invariant_factors(jc.alpha)
    beta = smith_invariant_factors(jc.beta)
    return {
        5: AbelianGroup(nv - len(alpha)),
        4: AbelianGroup.from_factors(ne - len(beta), alpha),
        3: AbelianGroup.from_factors(jc.j_rank - len(beta), beta),
        2: AbelianGroup.from_factors(ne - len(alpha), beta),
        1: AbelianGroup.from_factors(nv, alpha),
    }


def h1_mod2(jc: JComplex) -> int:
    """dim_{Z/2} H_1(K; Z/2) computed from the simplicial chain complex of
    the glued complex (vertex and edge classes, glued face pairs).

    d_1 and d_2 are taken mod 2 as int bitmasks, one per edge and one per
    face, so no dense matrix is formed.  A map and its transpose have the
    same rank: the rows of d_1^T are alpha's (an edge's endpoints, which
    cancel for a loop), and a face's row of d_2^T is the XOR of
    ``1 << edge`` over its three edge slots.  The walk around each edge
    crosses one glued face pair per step and each edge slot of a face
    exactly once, so the rows are read off the walks, keyed by the smaller
    side of the pair.
    """
    tri = jc.tri
    d1 = [sum((c & 1) << v for v, c in row.items()) for row in jc.alpha]
    d2: dict[tuple[int, int], int] = {}
    for e in tri.combinatorics.edges:
        for (tet, _, _), (_, exit_) in zip(e.incidences, e.faces):
            g = tri.gluing(tet, exit_)
            face = min((tet, exit_), (g.tet, g.perm[exit_]))
            d2[face] = d2.get(face, 0) ^ (1 << e.index)
    return len(jc.edges) - gf2_rank(d1) - gf2_rank(list(d2.values()))


# ---------------------------------------------------------------------------
# Flattening solver
# ---------------------------------------------------------------------------

class FlatteningAssignment(NamedTuple):
    """Solved branch indices with a full residual report.

    ``kernel`` is the integer kernel of the enforced system: shifting the
    particular solution by it keeps the edge and supplied cusp-path
    conditions.  ``flatten`` prints its sub-lattice that keeps every closed
    vertex-link path condition too (``_prune_kernel``).
    """

    params: list[ExtendedParam]
    signs: list[int]
    edge_residuals: list[complex]
    path_residuals: list[complex]
    path_parities: list[int]
    defect: list[int]
    edge_flattened_only: bool
    kernel: list[list[int]]

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
    width = 2 * n + len(comb.cusp_terms)
    constants = slot_values(ExtendedParam(z, 0, 0) for z in shapes)
    sparse: list[dict[int, int]] = []
    rhs: list[int] = []
    for k, terms in enumerate(comb.edge_terms):
        edge = pass_rows(terms, constants)
        sparse.append(edge.pq)
        rhs.append(-_pi_i_multiple(edge.value, tol, f"edge {k} constant"))

    for k, terms in enumerate(comb.cusp_terms):
        cusp = pass_rows(terms, constants)
        sparse.append(cusp.pq)
        rhs.append(-_pi_i_multiple(cusp.value, tol, f"cusp path {k} constant"))
        cusp.parity[2 * n + k] = 2
        sparse.append(cusp.parity)
        rhs.append(-cusp.parity_const)
    rows = [[0] * width for _ in sparse]
    for row, entries in zip(rows, sparse):
        for j, c in entries.items():
            row[j] = c
    return rows, rhs


def _prune_kernel(
    tri: Triangulation, kernel: list[list[int]]
) -> list[list[int]]:
    """Sub-lattice of kernel vectors annihilating the log functionals of
    all closed vertex-link paths, the closed walks of the link state graph.

    Its states have in- and out-degree 2, so each component is strongly
    connected and the fundamental cycles of a spanning forest span the
    rational functionals of all closed walks; the sub-lattice depends on
    that span only.  A state's potential is the functional of its tree path
    on the kernel vectors; each arc off the tree gives one functional, kept
    once.  One row HNF of [F | kernel], pivots sought in the functional
    columns F, leaves the pruned basis in the rows whose F part is zero.
    """
    if not kernel:
        return []
    arcs = link_arcs(tri)
    potential = {}
    action: dict[tuple[int, ...], None] = {}
    for root in arcs:
        if root in potential:
            continue
        potential[root] = [0] * len(kernel)
        queue = [root]
        for state in queue:
            for nxt, term in arcs[state]:
                # the arc's one or two coefficients, padded to two
                (i, a), (j, b) = [*pass_rows([term]).pq.items(), (0, 0)][:2]
                value = [
                    p + a * k[i] + b * k[j]
                    for p, k in zip(potential[state], kernel)
                ]
                if nxt not in potential:
                    potential[nxt] = value
                    queue.append(nxt)
                elif value != potential[nxt]:
                    diff = tuple(a - b for a, b in zip(value, potential[nxt]))
                    action[diff] = None
    f = list(action)
    rows = row_hnf(
        [[g[i] for g in f] + k for i, k in enumerate(kernel)], len(f)
    )
    return [row[len(f):] for row in rows if not any(row[:len(f)])]


def solve_flattenings(
    tri: Triangulation, shapes: list[complex], tol: float = 1e-9
) -> FlatteningAssignment:
    """Assign branch indices (p_i, q_i) meeting the edge and path conditions.

    The combined integer system is solved in Hermite normal form; the
    particular solution is canonicalized by reduction modulo the kernel
    lattice, so the output is deterministic.  Missing cusp paths yield a
    partial, 'edge-flattened only' assignment.
    """
    rows, rhs = _build_system(tri, shapes, tol)
    solution = solve_integer_system(rows, rhs)
    if solution is None:
        raise InconsistentSystemError(
            "flattening system has no integer solution; the triangulation "
            "data is invalid"
        )
    x = reduce_mod_lattice(solution.particular, solution.kernel)
    defect = integral_defect(build_j_complex(tri), omega(tri, shapes), tol)
    return _assignment_from_vector(tri, shapes, x, defect, solution.kernel)


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

    edge_residuals = [pass_rows(t, components).value for t in comb.edge_terms]
    paths = [pass_rows(terms, components) for terms in comb.cusp_terms]
    return FlatteningAssignment(
        params=params,
        signs=comb.signs,
        edge_residuals=edge_residuals,
        path_residuals=[path.value for path in paths],
        path_parities=[path.parity_of(x) for path in paths],
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
