"""Integer chain complex of a triangulation and the flattening solver.

To each tetrahedron belongs a rank-2 lattice J_Delta spanned by its edges
e_0..e_5 (slot i carrying log-parameter w_{i mod 3}) with relations
e_i = e_{i+3} and e_0 + e_1 + e_2 = 0, and the skew form <e_0, e_1> = 1.
With C_0 and C_1 the free modules on vertex and edge classes, the sequence

    J-complex:  0 -> C_0 --alpha--> C_1 --beta--> J --beta*--> C_1
                  --alpha*--> C_0 -> 0

is a chain complex (spots indexed 5..1); beta* is the adjoint of beta under
the skew form.  ``omega`` is the element of J (x) C whose Delta-component
is -(log(1-z) e_0 + log(z) e_1); at a solution of the gluing equations
(1/pi i) beta*(omega) is an even integer vector.

``solve_flattenings`` finds integer branch indices (p_i, q_i) such that
every edge class has zero signed log-parameter sum and every supplied cusp
path has zero log-parameter and zero parity, by solving one combined
integer linear system in Hermite normal form.  Each condition is a list of
(tet, slot, weight) terms, derived at parse (``Combinatorics``), that
``cvol.geometry.pass_rows`` turns into integer rows.  The resulting
fundamental element sum_i eps_i [z_i, p_i, q_i] evaluates under the lifted
Rogers sum to i(vol + i cs) modulo pi^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .bloch import EBElement, nu_symbolic, r_of_element
from .errors import InconsistentSystemError, NonIntegralError
from .geometry import SLOT_PQ_COEFF, pass_rows, slot_values
from .intlinalg import (
    AbelianGroup,
    gf2_rank,
    matmul,
    reduce_mod_lattice,
    smith_invariant_factors,
    solve_integer_system,
)
from .params import ExtendedParam
from .polylog import PI_SQUARED, principal_log, reduce_mod
from .triangulation import EdgeClass, Triangulation, link_arcs


@dataclass
class JComplex:
    """Integer matrices of the chain complex C0 -> C1 -> J -> C1 -> C0."""

    tri: Triangulation
    edges: list[EdgeClass]
    vertices: list[list[tuple[int, int]]]
    alpha: list[list[int]]        # (n_edges) x (n_vertices)
    beta: list[list[int]]         # (2T) x (n_edges)
    beta_star: list[list[int]]    # (n_edges) x (2T)
    alpha_star: list[list[int]]   # (n_vertices) x (n_edges)

    @property
    def j_rank(self) -> int:
        return 2 * self.tri.num_tetrahedra


def build_j_complex(tri: Triangulation) -> JComplex:
    """Assemble alpha, beta, beta* and alpha* as exact integer matrices."""
    comb = tri.combinatorics
    edges, vertices, vertex_of = comb.edges, comb.vertices, comb.vertex_of
    ne, nv, nt = len(edges), len(vertices), tri.num_tetrahedra

    # alpha: vertex -> sum of incident edges (loops counted twice);
    # alpha*: edge -> sum of its endpoints.  Both from the same incidences.
    alpha = [[0] * nv for _ in range(ne)]
    for e in edges:
        tet, (a, b), _ = e.incidences[0]
        for endpoint in (a, b):
            alpha[e.index][vertex_of[(tet, endpoint)]] += 1
    alpha_star = [list(col) for col in zip(*alpha)]

    # beta: edge class -> sum of the slots identified with it (the edge's
    # terms, unsigned), per simplex.
    beta = [[0] * ne for _ in range(2 * nt)]
    for col, terms in enumerate(comb.edge_terms):
        for tet, slot, _ in terms:
            c0, c1 = SLOT_PQ_COEFF[slot]
            beta[2 * tet][col] += c0
            beta[2 * tet + 1][col] += c1

    # beta* is beta's adjoint under <e_0, e_1> = 1: (c0, c1) -> (c1, -c0)
    beta_star = [
        [v for t in range(nt)
         for v in (beta[2 * t + 1][col], -beta[2 * t][col])]
        for col in range(ne)
    ]
    return JComplex(tri, edges, vertices, alpha, beta, beta_star, alpha_star)


def chain_complex_composites(jc: JComplex) -> tuple[list[list[int]], ...]:
    """The three consecutive composites; all must be zero matrices."""
    return (
        matmul(jc.beta, jc.alpha),
        matmul(jc.beta_star, jc.beta),
        matmul(jc.alpha_star, jc.beta_star),
    )


def omega(tri: Triangulation, shapes: list[complex]) -> list[complex]:
    """Element of J (x) C with Delta-component -(log(1-z) e_0 + log(z) e_1),
    as a coordinate vector over the (e_0, e_1) bases."""
    out: list[complex] = []
    for z in shapes:
        out.append(-principal_log(1 - z))
        out.append(-principal_log(z))
    return out


def xi(flattening: Flattening) -> tuple[complex, complex]:
    """J_Delta (x) C coordinates (w1, -w0) of a flattening."""
    return (flattening.w1, -flattening.w0)


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
            sum(c * w for c, w in zip(row, omega_vec)), tol,
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
    the glued complex (vertex, edge and face classes).  The boundary of an
    edge is its pair of endpoints, so d_1 is ``alpha_star``."""
    faces = jc.tri.combinatorics.faces
    edge_of = jc.tri.combinatorics.edge_of

    d2 = [[0] * len(faces) for _ in range(len(jc.edges))]
    for col, ((tet, f), _other) in enumerate(faces):
        verts = [v for v in range(4) if v != f]
        for i in range(3):
            for j in range(i + 1, 3):
                pair = (verts[i], verts[j])
                d2[edge_of[(tet, pair)]][col] += 1

    rank_d1 = gf2_rank(jc.alpha_star) if jc.vertices else 0
    rank_d2 = gf2_rank(d2) if faces else 0
    return len(jc.edges) - rank_d1 - rank_d2


# ---------------------------------------------------------------------------
# Flattening solver
# ---------------------------------------------------------------------------

@dataclass
class FlatteningAssignment:
    """Solved branch indices with a full residual report.

    ``kernel`` spans the solution-lattice directions that in addition
    annihilate the log-parameter functionals of every closed vertex-link
    normal path (exactly, with no cap on the paths); shifting the
    particular solution by these keeps all path conditions valid.
    ``raw_kernel`` is the unpruned kernel of the enforced system.
    """

    params: list[ExtendedParam]
    signs: list[int]
    edge_residuals: list[complex]
    path_residuals: list[complex]
    path_parities: list[int]
    defect: list[int]
    edge_flattened_only: bool
    kernel: list[list[int]] = field(default_factory=list)
    raw_kernel: list[list[int]] = field(default_factory=list)

    def pq(self) -> list[tuple[int, int]]:
        return [(p.p, p.q) for p in self.params]

    def max_residual(self) -> float:
        vals = [abs(r) for r in self.edge_residuals + self.path_residuals]
        return max(vals) if vals else 0.0


def _build_system(
    tri: Triangulation, shapes: list[complex], tol: float
) -> tuple[list[list[int]], list[int], int]:
    """Integer rows for edge conditions, path log conditions and path parity
    conditions (the latter with an auxiliary doubled unknown each)."""
    comb = tri.combinatorics
    n = tri.num_tetrahedra
    width = 2 * n + len(comb.cusp_terms)
    constants = slot_values(ExtendedParam(z, 0, 0) for z in shapes)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for k, terms in enumerate(comb.edge_terms):
        edge = pass_rows(terms, width, constants)
        rows.append(edge.pq)
        rhs.append(-_pi_i_multiple(edge.value, tol, f"edge {k} constant"))

    for k, terms in enumerate(comb.cusp_terms):
        cusp = pass_rows(terms, width, constants)
        rows.append(cusp.pq)
        rhs.append(-_pi_i_multiple(cusp.value, tol, f"cusp path {k} constant"))
        cusp.parity[2 * n + k] = 2
        rows.append(cusp.parity)
        rhs.append(-cusp.parity_const)
    return rows, rhs, width


def _prune_kernel(
    tri: Triangulation, kernel: list[list[int]]
) -> list[list[int]]:
    """Sub-lattice of kernel vectors annihilating the log functionals of
    all closed vertex-link paths, the closed walks of the link state graph.

    Its states have in- and out-degree 2, so each component is strongly
    connected and the fundamental cycles of a spanning forest span the
    rational functionals of all closed walks; the sub-lattice depends on
    that span only.  A state's potential is the functional of its tree path
    on the kernel vectors; each arc off the tree gives one row.
    """
    if not kernel:
        return []
    arcs = link_arcs(tri)
    potential = {}
    action = []
    for root in arcs:
        if root in potential:
            continue
        potential[root] = [0] * len(kernel)
        queue = [root]
        for state in queue:
            for nxt, (tet, slot, weight) in arcs[state]:
                cp, cq = SLOT_PQ_COEFF[slot]
                value = [
                    p + weight * (cp * k[2 * tet] + cq * k[2 * tet + 1])
                    for p, k in zip(potential[state], kernel)
                ]
                if nxt not in potential:
                    potential[nxt] = value
                    queue.append(nxt)
                elif value != potential[nxt]:
                    action.append(
                        [a - b for a, b in zip(value, potential[nxt])]
                    )
    if not action:
        return [list(v) for v in kernel]
    combos = solve_integer_system(action, [0] * len(action))
    assert combos is not None  # homogeneous systems are always consistent
    return matmul(combos.kernel, kernel)


def solve_flattenings(
    tri: Triangulation, shapes: list[complex], tol: float = 1e-9
) -> FlatteningAssignment:
    """Assign branch indices (p_i, q_i) meeting the edge and path conditions.

    The combined integer system is solved in Hermite normal form; the
    particular solution is canonicalized by reduction modulo the kernel
    lattice, so the output is deterministic.  Missing cusp paths yield a
    partial, 'edge-flattened only' assignment.
    """
    rows, rhs, width = _build_system(tri, shapes, tol)
    solution = solve_integer_system(rows, rhs)
    if solution is None:
        raise InconsistentSystemError(
            "flattening system has no integer solution; the triangulation "
            "data is invalid"
        )
    x = reduce_mod_lattice(solution.particular, solution.kernel)
    defect = integral_defect(build_j_complex(tri), omega(tri, shapes), tol)
    return _assignment_from_vector(tri, shapes, x, solution.kernel, defect)


def _assignment_from_vector(
    tri: Triangulation,
    shapes: list[complex],
    x: list[int],
    kernel: list[list[int]],
    defect: list[int],
) -> FlatteningAssignment:
    comb = tri.combinatorics
    n = tri.num_tetrahedra
    params = [
        ExtendedParam(shapes[t], x[2 * t], x[2 * t + 1]) for t in range(n)
    ]
    components = slot_values(params)

    edge_residuals = [
        pass_rows(terms, 2 * n, components).value
        for terms in comb.edge_terms
    ]
    paths = [pass_rows(terms, 2 * n, components) for terms in comb.cusp_terms]
    return FlatteningAssignment(
        params=params,
        signs=comb.signs,
        edge_residuals=edge_residuals,
        path_residuals=[path.value for path in paths],
        path_parities=[path.parity_of(x) for path in paths],
        defect=defect,
        edge_flattened_only=not tri.cusp_paths,
        kernel=_prune_kernel(tri, kernel),
        raw_kernel=[list(v) for v in kernel],
    )


def alternate_assignment(
    tri: Triangulation,
    shapes: list[complex],
    base: FlatteningAssignment,
    kernel_coeffs: list[int],
) -> FlatteningAssignment:
    """Another particular solution: base + integer combination of kernel
    vectors (used to exercise solver-choice invariance).  The defect
    depends on the shapes only, so it is the base's."""
    if len(kernel_coeffs) != len(base.kernel):
        raise ValueError("need one coefficient per kernel vector")
    x = [p for pair in base.pq() for p in pair]
    x = x + [0] * (len(base.kernel[0]) - len(x) if base.kernel else 0)
    for c, vec in zip(kernel_coeffs, base.kernel):
        x = [a + c * b for a, b in zip(x, vec)]
    return _assignment_from_vector(tri, shapes, x, base.kernel, base.defect)


def fundamental_element(
    tri: Triangulation, assignment: FlatteningAssignment
) -> EBElement:
    """sum_i eps_i [z_i, p_i, q_i] in ep mode."""
    terms: dict[ExtendedParam, int] = {}
    for sign, param in zip(assignment.signs, assignment.params):
        terms[param] = terms.get(param, 0) + sign
    return EBElement(terms, "ep")


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
    value = r_of_element(fundamental_element(tri, assignment))
    vol = value.value.imag
    cs = reduce_mod(complex(-value.value.real, 0.0), PI_SQUARED).value.real
    return vol, snap_cs(cs, tri.num_tetrahedra)


# ---------------------------------------------------------------------------
# Cycle relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleSimplex:
    """One simplex of a cyclic configuration around a common edge E.

    ``edge_slot`` is the log-parameter slot of E in this simplex;
    ``top_slot``/``bottom_slot`` are the slots of the edges T_j and B_j of
    the common triangle with the next simplex.  The three slots must be
    distinct.
    """

    shape: complex
    p: int
    q: int
    sign: int
    edge_slot: int
    top_slot: int
    bottom_slot: int

    def __post_init__(self) -> None:
        if {self.edge_slot, self.top_slot, self.bottom_slot} != {0, 1, 2}:
            raise ValueError("edge, top and bottom slots must be distinct")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")


def cycle_relation_check(
    simplices: list[CycleSimplex],
    base_point,
    tol: float = 1e-9,
) -> bool:
    """Verify the cycle relation through (R, nu).

    Preconditions: the signed log-parameter sum and the parity sum at the
    common edge vanish.  The primed flattenings add sign * pi i at the top
    slot and subtract it at the bottom slot; the primed and unprimed
    elements must have equal lifted-Rogers values modulo pi^2 and equal
    symbolic wedge images.
    """
    params = [ExtendedParam(s.shape, s.p, s.q) for s in simplices]
    edge = pass_rows(
        [(j, s.edge_slot, s.sign) for j, s in enumerate(simplices)],
        2 * len(simplices),
        slot_values(params),
    )
    if abs(edge.value) > tol:
        raise NonIntegralError(
            f"signed log-parameter sum around the edge is {edge.value!r}, "
            "not 0"
        )
    if edge.parity_of([v for s in simplices for v in (s.p, s.q)]):
        raise NonIntegralError("parity sum around the edge is odd")

    original: dict[ExtendedParam, int] = {}
    primed: dict[ExtendedParam, int] = {}
    for s, key in zip(simplices, params):
        dp = s.sign * ((s.top_slot == 0) - (s.bottom_slot == 0))
        dq = s.sign * ((s.top_slot == 1) - (s.bottom_slot == 1))
        key2 = key.shifted(dp, dq)
        original[key] = original.get(key, 0) + s.sign
        primed[key2] = primed.get(key2, 0) + s.sign
    difference = EBElement(original) - EBElement(primed)
    r_ok = r_of_element(difference).distance_to_zero() < tol
    nu_ok = nu_symbolic(difference, base_point).is_zero()
    return r_ok and nu_ok
