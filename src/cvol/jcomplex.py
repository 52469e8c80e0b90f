"""The integer chain complex of a triangulation and its homology.

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
read off them as adjoints on demand.  beta's columns are the edge
conditions' ``pq`` rows from the condition table
(``Combinatorics.edge_rows``, built on its first read; ``homology`` builds
no cusp entry), each entry times the orientation sign of its simplex:
every term of an edge carries that sign as its weight.

Everything here is exact integer work and needs no logarithm: the
``homology`` command loads this module and not the flattening solver.
"""

from __future__ import annotations

from typing import NamedTuple

from .intlinalg import AbelianGroup, gf2_rank, smith_invariant_factors
from .triangulation import EdgeClass, Triangulation


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

    # beta: edge class -> the slots identified with it, per simplex, summed
    # without sign (they may cancel): its pq row with the weight eps of
    # each term's simplex divided out again.
    beta: list[dict[int, int]] = [{} for _ in range(2 * tri.num_tetrahedra)]
    for col, edge in enumerate(comb.edge_rows):
        for j, c in edge.pq.items():
            beta[j][col] = comb.signs[j >> 1] * c
    return JComplex(tri, comb.edges, comb.vertices, alpha, beta)


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
    side of the pair as 4 * tet + face.
    """
    gluings = jc.tri.gluings
    d1 = [sum((c & 1) << v for v, c in row.items()) for row in jc.alpha]
    d2: dict[int, int] = {}
    for e in jc.edges:
        bit = 1 << e.index
        for (tet, _, _), (_, exit_) in zip(e.incidences, e.faces):
            target, perm = gluings[tet][exit_]
            face = min(4 * tet + exit_, 4 * target + perm[exit_])
            d2[face] = d2.get(face, 0) ^ bit
    return len(jc.edges) - gf2_rank(d1) - gf2_rank(list(d2.values()))
