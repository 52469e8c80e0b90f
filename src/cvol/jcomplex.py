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

The Smith form works in two steps, because the matrices of a triangulation
are very sparse and almost all their pivots are units.  A sparse pass
eliminates +-1 pivots in one sweep over the dict rows, visited breadth-first
over the rows' shared columns (Cuthill-McKee order) so that fill stays low
however the rows are labelled; the small dense core that is left, one row
per set of rows equal up to sign, is diagonalized by alternating row
Hermite forms of the matrix and of its transpose (Kannan-Bachem).  Both
steps are exact: no modular or floating-point shortcut is taken.  The Smith
form and the GF(2) rank also take sparse rows, ``{col: value}`` dicts, and
int bitmasks respectively, so a caller holding a sparse matrix never builds
the dense one.

Everything here is exact integer work and needs no logarithm.  Only the
``homology`` command loads this module, so no other compiles its code.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .intlinalg import _eliminate_unit_pivots, row_hnf, transpose
from .triangulation import Triangulation


def smith_invariant_factors(
    m: list[list[int]] | list[dict[int, int]]
) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix, given
    as dense rows or as sparse ``{col: value}`` rows.

    Each unit pivot of ``_eliminate_unit_pivots`` gives a factor 1, as
    SNF(M) = [1] + SNF(Schur complement); the dense core it leaves, rows
    equal up to sign kept once, goes to ``_dense_smith_factors``.
    """
    core, units = _eliminate_unit_pivots(m)
    return [1] * units + _dense_smith_factors(core)


def _dense_smith_factors(a: list[list[int]]) -> list[int]:
    """Smith invariant factors of a dense matrix by alternating Hermite forms.

    Row HNF of the matrix, then row HNF of the transpose of its nonzero
    rows, until every nonzero row has a single entry.  This terminates:
    each round's first pivot divides the one before, and once it stops
    shrinking its row and column are clear; the rest follows by induction.
    The diagonal is then turned into a divisibility chain by gcd / lcm.
    """
    h = row_hnf(a)
    while True:
        h = [row for row in h if any(row)]
        if all(sum(1 for v in row if v) == 1 for row in h):
            break
        h = row_hnf(transpose(h))
    d = [next(v for v in row if v) for row in h]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def gf2_rank(m: list[list[int]] | list[int]) -> int:
    """Rank over GF(2) of rows given as integer vectors taken mod 2, or as
    int bitmasks (bit j is column j).

    Each row is reduced against an XOR basis keyed on each member's top
    bit; a row that does not vanish joins the basis under its own top bit.
    """
    basis: dict[int, int] = {}
    for row in m:
        if not isinstance(row, int):
            row = sum((v & 1) << j for j, v in enumerate(row))
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


class AbelianGroup(namedtuple("AbelianGroup", "free_rank torsion",
                              defaults=((),))):
    """Finitely generated abelian group Z^free + sum Z/d_i: ``free_rank``
    (int) and ``torsion`` (tuple[int, ...], default empty)."""

    __slots__ = ()

    @classmethod
    def from_factors(
        cls, ambient_nullity: int, factors: list[int]
    ) -> "AbelianGroup":
        """Group ker/im from the invariant factors of the incoming map."""
        torsion = tuple(sorted(f for f in factors if f > 1))
        return cls(ambient_nullity - len(factors), torsion)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


class JComplex(namedtuple("JComplex", "tri edges vertices alpha beta")):
    """The chain complex C0 -> C1 -> J -> C1 -> C0 as sparse integer rows.

    ``tri`` is the Triangulation, ``edges`` its list[EdgeClass] and
    ``vertices`` its vertex classes, list[list[tuple[int, int]]].  ``alpha``
    ((n_edges) x (n_vertices)) and ``beta`` ((2T) x (n_edges)) hold only
    their nonzero entries, one ``{col: value}`` dict per row with its
    columns in increasing order.  ``alpha_star`` and ``beta_star`` are not
    stored: each access reads them off as adjoints, alpha* = alpha^T and
    beta* = beta^T composed with the skew form, in the same sparse form.
    """

    __slots__ = ()

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


def cmd_homology(args) -> int:
    from .cli import _emit, _load, _stage

    tri = _stage("parse", _load, args.file)
    jc = build_j_complex(tri)
    groups = homology_of_j(jc)
    _emit({"homology": {f"H{k}": str(groups[k]) for k in (5, 4, 3, 2, 1)},
           "h1_mod2_rank": h1_mod2(jc)}, args.format)
    return 0
