"""Ideal simplex shapes and combinatorial flattenings.

An ideal simplex with ordered vertices carries the cross-ratio z on its
01 and 23 edges, z' = 1/(1-z) on the 12 and 03 edges, and z'' = 1 - 1/z on
the 02 and 13 edges.  A flattening refines the shape by a choice of log
branches: the map

    flatten(z; p, q) = (log z + p*pi*i, -log(1-z) + q*pi*i,
                        log(1-z) - log z - (p+q)*pi*i)

is a bijection onto zero-sum log-parameter triples, inverted by
``unflatten``.

The slot convention of the integer conditions lives here: ``EDGE_SLOT``
(vertex pair -> slot) and ``SLOT_PQ_COEFF`` (slot -> pi*i coefficients on
(p, q), equally its (e_0, e_1) coordinates in the J-complex).
``pass_rows``, the one condition-to-row helper, turns a condition, a list
of (tet, slot, weight) terms, into sparse integer rows and a value.

Five-point configurations: five points on the sphere at infinity span five
ideal simplices whose shapes are ``five_point_shapes``; one walk of the ten
connecting edges (``FIVE_POINT_EDGES``) gives their signed log-parameter
sums (``five_point_edge_conditions``) and integer rows
(``five_point_edge_rows``), both through ``pass_rows``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from itertools import combinations
from typing import NamedTuple

from .errors import DegenerateGeometryError, DomainError, NonIntegralError
from .params import ExtendedParam, Flattening, Value
from .polylog import principal_log

#: unordered vertex pair -> log-parameter slot (w0, w1 or w2)
EDGE_SLOT = {
    (0, 1): 0, (2, 3): 0,
    (1, 2): 1, (0, 3): 1,
    (0, 2): 2, (1, 3): 2,
}

#: pi*i coefficient of slot w on (p, q): w0 -> p, w1 -> q, w2 -> -(p+q);
#: equally the coordinates of the slot's edge on the J_Delta basis (e_0, e_1)
SLOT_PQ_COEFF = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}

Term = tuple[int, int, int]  # (tet, slot, weight)


class IdealSimplexShape(Value):
    """Cross-ratio parameter z of an ideal simplex with its even-permutation
    companions z' = 1/(1-z) and z'' = 1 - 1/z; z z' z'' = -1."""

    __slots__ = ("z",)

    def __init__(self, z: complex) -> None:
        z = complex(z)
        if z == 0 or z == 1:
            raise DomainError("shape must avoid 0 and 1")
        self.z = z

    @property
    def z_prime(self) -> complex:
        return 1.0 / (1.0 - self.z)

    @property
    def z_double_prime(self) -> complex:
        return 1.0 - 1.0 / self.z

    def parameter(self, slot: int) -> complex:
        return (self.z, self.z_prime, self.z_double_prime)[slot]


def flatten(param: ExtendedParam) -> Flattening:
    """Log-parameter triple of (z; p, q); the zero-sum is exact because the
    third component is derived."""
    z = param.numeric_z()
    w0 = principal_log(z) + 1j * math.pi * param.p
    w1 = -principal_log(1 - z) + 1j * math.pi * param.q
    return Flattening.from_components(w0, w1)


def slot_values(
    params: Iterable[ExtendedParam],
) -> list[tuple[complex, complex, complex]]:
    """Flattening components (w0, w1, w2) per parameter, for ``pass_rows``."""
    return [(f.w0, f.w1, f.w2) for f in map(flatten, params)]


class PassRows(NamedTuple):
    """A condition sum weight * w_slot(tet) over (tet, slot, weight) terms,
    as rows on (p_0, q_0, p_1, q_1, ...) without zero entries."""

    pq: dict[int, int]      # pi*i coefficients of the condition
    parity: dict[int, int]  # branch indices whose sum is its parity
    parity_const: int       # one per w2 pass: its parity parameter is p+q+1
    value: complex          # sum of weight * values[tet][slot], in term order
    slot_sums: dict[int, list[int]]  # tet -> summed weights of (w0, w1, w2)

    def parity_of(self, x: list[int]) -> int:
        """The condition's parity at the branch indices x."""
        return (sum(c * x[j] for j, c in self.parity.items())
                + self.parity_const) % 2


def pass_rows(
    terms: list[Term],
    values: list[tuple[complex, complex, complex]] | None = None,
) -> PassRows:
    """Sparse integer rows of a condition and, given per-tetrahedron slot
    values (``slot_values``), its value; the one reader of SLOT_PQ_COEFF."""
    pq: dict[int, int] = {}
    parity: dict[int, int] = {}
    slot_sums: dict[int, list[int]] = {}
    parity_const = 0
    value = 0j
    for tet, slot, weight in terms:
        slot_sums.setdefault(tet, [0, 0, 0])[slot] += weight
        for j, c in enumerate(SLOT_PQ_COEFF[slot], 2 * tet):
            if c:
                pq[j] = pq.get(j, 0) + weight * c
                parity[j] = parity.get(j, 0) + abs(c)
        parity_const += slot == 2
        if values is not None:
            value += weight * values[tet][slot]
    pq = {j: c for j, c in pq.items() if c}
    return PassRows(pq, parity, parity_const, value, slot_sums)


def unflatten(w: Flattening, tol: float = 1e-9) -> ExtendedParam:
    """Recover (z; p, q) from a flattening using z = +-e^{w0} and
    1 - z = +-e^{-w1}; non-integer branch residuals are rejected."""
    ez = cmath.exp(w.w0)
    em = cmath.exp(-w.w1)
    scale = max(1.0, abs(ez), abs(em))
    best = None
    for sz in (1.0, -1.0):
        for sm in (1.0, -1.0):
            z = sz * ez
            one_minus = sm * em
            err = abs(z + one_minus - 1.0)
            if best is None or err < best[0]:
                best = (err, z)
    err, z = best
    if err > tol * scale:
        raise NonIntegralError("flattening does not exponentiate to a shape")
    if abs(z.imag) <= 1e-14 * max(1.0, abs(z)):
        z = complex(z.real, 0.0)  # roundoff from exp(log z)
    if z == 0 or z == 1:
        raise DomainError("flattening exponentiates to a degenerate shape")
    p_float = (w.w0 - principal_log(z)) / (1j * math.pi)
    q_float = (w.w1 + principal_log(1 - z)) / (1j * math.pi)
    p, q = round(p_float.real), round(q_float.real)
    if abs(p_float - p) > tol or abs(q_float - q) > tol:
        raise NonIntegralError(
            "branch residuals (%r, %r) are not integers" % (p_float, q_float)
        )
    cut_side = None
    if z.imag == 0.0 and (z.real < 0 or z.real > 1):
        cut_side = +1
    return ExtendedParam(z, p, q, cut_side)


def five_point_shapes(x: complex, y: complex) -> tuple[complex, ...]:
    """Cross-ratios (x0..x4) of the five simplices spanned by five points,
    expressed through x = x0 and y = x1."""
    x, y = complex(x), complex(y)
    if x == y:
        raise DegenerateGeometryError("five-point configuration needs x != y")
    if x == 0 or y == 1:  # x0 = 0 or x1 = 1; later shapes divide by 0
        raise DegenerateGeometryError("five-point shape hits {0, 1, inf}")
    shapes = (
        x,
        y,
        y / x,
        y * (1 - x) / (x * (1 - y)),
        (1 - x) / (1 - y),
    )
    for s in shapes:
        if s == 0 or s == 1 or not cmath.isfinite(s):
            raise DegenerateGeometryError("five-point shape hits {0, 1, inf}")
    return shapes


def in_ft_plus(x: complex, y: complex) -> bool:
    """True when y is in the upper half plane and x lies strictly inside the
    triangle with vertices 0, 1, y (so all five shapes are in the upper
    half plane)."""
    if y.imag <= 0:
        return False
    c = x.imag / y.imag
    b = x.real - c * y.real
    a = 1.0 - b - c
    return min(a, b, c) > 0


#: edge (a, b) of a five-point configuration -> (simplex i, slot of the
#: edge in simplex i) over the three simplices containing it; simplex i
#: omits point i and renumbers the other four in order
FIVE_POINT_EDGES = {
    (a, b): [(i, EDGE_SLOT[(a - (a > i), b - (b > i))])
             for i in range(5) if i not in (a, b)]
    for a, b in combinations(range(5), 2)
}


def five_point_edge_conditions(
    flats: tuple[Flattening, ...],
    signs: tuple[int, ...] = (1, -1, 1, -1, 1),
) -> dict[tuple[int, int], complex]:
    """Signed three-term log-parameter sum over each of the ten edges of a
    five-point configuration; all ten vanish exactly when the flattenings
    satisfy the flattening condition."""
    if len(flats) != 5 or len(signs) != 5:
        raise ValueError("need five flattenings and five signs")
    values = [(f.w0, f.w1, f.w2) for f in flats]
    return {
        edge: pass_rows([(i, s, signs[i]) for i, s in terms], values).value
        for edge, terms in FIVE_POINT_EDGES.items()
    }


def five_point_edge_rows() -> dict[tuple[int, int], list[int]]:
    """Integer coefficient rows of the ten edge conditions in the unknowns
    (p0..p4, q0..q4): the sparse ``pass_rows`` row of each edge, with
    alternating signs, laid out densely as all p's, then all q's."""
    rows: dict[tuple[int, int], list[int]] = {}
    for edge, terms in FIVE_POINT_EDGES.items():
        pq = pass_rows([(i, slot, (-1) ** i) for i, slot in terms]).pq
        rows[edge] = [pq.get(2 * i + k, 0) for k in (0, 1) for i in range(5)]
    return rows


def lift_index_basis() -> list[list[int]]:
    """Basis of the five-parameter index family: rows are the (p0..p4,
    q0..q4) vectors obtained from unit choices of the free indices
    (p0, p1, q0, q1, q2) with the dependent ones filled in."""
    basis = []
    for free in range(5):
        p0, p1, q0, q1, q2 = (1 if i == free else 0 for i in range(5))
        basis.append(derived_indices(p0, p1, q0, q1, q2))
    return basis


def derived_indices(p0: int, p1: int, q0: int, q1: int, q2: int) -> list[int]:
    """Full index vector (p0..p4, q0..q4) from the five free indices."""
    p2 = p1 - p0
    p3 = p1 - p0 + q1 - q0
    q3 = q2 - q1
    p4 = q1 - q0
    q4 = q2 - q1 - p0
    return [p0, p1, p2, p3, p4, q0, q1, q2, q3, q4]


def in_lift_index_family(vec: list[int]) -> bool:
    """Membership test for the index lattice of ``lift_index_basis``."""
    p0, p1, p2, p3, p4, q0, q1, q2, q3, q4 = vec
    return vec == derived_indices(p0, p1, q0, q1, q2)
