"""Ideal simplex shapes and the slot rule of the integer conditions.

An ideal simplex with ordered vertices carries the cross-ratio z on its
01 and 23 edges, z' = 1/(1-z) on the 12 and 03 edges, and z'' = 1 - 1/z on
the 02 and 13 edges.  Log-parameter slot w_i belongs to the edges of the
ith of these pairs; ``cvol.polylog.slot_values`` gives the slot values of a
shape with branch indices.

The slot convention of the integer conditions lives here: ``EDGE_SLOT``
(vertex pair -> slot) and ``SLOT_PQ_COEFF`` (slot -> pi*i coefficients on
(p, q), equally its (e_0, e_1) coordinates in the J-complex).
``pass_rows``, the one condition-to-row helper, turns a condition, a list
of (tet, slot, weight) terms, into a ``PassRows`` entry: its sparse
integer row, its exponent sums, its value at given slot values and its
parity at given branch indices.
``Combinatorics`` builds the entry of every edge and cusp path once, on
the first read of its table.  This module takes no logarithm, so the
integer commands load it without the numeric code.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
from .params import Value

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


class PassRows(namedtuple("PassRows", "terms pq exponents")):
    """A condition sum weight * w_slot(tet) over its ``terms`` (list[Term]),
    as ``pq`` (dict[int, int]), its pi*i coefficients on (p_0, q_0, p_1,
    q_1, ...) without zero entries, and ``exponents``, the (tet, a, b, c)
    weight sums of (w0, w1, w2) by tetrahedron, all-zero triples dropped.
    """

    __slots__ = ()

    def value(self, values: list[tuple[complex, complex, complex]]) -> complex:
        """sum weight * values[tet][slot], in term order."""
        total = 0j
        for tet, slot, weight in self.terms:
            total += weight * values[tet][slot]
        return total

    def parity_of(self, x: list[int]) -> int:
        """sum weight * (p, q or p+q+1 for w0, w1, w2) mod 2 at the branch
        indices x: ``pq`` at x plus the weights of the w2 terms."""
        return (sum(c * x[j] for j, c in self.pq.items())
                + sum(w for _, slot, w in self.terms if slot == 2)) % 2


def pass_rows(terms: list[Term]) -> PassRows:
    """The ``PassRows`` of a condition; the one reader of SLOT_PQ_COEFF."""
    pq: dict[int, int] = {}
    sums: dict[int, list[int]] = {}
    for tet, slot, weight in terms:
        sums.setdefault(tet, [0, 0, 0])[slot] += weight
        for j, c in enumerate(SLOT_PQ_COEFF[slot], 2 * tet):
            if c:
                pq[j] = pq.get(j, 0) + weight * c
    pq = {j: c for j, c in pq.items() if c}
    exponents = [(t, *abc) for t, abc in sorted(sums.items()) if any(abc)]
    return PassRows(terms, pq, exponents)
