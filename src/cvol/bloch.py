"""Formal elements of the extended pre-Bloch group and its computable maps.

Elements are integer combinations of generators [z, p, q] in one of two
flavours: mode "ep" allows all integer branch indices (values of the Rogers
lift live in C/pi^2*Z), mode "eep" restricts to even indices (values in
C/2*pi^2*Z), as ``polylog.check_mode`` and ``check_branches`` enforce.  Every
builder below is one call of the ``EBElement`` constructor.  Equality of
elements is never decided directly; identities are verified through the
separating computable homomorphisms:

* ``r_of_element``   -- the lifted Rogers sum, reduced by the mode's modulus;
* ``nu_symbolic``    -- the wedge log z ^ (-log(1-z)) image, evaluated
                        exactly over a finite symbol basis;
* ``epsilon_parity`` -- the (p*q mod 2) homomorphism that detects the
                        order-two element kappa.

``five_term_instance`` produces the alternating five-term combination for a
base point with y in the upper half plane and x inside the triangle 0,1,y
(where all five shapes are in the upper half plane), shifted by the
five-parameter integer index family.  ``cycle_relation_check`` checks the
cycle relation of simplices around a common edge through R and nu.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping

from .errors import (
    DegenerateGeometryError,
    DomainError,
    NonIntegralError,
    SymbolMatchError,
)
from .geometry import (
    derived_indices,
    five_point_shapes,
    in_ft_plus,
    pass_rows,
    slot_values,
)
from .params import ExtendedParam, Value
from .polylog import (
    MODULI,
    ModPiSquared,
    check_branches,
    check_mode,
    lifted_rogers_sum,
    principal_log,
    reduce_mod,
)
from .wedge import WedgeExpr


def _integer(coeff) -> int:
    """``coeff`` as an int; a float such as 0.5 or 2.7 is refused rather
    than truncated."""
    try:
        return operator.index(coeff)
    except TypeError:
        raise DomainError(f"coefficient {coeff!r} is not an integer") from None


#: what the EBElement constructor takes: {generator: coeff}, or
#: (generator, coeff) pairs in which a generator may repeat
Terms = Mapping[ExtendedParam, int] | Iterable[tuple[ExtendedParam, int]]


class EBElement:
    """Finite integer combination of ExtendedParam generators.

    The constructor is the one way to build an element from ``Terms``: it
    merges repeated generators in first-seen order, checks each coefficient
    and each eep index once, and drops zero sums.  Arithmetic combines
    operands that are already valid and wraps its result with ``_trusted``,
    so no term is checked twice.
    """

    __slots__ = ("terms", "mode")

    def __init__(self, terms: Terms | None = None, mode: str = "ep"):
        self.mode = check_mode(mode)
        merged: dict[ExtendedParam, int] = {}
        for param, coeff in (
            terms.items() if isinstance(terms, Mapping) else terms or ()
        ):
            coeff = _integer(coeff)
            if coeff:
                merged[param] = merged.get(param, 0) + coeff
        check_branches(merged, mode)
        self.terms = merged if all(merged.values()) else {
            param: c for param, c in merged.items() if c}

    @classmethod
    def _trusted(cls, terms: dict[ExtendedParam, int], mode: str) -> "EBElement":
        """Wrap ``terms`` as is: valid for ``mode`` and free of zeros."""
        element = object.__new__(cls)
        element.terms = terms
        element.mode = mode
        return element

    def is_zero(self) -> bool:
        return not self.terms

    def _binop(self, other: "EBElement", s: int) -> "EBElement":
        if self.mode != other.mode:
            raise ValueError("cannot combine elements of different modes")
        out = dict(self.terms)
        for param, coeff in other.terms.items():
            value = out.get(param, 0) + s * coeff
            if value:
                out[param] = value
            else:
                del out[param]
        return EBElement._trusted(out, self.mode)

    def __add__(self, other: "EBElement") -> "EBElement":
        return self._binop(other, +1)

    def __sub__(self, other: "EBElement") -> "EBElement":
        return self._binop(other, -1)

    def __neg__(self) -> "EBElement":
        return (-1) * self

    def __rmul__(self, n: int) -> "EBElement":
        n = _integer(n)
        terms = {k: n * c for k, c in self.terms.items()} if n else {}
        return EBElement._trusted(terms, self.mode)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EBElement) and self.mode == other.mode
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.mode, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"EBElement(0, mode={self.mode!r})"
        parts = [f"{c}*[{p.z!r},{p.p},{p.q}]" for p, c in self.terms.items()]
        return "EBElement(" + " + ".join(parts) + f", mode={self.mode!r})"


def generator(z: complex, p: int, q: int, mode: str = "ep",
              cut_side: int | None = None) -> EBElement:
    """Single-generator element [z, p, q]."""
    return EBElement(((ExtendedParam(z, p, q, cut_side), 1),), mode)


def indexed_element(z: complex, indexed: Iterable[tuple[int, int, int]],
                    mode: str = "ep", cut_side: int | None = None) -> EBElement:
    """sum c [z, p, q] over the (p, q, c) of ``indexed``, all at one z."""
    return EBElement([(ExtendedParam(z, p, q, cut_side), c)
                      for p, q, c in indexed], mode)


class FiveTermTuple(Value):
    """Base point (x, y) with y upper-half-plane and x inside triangle(0,1,y),
    plus the five free integer offsets of the index family."""

    __slots__ = ("x", "y", "p0", "p1", "q0", "q1", "q2")

    def __init__(self, x: complex, y: complex, p0: int = 0, p1: int = 0,
                 q0: int = 0, q1: int = 0, q2: int = 0) -> None:
        if not in_ft_plus(complex(x), complex(y)):
            raise DegenerateGeometryError(
                "base point must have y upper-half-plane and x inside "
                "the triangle with vertices 0, 1, y"
            )
        self.x, self.y = x, y
        self.p0, self.p1, self.q0, self.q1, self.q2 = p0, p1, q0, q1, q2

    def indices(self) -> list[tuple[int, int]]:
        """The five (p_i, q_i) pairs determined by the free offsets."""
        v = derived_indices(self.p0, self.p1, self.q0, self.q1, self.q2)
        return list(zip(v[:5], v[5:]))

    def shapes(self) -> tuple[complex, ...]:
        return five_point_shapes(complex(self.x), complex(self.y))


def _five_term_terms(t: FiveTermTuple) -> list[tuple[ExtendedParam, int]]:
    """The pairs ([x_i, p_i, q_i], (-1)^i) of the five-term combination."""
    return [(ExtendedParam(shape, p, q), (-1) ** i)
            for i, (shape, (p, q)) in enumerate(zip(t.shapes(), t.indices()))]


def five_term_instance(t: FiveTermTuple) -> EBElement:
    """Alternating five-term combination sum_i (-1)^i [x_i, p_i, q_i]."""
    return EBElement(_five_term_terms(t))


def transfer_instance(z: complex, p: int, q: int, p2: int, q2: int) -> EBElement:
    """[z,p,q] + [z,p2,q2] - [z,p,q2] - [z,p2,q]."""
    return indexed_element(
        z, ((p, q, 1), (p2, q2, 1), (p, q2, -1), (p2, q, -1)))


def chi(z: complex, cut_side: int | None = None) -> EBElement:
    """chi(z) = [z,0,1] - [z,0,0]; its Rogers value is (pi*i/2) log z."""
    return indexed_element(z, ((0, 1, 1), (0, 0, -1)), cut_side=cut_side)


def chi_hat(z: complex, cut_side: int | None = None) -> EBElement:
    """chi_hat(z) = [z,0,2] - [z,0,0] in eep mode; Rogers value pi*i log z."""
    return indexed_element(z, ((0, 2, 1), (0, 0, -1)), "eep", cut_side)


def kappa_element(z: complex) -> EBElement:
    """kappa = [z,1,1] + [z,0,0] - [z,1,0] - [z,0,1], independent of z."""
    return indexed_element(z, ((1, 1, 1), (0, 0, 1), (1, 0, -1), (0, 1, -1)))


def super_transfer_rhs(z: complex, p: int, q: int) -> EBElement:
    """pq[z,1,1] - (pq-p)[z,1,0] - (pq-q)[z,0,1] + (pq-p-q+1)[z,0,0]."""
    pq = p * q
    return indexed_element(
        z, ((1, 1, pq), (1, 0, p - pq), (0, 1, q - pq), (0, 0, pq - p - q + 1)))


def r_of_element(e: EBElement) -> ModPiSquared:
    """Lifted-Rogers sum of the element, reduced by the mode's modulus."""
    return reduce_mod(lifted_rogers_sum(e.terms), MODULI[e.mode])


def epsilon_parity(e: EBElement) -> int:
    """sum coeff * p * q modulo 2."""
    return sum(c * param.p * param.q for param, c in e.terms.items()) % 2


# ---------------------------------------------------------------------------
# Symbolic evaluation of nu
# ---------------------------------------------------------------------------

#: symbol names over which five-term-family logarithms decompose
LOG_SYMBOLS = ("log_x", "log_1mx", "log_y", "log_1my", "log_xmy")
PI_I_SYMBOL = "pi_i"
#: basis of the exponent vectors: the sorted log symbols, then pi_i
_BASIS = (*sorted(LOG_SYMBOLS), PI_I_SYMBOL)
_PI_I = 5
#: the 15 wedge coordinates (s, t), s < t, as (symbol pair, 6 s + t,
#: 6 t + s): the pair and its two cells in nu_symbolic's 6x6 table
_PAIRS = tuple(((_BASIS[s], _BASIS[t]), 6 * s + t, 6 * t + s)
               for s in range(6) for t in range(s + 1, 6))
#: exponent vectors over (log_1mx, log_1my, log_x, log_xmy, log_y) of the
#: monomials x, 1-x (one base point), then y, 1-y, y/x, (x-y)/x,
#: y(1-x)/(x(1-y)), (x-y)/(x(1-y)), (1-x)/(1-y), (x-y)/(1-y)
_MONOMIALS = (
    (0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 1, 0, 0, 0),
    (0, 0, -1, 0, 1), (0, 0, -1, 1, 0), (1, -1, -1, 0, 1), (0, -1, -1, 1, 0),
    (1, -1, 0, 0, 0), (0, -1, 0, 1, 0),
)


#: a value matches a monomial within this tolerance relative to
#: max(1, |monomial|); a branch correction may be off an integer by
#: ``_ROUND_TOL``
_MATCH_TOL = 1e-9
_ROUND_TOL = 1e-6


def _log_candidates(
    x: complex, y: complex | None
) -> list[tuple[complex, float, tuple[int, ...], tuple[complex, ...]]]:
    """(value, match radius, exponent vector, logs of the symbols) of every
    monomial in x, 1-x, y, 1-y, x-y that a generator may match; the radius
    is ``_MATCH_TOL`` relative to max(1, |value|)."""
    if y is None:
        values = (x, 1 - x)
        logs = (principal_log(1 - x), 0j, principal_log(x), 0j, 0j)
    else:
        # the logs first: each refuses the 0 that a quotient would divide by
        logs = tuple(principal_log(v) for v in (1 - x, 1 - y, x, x - y, y))
        values = (x, 1 - x, y, 1 - y, y / x, (x - y) / x,
                  y * (1 - x) / (x * (1 - y)), (x - y) / (x * (1 - y)),
                  (1 - x) / (1 - y), (x - y) / (1 - y))
    return [(value, _MATCH_TOL * max(1.0, abs(value)), vec, logs)
            for value, vec in zip(values, _MONOMIALS)]


def _log_vector(
    value: complex,
    cands: list[tuple[complex, float, tuple[int, ...], tuple[complex, ...]]],
) -> tuple[int, ...]:
    """Exponent vector of log(value) over ``_BASIS``: the first monomial
    within its match radius plus a pi_i correction resolved by rounding;
    only the matched monomial's symbolic log is summed."""
    for cand_value, radius, vec, logs in cands:
        if abs(value - cand_value) <= radius:
            symbolic = sum(c * lg for c, lg in zip(vec, logs) if c)
            c_float = (principal_log(value) - symbolic) / (1j * math.pi)
            c = round(c_float.real)
            if abs(c_float - c) > _ROUND_TOL:
                raise SymbolMatchError(
                    "branch correction %r is not an integer" % (c_float,)
                )
            return (*vec, c)
    raise SymbolMatchError(
        "value %r is not a known monomial in the base point" % (value,)
    )


def nu_symbolic(
    e: EBElement,
    base_point: complex | tuple[complex, complex | None],
) -> WedgeExpr:
    """Exact wedge image sum coeff * (log z + p pi i) ^ (-log(1-z) + q pi i).

    Every generator's z and 1-z must be, up to branch, a monomial in
    x, 1-x, y, 1-y, x-y for the supplied base point; the integer branch
    corrections are resolved numerically and enter the pi_i coefficient.
    """
    if isinstance(base_point, tuple):
        x, y = base_point
    else:
        x, y = base_point, None
    cands = _log_candidates(complex(x), None if y is None else complex(y))
    # the wedge is bilinear, so generators sharing z need one decomposition
    # a, b of log z, -log(1-z) and the sums c, cp, cq of coeff, coeff*p,
    # coeff*q: c a^b + cp pi_i^b + cq a^pi_i.  ``table[6 s + t]`` collects
    # the coefficient of basis_s (x) basis_t from the few nonzero entries
    # of a and b; the wedge coordinate (s, t) is its antisymmetric part.
    sums: dict[complex, list[int]] = {}
    for param, coeff in e.terms.items():
        acc = sums.setdefault(param.numeric_z(), [0, 0, 0])
        acc[0] += coeff
        acc[1] += coeff * param.p
        acc[2] += coeff * param.q
    table = [0] * 36
    for z, (c, cp, cq) in sums.items():
        a = _log_vector(z, cands)
        b = [(t, -v) for t, v in enumerate(_log_vector(1 - z, cands)) if v]
        for s, va in enumerate(a):
            if va:
                for t, vb in b:
                    table[6 * s + t] += c * va * vb
                table[6 * s + _PI_I] += cq * va
        for t, vb in b:
            table[6 * _PI_I + t] += cp * vb
    return WedgeExpr({key: v for key, st, ts in _PAIRS
                      if (v := table[st] - table[ts])})


# ---------------------------------------------------------------------------
# Cycle relation
# ---------------------------------------------------------------------------

class CycleSimplex(Value):
    """One simplex of a cyclic configuration around a common edge E.

    ``edge_slot`` is the log-parameter slot of E in this simplex;
    ``top_slot``/``bottom_slot`` are the slots of the edges T_j and B_j of
    the common triangle with the next simplex.  The three slots must be
    distinct.
    """

    __slots__ = ("shape", "p", "q", "sign", "edge_slot", "top_slot",
                 "bottom_slot")

    def __init__(self, shape: complex, p: int, q: int, sign: int,
                 edge_slot: int, top_slot: int, bottom_slot: int) -> None:
        if {edge_slot, top_slot, bottom_slot} != {0, 1, 2}:
            raise ValueError("edge, top and bottom slots must be distinct")
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        self.shape, self.p, self.q, self.sign = shape, p, q, sign
        self.edge_slot, self.top_slot = edge_slot, top_slot
        self.bottom_slot = bottom_slot


#: a cycle configuration's edge sum counts as 0 within EDGE_SUM_ULPS * eps
#: times the sum, over its simplices, of the largest log-parameter
#: magnitude: each log-parameter is a logarithm plus a multiple of pi i,
#: off by about an ulp, and w2 = -w0 - w1 carries the rounding of both.
#: On 40 000 configurations of the ``verify`` cycle suite (seeds 0..199,
#: 200 each) the sum stays below 0.5 eps times that scale.
EDGE_SUM_ULPS = 4


def cycle_relation_check(
    simplices: list[CycleSimplex],
    base_point,
    tol: float = 1e-9,
) -> bool:
    """Verify the cycle relation through (R, nu).

    Preconditions: the signed log-parameter sum at the common edge is 0 up
    to rounding (``EDGE_SUM_ULPS``, not ``tol``), and its parity sum is
    even.  The primed flattenings add sign * pi i at the top slot and
    subtract it at the bottom slot; the primed and unprimed elements must
    have equal lifted-Rogers values modulo pi^2 and equal symbolic wedge
    images.
    """
    params = [ExtendedParam(s.shape, s.p, s.q) for s in simplices]
    values = slot_values(params)
    terms = [(j, s.edge_slot, s.sign) for j, s in enumerate(simplices)]
    edge = pass_rows(terms, values)
    scale = sum(max(map(abs, w)) for w in values)
    if abs(edge.value) > EDGE_SUM_ULPS * math.ulp(1.0) * scale:
        raise NonIntegralError(
            f"signed log-parameter sum around the edge is {edge.value!r}, "
            "not 0"
        )
    if edge.parity_of([v for s in simplices for v in (s.p, s.q)]):
        raise NonIntegralError("parity sum around the edge is odd")

    signs = [s.sign for s in simplices]
    primed = [
        key.shifted(s.sign * ((s.top_slot == 0) - (s.bottom_slot == 0)),
                    s.sign * ((s.top_slot == 1) - (s.bottom_slot == 1)))
        for s, key in zip(simplices, params)
    ]
    difference = EBElement(zip(params, signs)) - EBElement(zip(primed, signs))
    r_ok = r_of_element(difference).distance_to_zero() < tol
    nu_ok = nu_symbolic(difference, base_point).is_zero()
    return r_ok and nu_ok
