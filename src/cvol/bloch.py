"""Formal elements of the extended pre-Bloch group and its computable maps.

Elements are integer combinations of generators [z, p, q] in one of two
flavours: mode "ep" allows all integer branch indices (values of the Rogers
lift live in C/pi^2*Z), mode "eep" restricts to even indices (values in
C/2*pi^2*Z), as ``check_mode`` and ``check_branches`` enforce.  Every
builder below is one call of the ``EBElement`` constructor; the arithmetic,
with integer coefficients and multipliers only, is that of
``cvol.wedge.Combination``, and refuses to mix the two modes.  Equality of
elements is never decided directly; identities are verified through the
separating computable homomorphisms:

* ``r_of_element``   -- the lifted Rogers sum, reduced by the mode's modulus;
* ``nu_symbolic``    -- the wedge log z ^ (-log(1-z)) image, evaluated
                        exactly over a finite symbol basis: each shape adds
                        a few entries of wedge tables built at import;
* ``epsilon_parity`` -- the (p*q mod 2) homomorphism that detects the
                        order-two element kappa.

Five-point configurations: five points on the sphere at infinity span five
ideal simplices whose shapes are ``five_point_shapes``; one walk of the ten
connecting edges (``FIVE_POINT_EDGES``) gives their signed log-parameter
sums (``five_point_edge_conditions``) and integer rows
(``five_point_edge_rows``), both through ``cvol.geometry.pass_rows``.

``five_term_instance`` produces the alternating five-term combination for a
base point with y in the upper half plane and x inside the triangle 0,1,y
(where all five shapes are in the upper half plane), shifted by the
five-parameter integer index family.  ``cycle_relation_check`` checks the
cycle relation of simplices around a common edge through R and nu.

The functions of one value that ``cvol`` does not run live here too, on
``cvol.polylog``'s series: ``dilog``, ``rogers``, ``lifted_rogers``,
``lifted_rogers_raw``, ``flatten`` and its value type ``Flattening``,
``unflatten`` and ``bloch_wigner`` (the tests' volume oracle).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from itertools import combinations

from .errors import (
    DegenerateGeometryError,
    DomainError,
    NonIntegralError,
    SymbolMatchError,
)
from .geometry import EDGE_SLOT, pass_rows
from .params import ExtendedParam, Value
from .polylog import (
    _HALF_PI_I,
    _PI_SQUARED_6,
    PI_SQUARED,
    TWO_PI_SQUARED,
    ModPiSquared,
    _dilog,
    _normalize,
    _rogers_logs,
    lifted_rogers_sum,
    principal_log,
    reduce_mod,
    slot_values,
)
from .wedge import Combination, WedgeExpr, _integer, sym, wedge

#: the modulus of the Rogers values of each mode: pi^2 in 'ep', where all
#: branch indices are allowed, and 2 pi^2 in 'eep', where they are even
MODULI = {"ep": PI_SQUARED, "eep": TWO_PI_SQUARED}


def check_mode(mode: str) -> str:
    """``mode`` if it names a modulus in ``MODULI``; ValueError otherwise."""
    if mode not in MODULI:
        raise ValueError("mode must be 'ep' or 'eep'")
    return mode


def check_branches(params: Iterable[ExtendedParam], mode: str) -> None:
    """DomainError if ``mode`` is 'eep' and a param has an odd index."""
    if mode == "eep" and any(x.p % 2 or x.q % 2 for x in params):
        raise DomainError("eep mode requires even branch indices")


class Flattening(Value):
    """Log-parameter triple (w0, w1, w2) of an ideal simplex, w0+w1+w2 = 0.

    w0 is carried by the 01/23 edges, w1 by the 12/03 edges and w2 by the
    02/13 edges of the simplex.
    """

    __slots__ = ("w0", "w1", "w2")

    def __init__(self, w0: complex, w1: complex, w2: complex) -> None:
        scale = max(1.0, abs(w0), abs(w1), abs(w2))
        if abs(w0 + w1 + w2) > 1e-9 * scale:
            raise DomainError("flattening components must sum to zero")
        self.w0, self.w1, self.w2 = w0, w1, w2

    @classmethod
    def from_components(cls, w0: complex, w1: complex) -> "Flattening":
        """Build a flattening with w2 derived, so the zero-sum is exact."""
        return cls(w0, w1, -w0 - w1)


def flatten(param: ExtendedParam) -> Flattening:
    """Log-parameter triple of (z; p, q): ``slot_values``'s triple."""
    return Flattening(*slot_values((param,))[0])


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


def _reject_dilog_cut(z: complex) -> complex:
    z = _normalize(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError("dilogarithm is not defined on the cut [1, inf)")
    return z


def dilog(z: complex) -> complex:
    """Li2(z) = -integral_0^z log(1-t)/t dt on the principal branch.

    The cut is [1, inf).  Li2(w) is the Bernoulli series in u = -log(1-w)
    ('t Hooft-Veltman 1979; Zagier 2007), summed to its fixed u^21 term.
    The series is taken at w = z where |u| <= 1.12, which holds on
    |z| <= 1, Re z <= 1/2 and near it; elsewhere one reflection (w = 1-z,
    where |1-z| <= 1) or one inversion (w = 1/z, where |z| > 1) takes z
    into |w| <= 1, Re w <= 1/2, where |u| <= pi/3.  The series has radius
    2 pi, so the truncation is below 1e-17, and the result is within a few
    ulps of max(1, |Li2(z)|).
    """
    z = _reject_dilog_cut(z)
    return _dilog(z)


def rogers(z: complex) -> complex:
    """Rogers dilogarithm R(z) = log(z) log(1-z) / 2 + Li2(z).

    Defined for z off both cuts; R(1/2) = pi^2 / 12.
    """
    return _rogers_logs(z)[0]


def lifted_rogers_raw(z: complex, p: int, q: int) -> complex:
    """Unreduced value of R(z; p, q) as a plain complex number; the
    expression ``lifted_rogers_sum`` adds per term."""
    value, log_z, log_1mz = _rogers_logs(z)
    return value + _HALF_PI_I * (p * log_1mz + q * log_z) - _PI_SQUARED_6


def lifted_rogers(param: ExtendedParam, mode: str = "ep") -> "ModPiSquared":
    """R(z; p, q) reduced modulo pi^2 (mode 'ep') or 2*pi^2 (mode 'eep').

    In 'eep' mode both branch indices must be even.
    """
    check_branches((param,), check_mode(mode))
    return reduce_mod(lifted_rogers_raw(param.numeric_z(), param.p, param.q),
                      MODULI[mode])


def bloch_wigner(z: complex) -> float:
    """Bloch-Wigner function D(z) = Im Li2(z) + arg(1-z) log|z|.

    D vanishes on the real line and is the volume of the ideal tetrahedron
    with cross-ratio z when Im z > 0.
    """
    z = _normalize(z)
    if z == 0 or z == 1:
        raise DomainError("Bloch-Wigner function undefined at 0 and 1")
    if z.imag == 0.0:
        return 0.0
    return _dilog(z).imag + cmath.phase(1 - z) * math.log(abs(z))



#: what the EBElement constructor takes: {generator: coeff}, or
#: (generator, coeff) pairs in which a generator may repeat
Terms = Mapping[ExtendedParam, int] | Iterable[tuple[ExtendedParam, int]]


class EBElement(Combination):
    """Finite integer combination of ExtendedParam generators.

    The constructor is the one way to build an element from ``Terms``: it
    merges repeated generators in first-seen order, checks each coefficient
    and each eep index once, and drops zero sums.  The arithmetic is
    ``Combination``'s; it refuses to combine elements of two modes, and
    the mode is part of equality and the hash.
    """

    __slots__ = ("mode",)

    def __init__(self, terms: Terms | None = None, mode: str = "ep"):
        self.mode = check_mode(mode)
        merged: dict[ExtendedParam, int] = {}
        get = merged.get
        if terms.__class__ is not list:  # a list is no Mapping: skip the test
            terms = terms.items() if isinstance(terms, Mapping) else terms or ()
        for param, coeff in terms:
            if coeff.__class__ is not int:
                coeff = _integer(coeff)
            if coeff:
                merged[param] = get(param, 0) + coeff
        if mode != "ep":
            check_branches(merged, mode)
        self.terms = merged if all(merged.values()) else {
            param: c for param, c in merged.items() if c}

    @classmethod
    def _trusted(cls, terms: dict[ExtendedParam, int], mode: str) -> "EBElement":
        """Wrap ``terms`` as is: valid for ``mode`` and free of zeros."""
        element = super()._trusted(terms)
        element.mode = mode
        return element

    def _like(self, terms: dict[ExtendedParam, int]) -> "EBElement":
        return EBElement._trusted(terms, self.mode)

    def _key(self):
        return self.mode, super()._key()

    def _binop(self, other: "EBElement", s: int) -> "EBElement":
        if self.mode != other.mode:
            raise ValueError("cannot combine elements of different modes")
        return super()._binop(other, s)

    def __repr__(self) -> str:
        if not self.terms:
            return f"EBElement(0, mode={self.mode!r})"
        parts = [f"{c}*[{p.z!r},{p.p},{p.q}]" for p, c in self.terms.items()]
        return "EBElement(" + " + ".join(parts) + f", mode={self.mode!r})"


def generator(z: complex, p: int, q: int, mode: str = "ep") -> EBElement:
    """Single-generator element [z, p, q]."""
    return EBElement(((ExtendedParam(z, p, q), 1),), mode)


def indexed_element(z: complex, indexed: Iterable[tuple[int, int, int]],
                    mode: str = "ep", cut_side: int | None = None) -> EBElement:
    """sum c [z, p, q] over the (p, q, c) of ``indexed``, all at one z: the
    first generator checks z and its tag, the others (``ExtendedParam.at``)
    only their indices."""
    terms: list[tuple[ExtendedParam, int]] = []
    first = None
    for p, q, c in indexed:
        if first is None:
            terms.append((first := ExtendedParam(z, p, q, cut_side), c))
        else:
            terms.append((first.at(p, q), c))
    return EBElement(terms, mode)


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
    v = derived_indices(t.p0, t.p1, t.q0, t.q1, t.q2)
    return [(ExtendedParam(shape, p, q), sign) for shape, p, q, sign
            in zip(t.shapes(), v[:5], v[5:], (1, -1, 1, -1, 1))]


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
    return ModPiSquared(lifted_rogers_sum(e.terms), MODULI[e.mode])


def epsilon_parity(e: EBElement) -> int:
    """sum coeff * p * q modulo 2."""
    return sum(c * param.p * param.q for param, c in e.terms.items()) % 2


# ---------------------------------------------------------------------------
# Symbolic evaluation of nu
# ---------------------------------------------------------------------------

#: symbol names over which five-term-family logarithms decompose
LOG_SYMBOLS = ("log_x", "log_1mx", "log_y", "log_1my", "log_xmy")
PI_I_SYMBOL = "pi_i"
_LX, _L1MX, _LY, _L1MY, _LXMY = map(sym, LOG_SYMBOLS)
#: symbolic logs m_0..m_9 of x, 1-x (one base point), then y, 1-y, y/x,
#: (x-y)/x, y(1-x)/(x(1-y)), (x-y)/(x(1-y)), (1-x)/(1-y), (x-y)/(1-y);
#: and m_10 = pi_i
_LOGS = (_LX, _L1MX, _LY, _L1MY, _LY - _LX, _LXMY - _LX,
         _L1MX - _L1MY - _LX + _LY, _LXMY - _L1MY - _LX, _L1MX - _L1MY,
         _LXMY - _L1MY, sym(PI_I_SYMBOL))
_PI_I = 10
#: the canonical symbol pairs of the wedges m_i ^ m_j, and ``_WEDGES[i][j]``:
#: the (index into ``_PAIRS``, coefficient) entries of m_i ^ m_j
_PAIRS = sorted({pair for a in _LOGS for b in _LOGS
                 for pair in wedge(a, b).terms})
_WEDGES = [[tuple((_PAIRS.index(pair), w)
                  for pair, w in wedge(a, b).terms.items())
            for b in _LOGS] for a in _LOGS]

#: a value matches a monomial within this tolerance relative to
#: max(1, |monomial|); a branch correction may be off an integer by
#: ``_ROUND_TOL``
_MATCH_TOL = 1e-9
_ROUND_TOL = 1e-6


def _log_candidates(x: complex, y: complex | None) -> list[tuple]:
    """(real part, value, match radius, i, value of m_i) of every monomial
    that a generator may match; the radius is ``_MATCH_TOL`` relative to
    max(1, |value|), and m_i takes the symbols' principal logs."""
    if y is None:
        values, logs = (x, 1 - x), (principal_log(x), principal_log(1 - x))
    else:
        mx, my, xmy = 1 - x, 1 - y, x - y
        # the logs first: each refuses the 0 that a quotient would divide by
        lx, l1mx, ly, l1my, lxmy = map(principal_log, (x, mx, y, my, xmy))
        values = (x, mx, y, my, y / x, xmy / x, y * mx / (x * my),
                  xmy / (x * my), mx / my, xmy / my)
        # each m_i summed in the order of the sorted symbols
        logs = (lx, l1mx, ly, l1my, -lx + ly, -lx + lxmy,
                l1mx - l1my - lx + ly, -l1my - lx + lxmy, l1mx - l1my,
                -l1my + lxmy)
    # max(1, |v|) spelled out: calling max makes this loop 1.7 times slower
    return [(v.real, v, _MATCH_TOL * (a if (a := abs(v)) > 1.0 else 1.0), i,
             log) for i, (v, log) in enumerate(zip(values, logs))]


def _decompose(z: complex, cands: list[tuple]) -> list[int]:
    """The matcher: [i, ka, j, kb] with log z = m_i + ka pi i and
    log(1-z) = m_j + kb pi i, m_i being the first candidate within its
    match radius of z and ka resolved by rounding; likewise for 1-z."""
    found = []
    for value in (z, 1 - z):
        real = value.real
        for cand_real, cand, radius, i, symbolic in cands:
            if abs(real - cand_real) > radius:  # then |value - cand| is too
                continue
            if value == cand:
                if i < 4:  # x, 1-x, y, 1-y: log(value) is m_i itself
                    found += (i, 0)
                    break
            elif abs(value - cand) > radius:
                continue
            # value is neither 0 nor a real below 0: this is principal_log
            c_float = (cmath.log(value) - symbolic) / (1j * math.pi)
            c = round(c_float.real)
            if abs(c_float - c) > _ROUND_TOL:
                raise SymbolMatchError(
                    "branch correction %r is not an integer" % (c_float,))
            found += (i, c)
            break
        else:
            raise SymbolMatchError(f"value {value!r} is not a known "
                                   "monomial in the base point")
    return found


def nu_symbolic(
    e: EBElement,
    base_point: complex | tuple[complex, complex | None],
) -> WedgeExpr:
    """Exact wedge image sum coeff * (log z + p pi i) ^ (-log(1-z) + q pi i).

    Every generator's z and 1-z must be, up to branch, a monomial in
    x, 1-x, y, 1-y, x-y for the supplied base point; the integer branch
    corrections are resolved numerically and enter the pi_i coefficient.
    Generators sharing z need one decomposition (``_decompose``) and the
    sums c, cp, cq of coeff, coeff*p, coeff*q; they add, sparsely, the
    table entries of -c m_i^m_j + (cq - c kb) m_i^pi_i + (c ka + cp) m_j^pi_i.
    """
    x, y = base_point if isinstance(base_point, tuple) else (base_point, None)
    cands = _log_candidates(complex(x), None if y is None else complex(y))
    sums: dict[complex, list[int]] = {}
    for param, coeff in e.terms.items():
        z = param.z if param.cut_side is None else param.numeric_z()
        if (acc := sums.get(z)) is None:
            sums[z] = [coeff, coeff * param.p, coeff * param.q]
        else:
            acc[0] += coeff
            acc[1] += coeff * param.p
            acc[2] += coeff * param.q
    out: dict[int, int] = {}
    get = out.get
    for z, (c, cp, cq) in sums.items():
        i, ka, j, kb = _decompose(z, cands)
        if c:
            for k, w in _WEDGES[i][j]:
                out[k] = get(k, 0) - c * w
        if n := cq - c * kb:
            for k, w in _WEDGES[i][_PI_I]:
                out[k] = get(k, 0) + n * w
        if n := c * ka + cp:
            for k, w in _WEDGES[j][_PI_I]:
                out[k] = get(k, 0) + n * w
    return WedgeExpr._trusted({_PAIRS[k]: v for k, v in out.items() if v})


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
    edge = pass_rows(terms)
    value = edge.value(values)
    scale = sum(max(map(abs, w)) for w in values)
    if abs(value) > EDGE_SUM_ULPS * math.ulp(1.0) * scale:
        raise NonIntegralError(
            f"signed log-parameter sum around the edge is {value!r}, "
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


# ---------------------------------------------------------------------------
# Five-point configurations
# ---------------------------------------------------------------------------

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
) -> dict[tuple[int, int], complex]:
    """Signed three-term log-parameter sum over each of the ten edges of a
    five-point configuration, simplex i weighted by (-1)^i; all ten vanish
    exactly when the flattenings satisfy the flattening condition."""
    if len(flats) != 5:
        raise ValueError("need five flattenings")
    values = [(f.w0, f.w1, f.w2) for f in flats]
    return {
        edge: pass_rows([(i, s, (-1) ** i) for i, s in terms]).value(values)
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
