"""Branch-correct logarithms, flattenings, and the lifted Rogers sum.

All functions use the principal branch with arg in (-pi, pi].  The central
object is the lifted Rogers function

    R(z; p, q) = rogers(z) + (pi*i/2) * (p*log(1-z) + q*log(z)) - pi^2/6,

which is well defined modulo pi^2 (modulo 2*pi^2 when p and q are even).
Values modulo a real lattice pi^2*Z or 2*pi^2*Z are wrapped in
``ModPiSquared``.

A flattening refines a shape by a choice of log branches: the map

    flatten(z; p, q) = (log z + p*pi*i, -log(1-z) + q*pi*i,
                        log(1-z) - log z - (p+q)*pi*i)

is a bijection onto zero-sum log-parameter triples.  ``slot_values`` gives
the triples in the per-tetrahedron form that ``cvol.geometry.pass_rows``
sums; ``cvol.bloch.flatten`` wraps one as a ``Flattening`` and
``cvol.bloch.unflatten`` inverts it.

This is what ``cvol`` runs; ``dilog``, ``rogers``, ``bloch_wigner`` and the
other functions of one value live in ``cvol.bloch``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from .errors import DomainError
from .params import ExtendedParam, Value

PI = math.pi
PI_SQUARED = math.pi * math.pi
TWO_PI_SQUARED = 2.0 * math.pi * math.pi
#: the constants of the lift and the flattening, folded once
_HALF_PI_I, _PI_SQUARED_6, _PI_I = 0.5j * PI, PI_SQUARED / 6.0, 1j * PI
#: B_2k / (2k+1)! for k = 1..10, the odd coefficients of the Bernoulli
#: series Li2(1 - exp(-u)) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)!
_B3, _B5, _B7, _B9, _B11, _B13, _B15, _B17, _B19, _B21 = _LI2_COEFFS = (
    0.027777777777777776,
    -0.0002777777777777778,
    4.72411186696901e-06,
    -9.185773074661964e-08,
    1.8978869988971e-09,
    -4.0647616451442256e-11,
    8.921691020456452e-13,
    -1.9939295860721074e-14,
    4.518980029619918e-16,
    -1.0356517612181247e-17,
)
#: |u|^2 up to which the series is taken at w = z; the inversion, which
#: otherwise serves |z| slightly above 1, costs up to 4 ulps near the sixth
#: roots of unity through its log(-z)^2 term
_U2_DIRECT = 1.25


def _normalize(z: complex) -> complex:
    """Coerce to complex and flush -0.0 imaginary parts to +0.0 so that
    real arguments consistently use the arg = pi side of the cuts."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(z.real, 0.0)
    return z


def principal_log(z: complex) -> complex:
    """Principal logarithm, imaginary part in (-pi, pi].  Rejects z = 0."""
    if z.__class__ is not complex or not z.imag:
        z = _normalize(z)
        if z == 0:
            raise DomainError("logarithm of zero")
    return cmath.log(z)


def slot_values(
    params: Iterable[ExtendedParam],
) -> list[tuple[complex, complex, complex]]:
    """Each parameter's flattening (w0, w1, w2) by the map above, as the
    plain triple ``pass_rows`` reads; w2 = -w0 - w1, so the sum is 0."""
    out = []
    for param in params:
        z = param.z if param.cut_side is None else param.numeric_z()
        w0 = principal_log(z) + _PI_I * param.p
        w1 = -principal_log(1 - z) + _PI_I * param.q
        out.append((w0, w1, -w0 - w1))
    return out


def _dilog(z: complex, log_z: complex | None = None,
           log_1mz: complex | None = None) -> complex:
    """Li2 of a normalized z off the cut; a caller that has log z and
    log(1-z) passes both."""
    if log_1mz is None:
        log_1mz = cmath.log(1 - z)
    if log_1mz.real * log_1mz.real + log_1mz.imag * log_1mz.imag <= _U2_DIRECT:
        u, sign, rest = -log_1mz, 1.0, 0.0
    elif log_1mz.real <= 0.0:
        # |1-z| <= 1: Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        if log_z is None:
            log_z = cmath.log(z)
        u, sign, rest = -log_z, -1.0, PI_SQUARED / 6.0 - log_z * log_1mz
    else:
        # |z| > 1: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        log_mz = cmath.log(-z)
        u, sign = -cmath.log(1 - 1 / z), -1.0
        rest = -PI_SQUARED / 6.0 - 0.5 * log_mz * log_mz
    u2 = u * u
    tail = _B3 + u2 * (_B5 + u2 * (_B7 + u2 * (_B9 + u2 * (_B11 + u2 * (
        _B13 + u2 * (_B15 + u2 * (_B17 + u2 * (_B19 + u2 * _B21))))))))
    return sign * u * (1.0 + u * (-0.25 + u * tail)) + rest


def _rogers_logs(z: complex) -> tuple[complex, complex, complex]:
    """(R(z), log z, log(1-z)), each logarithm computed once."""
    if z.__class__ is not complex or not z.imag:
        z = _normalize(z)
        if z.imag == 0.0 and (z.real <= 0.0 or z.real >= 1.0):
            raise DomainError("Rogers dilogarithm needs z off the cuts "
                              "(-inf, 0] and [1, inf)")
    log_z, log_1mz = cmath.log(z), cmath.log(1 - z)
    return 0.5 * log_z * log_1mz + _dilog(z, log_z, log_1mz), log_z, log_1mz


def lifted_rogers_sum(terms: dict[ExtendedParam, int]) -> complex:
    """Unreduced sum of coeff * R(z; p, q) over {generator: coeff} terms:
    one ``_rogers_logs`` per shape, and each term lifted and added on its
    own, in order, with the expression of ``cvol.bloch.lifted_rogers_raw``,
    so the sum is that of the per-term values."""
    total = 0j
    logs: dict[complex, tuple[complex, complex, complex]] = {}
    for param, coeff in terms.items():
        z = param.z if param.cut_side is None else param.numeric_z()
        if (lz := logs.get(z)) is None:
            lz = logs[z] = _rogers_logs(z)
        value, log_z, log_1mz = lz
        total += coeff * (value + _HALF_PI_I * (
            param.p * log_1mz + param.q * log_z) - _PI_SQUARED_6)
    return total


class ModPiSquared(Value):
    """A complex number modulo the real lattice modulus*Z.

    The canonical representative has real part in [0, modulus); the
    imaginary part is untouched by reduction.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: complex, modulus: float) -> None:
        v = complex(value)
        if not (math.isfinite(modulus) and cmath.isfinite(v)):
            raise DomainError(
                f"cannot reduce {v!r} modulo {modulus!r}: not finite")
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        re = v.real - modulus * math.floor(v.real / modulus)
        if re >= modulus:
            re -= modulus
        if re < 0.0:
            re += modulus
        if re == 0.0:
            re = 0.0  # flush -0.0
        self.value, self.modulus = complex(re, v.imag), modulus

    def distance_to(self, other: "ModPiSquared") -> float:
        """Distance between residue classes (lattice distance on real parts)."""
        if not math.isclose(self.modulus, other.modulus, rel_tol=1e-12):
            raise ValueError("cannot compare values with different moduli")
        d = self.value - other.value
        r = d.real % self.modulus
        return math.hypot(min(r, self.modulus - r), d.imag)

    def distance_to_zero(self) -> float:
        """``distance_to`` the class of 0, without building it."""
        r = self.value.real % self.modulus
        return math.hypot(min(r, self.modulus - r), self.value.imag)

    def is_close(self, other: "ModPiSquared", tol: float = 1e-9) -> bool:
        return self.distance_to(other) < tol


def reduce_mod(value: complex, modulus: float) -> ModPiSquared:
    """Canonical representative of ``value`` modulo the real lattice."""
    return ModPiSquared(complex(value), float(modulus))
