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

is a bijection onto zero-sum log-parameter triples, inverted by
``cvol.bloch.unflatten``; ``slot_values`` gives the triples in the
per-tetrahedron form that ``cvol.geometry.pass_rows`` sums.

This is what ``cvol`` runs; ``dilog``, ``rogers``, ``bloch_wigner`` and the
other functions of one value live in ``cvol.bloch``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from .errors import DomainError
from .params import ExtendedParam, Flattening, Value

PI = math.pi
PI_SQUARED = math.pi * math.pi
TWO_PI_SQUARED = 2.0 * math.pi * math.pi
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
    z = _normalize(z)
    if z == 0:
        raise DomainError("logarithm of zero")
    return cmath.log(z)


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


def _reject_rogers_cuts(z: complex) -> complex:
    z = _normalize(z)
    if z.imag == 0.0 and (z.real <= 0.0 or z.real >= 1.0):
        raise DomainError(
            "Rogers dilogarithm needs z off the cuts (-inf, 0] and [1, inf)"
        )
    return z


def _rogers_logs(z: complex) -> tuple[complex, complex, complex]:
    """(R(z), log z, log(1-z)), each logarithm computed once."""
    z = _reject_rogers_cuts(z)
    log_z, log_1mz = cmath.log(z), cmath.log(1 - z)
    return 0.5 * log_z * log_1mz + _dilog(z, log_z, log_1mz), log_z, log_1mz


def lift_rogers_logs(logs: tuple[complex, complex, complex], p: int,
                     q: int) -> complex:
    """R(z; p, q) from ``_rogers_logs(z)``, which terms sharing z share."""
    value, log_z, log_1mz = logs
    correction = 0.5j * PI * (p * log_1mz + q * log_z)
    return value + correction - PI_SQUARED / 6.0


def lifted_rogers_sum(terms: dict[ExtendedParam, int]) -> complex:
    """Unreduced sum of coeff * R(z; p, q) over {generator: coeff} terms:
    one ``_rogers_logs`` per shape, and each term lifted and added on its
    own, in order, so the sum is that of the per-term ``lifted_rogers_raw``."""
    total = 0j
    logs: dict[complex, tuple[complex, complex, complex]] = {}
    for param, coeff in terms.items():
        z = param.numeric_z()
        if z not in logs:
            logs[z] = _rogers_logs(z)
        total += coeff * lift_rogers_logs(logs[z], param.p, param.q)
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
