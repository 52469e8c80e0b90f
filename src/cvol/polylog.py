"""Branch-correct logarithms, the dilogarithm, and the Rogers dilogarithm.

All functions use the principal branch with arg in (-pi, pi].  The central
object is the lifted Rogers function

    R(z; p, q) = rogers(z) + (pi*i/2) * (p*log(1-z) + q*log(z)) - pi^2/6,

which is well defined modulo pi^2 (modulo 2*pi^2 when p and q are even).
Values modulo a real lattice pi^2*Z or 2*pi^2*Z are wrapped in
``ModPiSquared``.

``bloch_wigner`` is the classical two-variable volume function
D(z) = Im Li2(z) + arg(1-z) * log|z|; it serves as an independent oracle for
hyperbolic volumes throughout the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .params import ExtendedParam

PI = math.pi
PI_SQUARED = math.pi * math.pi
TWO_PI_SQUARED = 2.0 * math.pi * math.pi

_SERIES_MAX_TERMS = 500


@functools.cache
def _bernoulli_floats(n: int) -> tuple[float, ...]:
    """First n Bernoulli numbers B_0 .. B_{n-1} (B_1 = -1/2 convention),
    built on first use so that importing the package does not pay for the
    exact arithmetic."""
    frs: list[Fraction] = []
    for m in range(n):
        b = Fraction(1) if m == 0 else Fraction(0)
        if m > 0:
            total = Fraction(0)
            for k in range(m):
                total += Fraction(math.comb(m + 1, k)) * frs[k]
            b = -total / (m + 1)
        frs.append(b)
    return tuple(float(b) for b in frs)


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


def _reject_dilog_cut(z: complex) -> complex:
    z = _normalize(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError("dilogarithm is not defined on the cut [1, inf)")
    return z


def _li2_maclaurin(z: complex) -> complex:
    total = 0j
    term = z
    k = 1
    while k < _SERIES_MAX_TERMS:
        add = term / (k * k)
        total += add
        if abs(add) < 1e-18 * max(1e-300, abs(total)) or add == 0:
            break
        term *= z
        k += 1
    return total


def _li2_log_series(z: complex) -> complex:
    """Expansion of Li2 in u = -log(1-z); converges for |u| < 2*pi."""
    u = -cmath.log(1 - z)
    total = 0j
    upow = u
    for k, bk in enumerate(_bernoulli_floats(80)):
        if bk != 0.0:
            add = bk * upow / math.factorial(k + 1)
            total += add
            if k > 2 and abs(add) < 1e-18 * max(1e-300, abs(total)):
                break
        upow *= u
    return total


def dilog(z: complex) -> complex:
    """Li2(z) = -integral_0^z log(1-t)/t dt on the principal branch.

    The cut is [1, inf).  Accuracy is ~1e-14 relative in double precision:
    Maclaurin series for |z| <= 1/2, inversion for |z| >= 2, reflection
    near 1, and the log series in -log(1-z) on the remaining annulus
    (where inversion/reflection alone cannot shrink the argument, e.g. at
    the sixth roots of unity).
    """
    z = _reject_dilog_cut(z)
    return _dilog(z)


def _dilog(z: complex) -> complex:
    az = abs(z)
    if az <= 0.5:
        return _li2_maclaurin(z)
    if az >= 2.0:
        # Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        lz = cmath.log(_normalize(-z))
        return -_dilog(1.0 / z) - PI_SQUARED / 6.0 - 0.5 * lz * lz
    if abs(1 - z) <= 0.5:
        # Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        w = _normalize(1 - z)
        correction = cmath.log(z) * cmath.log(w) if w != 0 else 0j
        return PI_SQUARED / 6.0 - correction - _dilog(w)
    return _li2_log_series(z)


def _reject_rogers_cuts(z: complex) -> complex:
    z = _normalize(z)
    if z.imag == 0.0 and (z.real <= 0.0 or z.real >= 1.0):
        raise DomainError(
            "Rogers dilogarithm needs z off the cuts (-inf, 0] and [1, inf)"
        )
    return z


def rogers(z: complex) -> complex:
    """Rogers dilogarithm R(z) = log(z) log(1-z) / 2 + Li2(z).

    Defined for z off both cuts; R(1/2) = pi^2 / 12.
    """
    z = _reject_rogers_cuts(z)
    return 0.5 * principal_log(z) * principal_log(1 - z) + _dilog(z)


def lifted_rogers_raw(z: complex, p: int, q: int) -> complex:
    """Unreduced value of R(z; p, q) as a plain complex number."""
    z = _reject_rogers_cuts(z)
    correction = 0.5j * PI * (p * principal_log(1 - z) + q * principal_log(z))
    return rogers(z) + correction - PI_SQUARED / 6.0


def lifted_rogers(param: ExtendedParam, mode: str = "ep") -> "ModPiSquared":
    """R(z; p, q) reduced modulo pi^2 (mode 'ep') or 2*pi^2 (mode 'eep').

    In 'eep' mode both branch indices must be even.
    """
    modulus = _mode_modulus(mode)
    if mode == "eep" and (param.p % 2 or param.q % 2):
        raise DomainError("eep mode requires even branch indices")
    return reduce_mod(lifted_rogers_raw(param.numeric_z(), param.p, param.q), modulus)


def _mode_modulus(mode: str) -> float:
    if mode == "ep":
        return PI_SQUARED
    if mode == "eep":
        return TWO_PI_SQUARED
    raise ValueError("mode must be 'ep' or 'eep'")


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


@dataclass(frozen=True)
class ModPiSquared:
    """A complex number modulo the real lattice modulus*Z.

    The canonical representative has real part in [0, modulus); the
    imaginary part is untouched by reduction.
    """

    value: complex
    modulus: float

    def __post_init__(self) -> None:
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        v = complex(self.value)
        re = v.real - self.modulus * math.floor(v.real / self.modulus)
        if re >= self.modulus:
            re -= self.modulus
        if re < 0.0:
            re += self.modulus
        if re == 0.0:
            re = 0.0  # flush -0.0
        object.__setattr__(self, "value", complex(re, v.imag))

    def distance_to(self, other: "ModPiSquared") -> float:
        """Distance between residue classes (lattice distance on real parts)."""
        if not math.isclose(self.modulus, other.modulus, rel_tol=1e-12):
            raise ValueError("cannot compare values with different moduli")
        d = self.value - other.value
        r = d.real % self.modulus
        return math.hypot(min(r, self.modulus - r), d.imag)

    def distance_to_zero(self) -> float:
        return self.distance_to(ModPiSquared(0j, self.modulus))

    def is_close(self, other: "ModPiSquared", tol: float = 1e-9) -> bool:
        return self.distance_to(other) < tol


def reduce_mod(value: complex, modulus: float) -> ModPiSquared:
    """Canonical representative of ``value`` modulo the real lattice."""
    return ModPiSquared(complex(value), float(modulus))
