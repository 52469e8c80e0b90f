"""Shape parameters with branch data: points of the log-cover of C - {0,1}.

An ``ExtendedParam`` (z; p, q) is a simplex shape z together with two integer
branch indices.  For real z outside [0,1] the value sits on one of the two
cut edges and must carry a ``cut_side`` tag (+1 for z+0i, -1 for z-0i);
numeric evaluation then perturbs z off the cut by ``CUT_EPS``.

A ``Flattening`` is the equivalent log-parameter triple (w0, w1, w2) with
w0 + w1 + w2 = 0.  ``cvol.polylog.flatten`` converts a parameter, beside the
logarithm it needs, and ``cvol.bloch.unflatten`` converts back.
"""

from __future__ import annotations

import cmath
import operator

from .errors import DomainError

CUT_EPS = 1e-12


def _on_cut(z: complex) -> bool:
    """True for real z on (-inf, 0) or (1, inf), the two cut rays."""
    return z.imag == 0.0 and (z.real < 0.0 or z.real > 1.0)


class Value:
    """Base of the slotted value types: two instances of one class are
    equal, and hash alike, when their ``__slots__`` fields are."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ExtendedParam:
    """A point (z; p, q) of the branched log-cover of C - {0, 1}."""

    __slots__ = ("z", "p", "q", "cut_side", "_hash")

    def __init__(
        self, z: complex, p: int, q: int, cut_side: int | None = None
    ) -> None:
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError("shape parameter %r is not finite" % z)
        try:
            p, q = operator.index(p), operator.index(q)
        except TypeError:
            raise DomainError(
                "branch indices (%r, %r) are not integers" % (p, q)
            ) from None
        if z == 0 or z == 1:
            raise DomainError("shape parameter must avoid 0 and 1")
        if _on_cut(z):
            if cut_side not in (+1, -1):
                raise DomainError(
                    "real shape %r outside [0,1] needs cut_side +1 or -1" % z
                )
        elif cut_side is not None:
            raise DomainError("cut_side tag only allowed on the real cut rays")
        self.z, self.p, self.q, self.cut_side = z, p, q, cut_side
        # generators are dict keys in every element, so hash once
        self._hash = hash((z, p, q, cut_side))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.z, self.p, self.q, self.cut_side) == (
            other.z, other.p, other.q, other.cut_side)

    def __hash__(self) -> int:
        return self._hash

    def numeric_z(self) -> complex:
        """Shape value used by numeric evaluation; tagged cut values are
        perturbed by +/- i*CUT_EPS (documented approximation)."""
        if self.cut_side is not None:
            return complex(self.z.real, self.cut_side * CUT_EPS)
        return self.z

    def shifted(self, dp: int, dq: int) -> "ExtendedParam":
        return ExtendedParam(self.z, self.p + dp, self.q + dq, self.cut_side)

    def __repr__(self) -> str:
        tag = {None: "", 1: "+0i", -1: "-0i"}[self.cut_side]
        return f"({self.z!r}{tag}; {self.p}, {self.q})"


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
