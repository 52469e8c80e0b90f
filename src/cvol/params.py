"""Shape parameters with branch data: points of the log-cover of C - {0,1}.

An ``ExtendedParam`` (z; p, q) is a simplex shape z together with two integer
branch indices.  For real z outside [0,1] the value sits on one of the two
cut edges and must carry a ``cut_side`` tag (+1 for z+0i, -1 for z-0i);
numeric evaluation then perturbs z off the cut by ``CUT_EPS``.  The
constructor checks all of it; ``at`` and ``shifted`` build the points of
other indices at the same z and tag, and check only the new indices.
``cvol.polylog.slot_values`` gives a parameter's log-parameters.
"""

from __future__ import annotations

import cmath
import operator

from .errors import DomainError

CUT_EPS = 1e-12


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
        if z.__class__ is not complex:
            z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError("shape parameter %r is not finite" % z)
        if p.__class__ is not int or q.__class__ is not int:
            try:
                p, q = operator.index(p), operator.index(q)
            except TypeError:
                raise DomainError(
                    "branch indices (%r, %r) are not integers" % (p, q)
                ) from None
        # 0, 1, or on one of the cut rays (-inf, 0) and (1, inf)
        if z.imag == 0.0 and (z.real <= 0.0 or z.real >= 1.0):
            if z.real == 0.0 or z.real == 1.0:
                raise DomainError("shape parameter must avoid 0 and 1")
            if cut_side not in (+1, -1):
                raise DomainError(
                    "real shape %r outside [0,1] needs cut_side +1 or -1" % z
                )
        elif cut_side is not None:
            raise DomainError("cut_side tag only allowed on the real cut rays")
        # generators are dict keys in every element, so hash once
        self.z, self.p, self.q, self.cut_side = key = z, p, q, cut_side
        self._hash = hash(key)

    def at(self, p: int, q: int) -> "ExtendedParam":
        """(z; p, q) at this z and cut side, which need no second check."""
        if p.__class__ is not int or q.__class__ is not int:
            return ExtendedParam(self.z, p, q, self.cut_side)
        param = object.__new__(ExtendedParam)
        param.z, param.p, param.q, param.cut_side = key = (
            self.z, p, q, self.cut_side)
        param._hash = hash(key)
        return param

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
        return self.at(self.p + dp, self.q + dq)

    def __repr__(self) -> str:
        tag = {None: "", 1: "+0i", -1: "-0i"}[self.cut_side]
        return f"({self.z!r}{tag}; {self.p}, {self.q})"
