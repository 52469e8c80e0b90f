"""Shape parameters with branch data: points of the log-cover of C - {0,1}.

An ``ExtendedParam`` (z; p, q) is a simplex shape z together with two integer
branch indices.  For real z outside [0,1] the value sits on one of the two
cut edges and must carry a ``cut_side`` tag (+1 for z+0i, -1 for z-0i);
numeric evaluation then perturbs z off the cut by ``CUT_EPS``.

A ``Flattening`` is the equivalent log-parameter triple (w0, w1, w2) with
w0 + w1 + w2 = 0.  Conversion in both directions lives in ``cvol.geometry``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

CUT_EPS = 1e-12


def _on_cut(z: complex) -> bool:
    """True for real z on (-inf, 0) or (1, inf), the two cut rays."""
    return z.imag == 0.0 and (z.real < 0.0 or z.real > 1.0)


@dataclass(frozen=True)
class ExtendedParam:
    """A point (z; p, q) of the branched log-cover of C - {0, 1}."""

    z: complex
    p: int
    q: int
    cut_side: int | None = None

    def __post_init__(self) -> None:
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if z == 0 or z == 1:
            raise DomainError("shape parameter must avoid 0 and 1")
        if _on_cut(z):
            if self.cut_side not in (+1, -1):
                raise DomainError(
                    "real shape %r outside [0,1] needs cut_side +1 or -1" % z
                )
        elif self.cut_side is not None:
            raise DomainError("cut_side tag only allowed on the real cut rays")
        # generators are dict keys in every element, so hash once
        object.__setattr__(
            self, "_hash", hash((z, self.p, self.q, self.cut_side))
        )

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


@dataclass(frozen=True)
class Flattening:
    """Log-parameter triple (w0, w1, w2) of an ideal simplex, w0+w1+w2 = 0.

    w0 is carried by the 01/23 edges, w1 by the 12/03 edges and w2 by the
    02/13 edges of the simplex.
    """

    w0: complex
    w1: complex
    w2: complex

    def __post_init__(self) -> None:
        total = self.w0 + self.w1 + self.w2
        scale = max(1.0, abs(self.w0), abs(self.w1), abs(self.w2))
        if abs(total) > 1e-9 * scale:
            raise DomainError("flattening components must sum to zero")

    @classmethod
    def from_components(cls, w0: complex, w1: complex) -> "Flattening":
        """Build a flattening with w2 derived, so the zero-sum is exact."""
        return cls(w0, w1, -w0 - w1)

    def component(self, slot: int) -> complex:
        return (self.w0, self.w1, self.w2)[slot]
