"""Exact antisymmetric bilinear expressions over a finite symbol basis.

``SymbolVector`` is an integer combination of named transcendentals such as
"log_x" or "pi_i"; ``WedgeExpr`` is an integer combination of wedge products
of two symbols, stored canonically with lexicographically ordered pairs so
that antisymmetry and alternation hold exactly.  Everything is integer
arithmetic; no floating point enters this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class SymbolVector:
    """Integer linear combination of named symbols."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, int] | None = None):
        self.coeffs: dict[str, int] = {
            s: int(c) for s, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def symbol(cls, name: str, coeff: int = 1) -> "SymbolVector":
        return cls({name: coeff})

    def __add__(self, other: "SymbolVector") -> "SymbolVector":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return SymbolVector(out)

    def __sub__(self, other: "SymbolVector") -> "SymbolVector":
        return self + (-1) * other

    def __neg__(self) -> "SymbolVector":
        return (-1) * self

    def __rmul__(self, n: int) -> "SymbolVector":
        return SymbolVector({s: n * c for s, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolVector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "SymbolVector(0)"
        parts = [f"{c}*{s}" for s, c in sorted(self.coeffs.items())]
        return "SymbolVector(" + " + ".join(parts) + ")"


def sym(name: str, coeff: int = 1) -> SymbolVector:
    return SymbolVector.symbol(name, coeff)


class WedgeExpr:
    """Integer combination of wedges s ^ t of basis symbols, s < t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[str, str], int] | None = None):
        canon: dict[tuple[str, str], int] = {}
        for (s, t), c in (coeffs or {}).items():
            if s != t:
                key, c = ((s, t), c) if s < t else ((t, s), -c)
                canon[key] = canon.get(key, 0) + c
        self.coeffs = {k: v for k, v in canon.items() if v != 0}

    @classmethod
    def _trusted(cls, coeffs: dict[tuple[str, str], int]) -> "WedgeExpr":
        """Wrap ``coeffs`` as is: canonical pairs, no zero coefficient."""
        expr = object.__new__(cls)
        expr.coeffs = coeffs
        return expr

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "WedgeExpr") -> "WedgeExpr":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return WedgeExpr(out)

    def __sub__(self, other: "WedgeExpr") -> "WedgeExpr":
        return self + (-1) * other

    def __neg__(self) -> "WedgeExpr":
        return (-1) * self

    def __rmul__(self, n: int) -> "WedgeExpr":
        return WedgeExpr({k: n * c for k, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WedgeExpr) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if not self.coeffs:
            return "WedgeExpr(0)"
        parts = [f"{c}*({s}^{t})" for (s, t), c in sorted(self.coeffs.items())]
        return "WedgeExpr(" + " + ".join(parts) + ")"


def wedge(a: SymbolVector, b: SymbolVector) -> WedgeExpr:
    """Bilinear expansion of a ^ b with a ^ a = 0 and a ^ b = -(b ^ a)."""
    return WedgeExpr({(s, t): cs * ct for s, cs in a.coeffs.items()
                      for t, ct in b.coeffs.items()})


def combine(terms: Iterable[tuple[int, WedgeExpr]]) -> WedgeExpr:
    """Integer linear combination of wedge expressions, canonicalized."""
    out: dict[tuple[str, str], int] = {}
    for n, w in terms:
        for k, c in w.coeffs.items():
            out[k] = out.get(k, 0) + n * c
    return WedgeExpr(out)


def is_zero(w: WedgeExpr) -> bool:
    return w.is_zero()
