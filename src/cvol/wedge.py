"""Exact integer combinations: the shared arithmetic and the wedge algebra.

``Combination`` is a finite integer combination of hashable keys: its
``terms`` map each key to a nonzero int.  It implements ``+``, ``-``,
negation, integer multiples, ``is_zero``, ``==`` and ``hash`` once for the
formal objects of the package: ``SymbolVector`` and ``WedgeExpr`` here, and
``cvol.bloch.EBElement``.  Coefficients and multipliers must be integers
(``_integer``): a float such as 0.4 or 2.0 is refused with ``DomainError``
rather than truncated.  Each subclass's constructor checks its input once;
arithmetic combines operands that are already valid and wraps its result as
is (``_like``), so no term is checked twice.

``SymbolVector`` is an integer combination of named transcendentals such as
"log_x" or "pi_i"; ``WedgeExpr`` is an integer combination of wedge products
of two symbols, stored canonically with lexicographically ordered pairs so
that antisymmetry and alternation hold exactly.  Everything is integer
arithmetic; no floating point enters this module.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping

from .errors import DomainError


def _integer(coeff) -> int:
    """``coeff`` as an int; a float such as 0.5 or 2.7 is refused rather
    than truncated."""
    try:
        return operator.index(coeff)
    except TypeError:
        raise DomainError(f"coefficient {coeff!r} is not an integer") from None


class Combination:
    """Finite integer combination of keys; ``terms`` holds no zero."""

    __slots__ = ("terms",)

    @classmethod
    def _trusted(cls, terms: dict) -> "Combination":
        """Wrap ``terms`` as is: valid keys, no zero coefficient."""
        combination = object.__new__(cls)
        combination.terms = terms
        return combination

    def _like(self, terms: dict) -> "Combination":
        """``terms``, wrapped as is, as a combination of this one's kind."""
        return self._trusted(terms)

    def _key(self):
        """What equality compares and the hash reads."""
        return frozenset(self.terms.items())

    def _binop(self, other: "Combination", s: int) -> "Combination":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            value = out.get(key, 0) + s * coeff
            if value:
                out[key] = value
            else:
                del out[key]
        return self._like(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, n: int):
        n = _integer(n)
        terms = {k: n * c for k, c in self.terms.items()} if n else {}
        return self._like(terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class SymbolVector(Combination):
    """Integer linear combination of named symbols."""

    __slots__ = ()

    def __init__(self, terms: Mapping[str, int] | None = None):
        checked = ((s, _integer(c)) for s, c in (terms or {}).items())
        self.terms: dict[str, int] = {s: c for s, c in checked if c}

    @classmethod
    def symbol(cls, name: str, coeff: int = 1) -> "SymbolVector":
        return cls({name: coeff})

    def __repr__(self) -> str:
        if not self.terms:
            return "SymbolVector(0)"
        parts = [f"{c}*{s}" for s, c in sorted(self.terms.items())]
        return "SymbolVector(" + " + ".join(parts) + ")"


def sym(name: str, coeff: int = 1) -> SymbolVector:
    return SymbolVector.symbol(name, coeff)


class WedgeExpr(Combination):
    """Integer combination of wedges s ^ t of basis symbols, s < t."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[str, str], int] | None = None):
        canon: dict[tuple[str, str], int] = {}
        for (s, t), c in (terms or {}).items():
            c = _integer(c)
            if s != t:
                key, c = ((s, t), c) if s < t else ((t, s), -c)
                canon[key] = canon.get(key, 0) + c
        self.terms = {k: v for k, v in canon.items() if v}

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if not self.terms:
            return "WedgeExpr(0)"
        parts = [f"{c}*({s}^{t})" for (s, t), c in sorted(self.terms.items())]
        return "WedgeExpr(" + " + ".join(parts) + ")"


def wedge(a: SymbolVector, b: SymbolVector) -> WedgeExpr:
    """Bilinear expansion of a ^ b with a ^ a = 0 and a ^ b = -(b ^ a)."""
    return WedgeExpr({(s, t): cs * ct for s, cs in a.terms.items()
                      for t, ct in b.terms.items()})


def combine(terms: Iterable[tuple[int, WedgeExpr]]) -> WedgeExpr:
    """Integer linear combination of wedge expressions, canonicalized."""
    out: dict[tuple[str, str], int] = {}
    for n, w in terms:
        for k, c in w.terms.items():
            out[k] = out.get(k, 0) + n * c
    return WedgeExpr(out)


def is_zero(w: WedgeExpr) -> bool:
    return w.is_zero()
