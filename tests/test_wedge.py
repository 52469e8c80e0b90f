"""Exact wedge arithmetic over the symbol basis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvol.bloch import EBElement
from cvol.errors import DomainError
from cvol.params import ExtendedParam
from cvol.wedge import SymbolVector, WedgeExpr, combine, is_zero, sym, wedge

SYMBOLS = ["log_x", "log_1mx", "log_y", "log_1my", "log_xmy", "pi_i"]
#: the keys each combination type stores: symbols, or canonical pairs
KEYS = {
    SymbolVector: SYMBOLS,
    WedgeExpr: [(s, t) for s in SYMBOLS for t in SYMBOLS if s < t],
}


def random_vector(rng: random.Random) -> SymbolVector:
    return SymbolVector(
        {s: rng.randint(-5, 5) for s in rng.sample(SYMBOLS, rng.randint(1, 4))}
    )


def test_self_wedge_vanishes():
    x = sym("log_x")
    assert is_zero(wedge(x, x))


def test_alternation_with_sum():
    a, b = sym("log_x"), sym("log_y")
    # (a + b) ^ b = a ^ b
    assert wedge(a + b, b) == wedge(a, b)


def test_expansion_example():
    # (log x + 2 pi i) ^ (-log(1-x) + pi i)
    left = sym("log_x") + sym("pi_i", 2)
    right = -sym("log_1mx") + sym("pi_i")
    result = wedge(left, right)
    expected = combine(
        [
            (-1, wedge(sym("log_x"), sym("log_1mx"))),
            (1, wedge(sym("log_x"), sym("pi_i"))),
            (2, wedge(sym("log_1mx"), sym("pi_i"))),
        ]
    )
    assert result == expected


def test_combine_cancels():
    w = wedge(sym("log_x"), sym("log_y"))
    assert is_zero(combine([(1, w), (-1, w)]))


def test_combine_accumulates():
    w = wedge(sym("log_x"), sym("log_y"))
    assert combine([(2, w), (3, w)]) == 5 * w


def test_is_zero_on_empty():
    assert is_zero(WedgeExpr())


def test_is_zero_negative():
    assert not is_zero(wedge(sym("log_x"), sym("log_y")))


def test_canonical_pair_order():
    forward = wedge(sym("log_x"), sym("pi_i"))
    backward = wedge(sym("pi_i"), sym("log_x"))
    assert forward == -1 * backward


@given(st.integers(-6, 6), st.integers(-6, 6), st.data())
@settings(max_examples=200)
def test_bilinearity(m, n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a, b, c = (random_vector(rng) for _ in range(3))
    lhs = wedge(m * a + n * b, c)
    rhs = combine([(m, wedge(a, c)), (n, wedge(b, c))])
    assert lhs == rhs


@given(st.data())
@settings(max_examples=200)
def test_antisymmetry(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a, b = random_vector(rng), random_vector(rng)
    assert is_zero(wedge(a, b) + wedge(b, a))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("new"), st.lists(
            st.tuples(st.integers(0, 14), st.integers(-2, 2)), max_size=4)),
        st.tuples(st.sampled_from(("add", "sub")), st.integers(0, 40),
                  st.integers(0, 40)),
        st.tuples(st.just("neg"), st.integers(0, 40)),
        st.tuples(st.just("mul"), st.integers(0, 40), st.integers(-3, 3)),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("cls", [SymbolVector, WedgeExpr])
@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_arithmetic_matches_constructor(cls, ops):
    """Arithmetic wraps its results unchecked; each must be exactly what
    the checking constructor makes of the merged terms, key order
    included."""
    keys = KEYS[cls]
    fast = [cls({key: 1}) for key in keys[:3]]
    slow = list(fast)
    for kind, *args in ops:
        if kind == "new":
            f = r = cls({keys[i % len(keys)]: c for i, c in args[0]})
        elif kind in ("add", "sub"):
            i, j = args[0] % len(fast), args[1] % len(fast)
            s = 1 if kind == "add" else -1
            f = fast[i] + fast[j] if s == 1 else fast[i] - fast[j]
            merged = dict(slow[i].terms)
            for key, c in slow[j].terms.items():
                merged[key] = merged.get(key, 0) + s * c
            r = cls(merged)
        elif kind == "neg":
            i = args[0] % len(fast)
            f = -fast[i]
            r = cls({key: -c for key, c in slow[i].terms.items()})
        else:
            i, n = args[0] % len(fast), args[1]
            f = n * fast[i]
            r = cls({key: n * c for key, c in slow[i].terms.items()})
        assert type(f) is cls
        assert list(f.terms.items()) == list(r.terms.items())
        assert 0 not in f.terms.values()
        assert f == r and hash(f) == hash(r)
        fast.append(f)
        slow.append(r)


@pytest.mark.parametrize("cls, key", [
    (SymbolVector, "log_x"),
    (WedgeExpr, ("log_x", "pi_i")),
    (EBElement, ExtendedParam(0.3 + 0.4j, 1, 2)),
])
@pytest.mark.parametrize("bad", [0.4, 2.5, 2.0])
def test_non_integer_coefficients_are_refused(cls, key, bad):
    with pytest.raises(DomainError):
        cls({key: bad})
    with pytest.raises(DomainError):
        bad * cls({key: 1})
