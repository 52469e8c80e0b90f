"""Extended pre-Bloch elements and the computable homomorphisms R, nu, eps."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvol.bloch as bloch
import cvol.polylog as polylog
from cvol.bloch import (
    MODULI,
    EBElement,
    FiveTermTuple,
    chi,
    chi_hat,
    cycle_relation_check,
    epsilon_parity,
    five_point_shapes,
    five_term_instance,
    generator,
    indexed_element,
    kappa_element,
    nu_symbolic,
    r_of_element,
    super_transfer_rhs,
    transfer_instance,
)
from cvol.errors import DegenerateGeometryError, DomainError
from cvol.params import ExtendedParam
from cvol.polylog import PI_SQUARED, TWO_PI_SQUARED, principal_log, reduce_mod
from cvol.verify import (
    _cycle_folded,
    _cycle_three_term,
    _random_shape,
    homo_element,
    random_ft_plus,
    random_offsets,
    suite_five_term_nu,
    suite_five_term_rogers,
    three_equations_elements,
)
from cvol.wedge import sym, wedge

import oracles
from oracles import nu_reference, r_sum_reference

PI = math.pi


class TestExtendedParam:
    # ``indexed_element`` checks z and its tag once, on its first
    # generator, and must refuse what the constructor refuses

    def test_rejects_zero_one(self):
        for z in (0, 1):
            with pytest.raises(DomainError):
                ExtendedParam(z, 0, 0)
            with pytest.raises(DomainError):
                indexed_element(z, [(0, 0, 1), (1, 2, -1)])

    def test_cut_side_required_on_rays(self):
        for z in (-2.0, 3.0):
            with pytest.raises(DomainError):
                ExtendedParam(z, 0, 0)
            with pytest.raises(DomainError):
                indexed_element(z, [(0, 0, 1), (1, 2, -1)])
        ExtendedParam(-2.0, 0, 0, cut_side=+1)
        ExtendedParam(3.0, 0, 0, cut_side=-1)

    def test_interval_needs_no_tag(self):
        ExtendedParam(0.5, 0, 0)
        for z in (0.5, 0.3 + 0.4j):
            with pytest.raises(DomainError):
                ExtendedParam(z, 0, 0, cut_side=+1)
            with pytest.raises(DomainError):
                indexed_element(z, [(0, 0, 1), (1, 2, -1)], cut_side=-1)

    def test_hash_agrees_with_eq_across_signed_zero(self):
        for z, cut_side in ((0.5, None), (-2.0, +1), (3.0, -1)):
            plus = ExtendedParam(complex(z, 0.0), 1, 2, cut_side)
            minus = ExtendedParam(complex(z, -0.0), 1, 2, cut_side)
            plain = ExtendedParam(z, 1, 2, cut_side)
            assert plus == minus == plain
            assert hash(plus) == hash(minus) == hash(plain)
            assert {plus: 1}[minus] == 1

    def test_cut_side_tags_differ(self):
        above = ExtendedParam(-2.0, 0, 0, cut_side=+1)
        below = ExtendedParam(-2.0, 0, 0, cut_side=-1)
        assert above != below
        assert hash(above) != hash(below)
        assert len({above: 1, below: 1}) == 2

    def test_hash_follows_fields(self):
        base = ExtendedParam(0.3 + 0.4j, 1, 2)
        assert base == ExtendedParam(0.3 + 0.4j, 1, 2)
        assert hash(base) == hash(ExtendedParam(0.3 + 0.4j, 1, 2))
        for other in (ExtendedParam(0.3 + 0.4j, 2, 2),
                      ExtendedParam(0.3 + 0.4j, 1, 3),
                      ExtendedParam(0.3 - 0.4j, 1, 2)):
            assert other != base
            assert hash(other) != hash(base)

    def test_cut_perturbation(self):
        p = ExtendedParam(-2.0, 0, 0, cut_side=-1)
        assert p.numeric_z().imag < 0

    def test_branch_indices_must_be_integers(self):
        # the constructor, ``at`` and the later generators of an
        # ``indexed_element``, which only ``at`` checks, refuse alike
        base = ExtendedParam(0.3 + 0.5j, 0, 0)
        for p, q in ((0.5, 0), (0, 0.5), (2.0, 0), (0, 1.0), ("1", 0)):
            with pytest.raises(DomainError):
                ExtendedParam(0.3 + 0.5j, p, q)
            with pytest.raises(DomainError):
                base.at(p, q)
            with pytest.raises(DomainError):
                indexed_element(0.3 + 0.5j, [(0, 0, 1), (p, q, 1)])
        with pytest.raises(DomainError, match="branch indices"):
            indexed_element(0.3 + 0.5j, [(0, 0, 1), (0.5, 0, 1)])
        for param in (ExtendedParam(0.3 + 0.5j, True, -3), base.at(True, -3),
                      base.shifted(True, -3)):
            assert (type(param.p), type(param.q)) == (int, int)

    @pytest.mark.parametrize("z,cut_side", [
        (-2.0, +1), (-2.0, -1), (3.0, +1), (3.0, -1), (0.5, None),
        (complex(0.5, -0.0), None), (0.3 + 0.4j, None), (2.0 - 0.5j, None),
    ])
    def test_at_and_indexed_element_match_the_constructor(self, z, cut_side):
        indexed = ((0, 1, 1), (0, 0, -1), (2, -4, 3), (0, 1, 2), (True, 5, 1))
        expected = [(ExtendedParam(z, p, q, cut_side), c)
                    for p, q, c in indexed]
        base = ExtendedParam(z, 7, -7, cut_side)
        for (param, _), (p, q, _) in zip(expected, indexed):
            for built in (base.at(p, q), base.shifted(p - 7, q + 7)):
                assert built == param and hash(built) == hash(param)
                assert repr(built) == repr(param)
                assert repr(built.numeric_z()) == repr(param.numeric_z())
        element = indexed_element(z, indexed, cut_side=cut_side)
        reference = EBElement(expected)
        # the same generators in the same order, so R sums alike
        assert list(element.terms.items()) == list(reference.terms.items())
        assert [repr(param) for param in element.terms] == \
            [repr(param) for param in reference.terms]
        assert r_of_element(element).value == r_of_element(reference).value

    def test_shape_must_be_finite(self):
        for z in (complex("nan"), complex(float("nan"), 1.0),
                  complex("inf"), complex(0.5, float("-inf"))):
            with pytest.raises(DomainError):
                ExtendedParam(z, 0, 0)
            with pytest.raises(DomainError):
                indexed_element(z, [(0, 0, 1), (1, 2, -1)])

    def test_fractional_offset_is_not_a_five_term_instance(self):
        t = FiveTermTuple(0.4 + 0.3j, 0.2 + 0.9j, 0.5)
        with pytest.raises(DomainError):
            five_term_instance(t)


class TestFiveTerm:
    def test_membership_enforced(self):
        with pytest.raises(DegenerateGeometryError):
            FiveTermTuple(0.3 - 0.2j, 1j)  # x lower half plane
        with pytest.raises(DegenerateGeometryError):
            FiveTermTuple(2.0 + 0.2j, 1j)  # x outside the triangle

    def test_derived_indices(self):
        t = FiveTermTuple(0.3 + 0.2j, 1j, p0=1, p1=0, q0=0, q1=2, q2=-1)
        assert t.indices() == [(1, 0), (0, 2), (-1, -1), (1, -3), (2, -4)]

    def test_rogers_sum_vanishes_zero_offsets(self):
        t = FiveTermTuple(0.3 + 0.2j, 1j)
        value = r_of_element(five_term_instance(t))
        assert value.distance_to_zero() < 1e-12

    def test_rogers_sum_vanishes_random(self):
        rng = random.Random(20)
        for _ in range(200):
            x, y = random_ft_plus(rng)
            element = five_term_instance(FiveTermTuple(x, y, *random_offsets(rng)))
            assert r_of_element(element).distance_to_zero() < 1e-9

    def test_nu_vanishes_exactly(self):
        rng = random.Random(21)
        for _ in range(200):
            x, y = random_ft_plus(rng)
            element = five_term_instance(FiveTermTuple(x, y, *random_offsets(rng)))
            assert nu_symbolic(element, (x, y)).is_zero()

    def test_epsilon_vanishes(self):
        rng = random.Random(22)
        for _ in range(100):
            x, y = random_ft_plus(rng)
            element = five_term_instance(FiveTermTuple(x, y, *random_offsets(rng)))
            assert epsilon_parity(element) == 0


class TestTransfer:
    def test_degenerate_is_zero_element(self):
        assert transfer_instance(0.4 + 0.3j, 2, 1, 2, -5).is_zero()

    def test_rogers_cancels_exactly(self):
        element = transfer_instance(0.4 + 0.3j, 3, -1, -2, 4)
        assert r_of_element(element).distance_to_zero() == pytest.approx(0.0, abs=1e-13)

    def test_nu_cancels(self):
        z = 0.4 + 0.3j
        assert nu_symbolic(transfer_instance(z, 3, -1, -2, 4), z).is_zero()


class TestChi:
    def test_rogers_value(self):
        value = r_of_element(chi(2j))
        expected = reduce_mod(0.5j * PI * (math.log(2) + 0.5j * PI), PI_SQUARED)
        assert value.is_close(expected)

    def test_nu_is_beta(self):
        z = 0.7 + 0.2j
        assert nu_symbolic(chi(z), z) == wedge(sym("log_x"), sym("pi_i"))

    def test_chi_hat_rogers(self):
        # z = 3 lies on the (1, inf) cut and needs a side tag; the tagged
        # point evaluates at z + i*1e-12
        value = r_of_element(chi_hat(3, cut_side=+1))
        expected = reduce_mod(1j * PI * principal_log(3), TWO_PI_SQUARED)
        assert value.is_close(expected, tol=1e-9)

    def test_eep_to_ep_compatibility(self):
        z = 1 + 1j
        lhs = reduce_mod(r_of_element(chi_hat(z)).value, PI_SQUARED)
        rhs = reduce_mod(r_of_element(chi(z * z)).value, PI_SQUARED)
        assert lhs.is_close(rhs)


class TestKappa:
    def test_epsilon_one(self):
        assert epsilon_parity(kappa_element(0.3 + 0.1j)) == 1

    def test_rogers_cancels(self):
        value = r_of_element(kappa_element(0.3 + 0.1j))
        assert value.distance_to_zero() < 1e-13

    def test_independence_of_base(self):
        a, b = 0.3 + 0.1j, 0.7 + 0.5j
        diff = kappa_element(a) - kappa_element(b)
        assert r_of_element(diff).distance_to_zero() < 1e-12
        assert nu_symbolic(diff, (a, b)).is_zero()

    def test_even_indices_have_zero_parity(self):
        assert epsilon_parity(generator(0.5 + 0.5j, 2, 2)) == 0


class TestSuperTransfer:
    def test_collapses_at_origin(self):
        z = 0.4 + 0.3j
        assert super_transfer_rhs(z, 0, 0) == generator(z, 0, 0)

    def test_rogers_identity(self):
        z = 0.4 + 0.3j
        element = generator(z, 3, -2) - super_transfer_rhs(z, 3, -2)
        assert r_of_element(element).distance_to_zero() < 1e-9

    def test_nu_identity(self):
        z = 0.4 + 0.3j
        element = generator(z, 3, -2) - super_transfer_rhs(z, 3, -2)
        assert nu_symbolic(element, z).is_zero()


class TestOneMinusX:
    def test_rogers_value(self):
        z = 0.25 + 0.6j
        element = generator(z, 2, -3) + generator(1 - z, 3, -2)
        expected = reduce_mod(complex(-PI_SQUARED / 6), PI_SQUARED)
        assert r_of_element(element).is_close(expected, tol=1e-9)

    def test_half_point_value(self):
        # 2 [1/2, 0, 0] has Rogers value -pi^2/6
        element = 2 * generator(0.5, 0, 0)
        expected = reduce_mod(complex(-PI_SQUARED / 6), PI_SQUARED)
        assert r_of_element(element).is_close(expected)
        assert nu_symbolic(element, 0.5).is_zero()

    def test_cut_rays_draw_branch_corrections(self, monkeypatch):
        # x and 1-x on the cut rays with opposite tags are one point seen
        # from both sides; at the untagged base point x, whose logs take
        # arg = pi, the logs of a shape tagged below its ray are m_i - 2 pi i
        original = bloch._decompose
        corrections = []
        monkeypatch.setattr(bloch, "_decompose", lambda z, cands: (
            corrections.append(r := original(z, cands)) or r))
        rng = random.Random(23)
        expected = reduce_mod(complex(-PI_SQUARED / 6), PI_SQUARED)
        with_ka = with_kb = 0
        for _ in range(300):
            x, side = _random_cut_value(rng), rng.choice((1, -1))
            p, q = _indices(rng)
            element = EBElement([(ExtendedParam(x, p, q, side), 1),
                                 (ExtendedParam(1 - x, -q, -p, -side), 1)])
            assert r_of_element(element).is_close(expected, tol=1e-9)
            corrections.clear()
            assert nu_symbolic(element, x).is_zero()
            with_ka += any(ka for _, ka, _, _ in corrections)
            with_kb += any(kb for _, _, _, kb in corrections)
        assert with_ka >= 100 and with_kb >= 100  # of 300


class TestEBElement:
    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi(2j) + chi_hat(2j)

    def test_eep_parity_enforced(self):
        with pytest.raises(DomainError):
            EBElement({ExtendedParam(2j, 1, 0): 1}, mode="eep")

    def test_zero_element_rogers(self):
        zero = EBElement({}, "ep")
        assert r_of_element(zero).distance_to_zero() == 0.0

    def test_arithmetic_cancels(self):
        g = generator(0.3 + 0.4j, 1, 2)
        assert (g - g).is_zero()
        assert (2 * g - g - g).is_zero()

    @pytest.mark.parametrize("coeff", [0.5, 2.7, -1.5, 2.0])
    def test_non_integral_coefficient_rejected(self, coeff):
        param = ExtendedParam(0.3 + 0.4j, 1, 2)
        with pytest.raises(DomainError):
            EBElement({param: coeff})
        with pytest.raises(DomainError):
            EBElement([(param, 1), (param.at(1, 3), coeff)])
        with pytest.raises(DomainError):
            indexed_element(0.3 + 0.4j, [(1, 2, 1), (1, 3, coeff)])
        with pytest.raises(DomainError):
            coeff * generator(0.3 + 0.4j, 1, 2)

    def test_int_and_bool_coefficients_accepted(self):
        param = ExtendedParam(0.3 + 0.4j, 1, 2)
        assert EBElement({param: 3}).terms == {param: 3}
        assert EBElement({param: True}).terms == {param: 1}
        assert EBElement({param: False}).is_zero()
        assert EBElement({param: 0}).is_zero()

    def test_generator_checks_eep_parity_and_mode(self):
        for p, q in ((1, 0), (0, 1), (1, 1), (-3, 2)):
            with pytest.raises(DomainError):
                generator(0.3 + 0.4j, p, q, mode="eep")
            with pytest.raises(DomainError):
                indexed_element(0.3 + 0.4j, [(0, 2, 1), (p, q, -1)], "eep")
            with pytest.raises(DomainError):
                indexed_element(-2.0, [(0, 2, 1), (p, q, -1)], "eep", +1)
        generator(0.3 + 0.4j, 2, -4, mode="eep")
        with pytest.raises(ValueError):
            generator(0.3 + 0.4j, 0, 0, mode="odd")
        with pytest.raises(DomainError):
            generator(1, 0, 0, mode="eep")

    def test_mixing_modes_rejected_by_every_operation(self):
        ep = generator(0.3 + 0.4j, 0, 0)
        eep = generator(0.3 + 0.4j, 0, 0, mode="eep")
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError):
                combine(ep, eep)
            with pytest.raises(ValueError):
                combine(eep, ep)
        with pytest.raises(ValueError):
            ep - (-eep)


#: shapes the arithmetic sequences draw from; repeats make terms collide
_SHAPES = (0.3 + 0.4j, -1.2 + 0.7j, 2.0 - 0.5j)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("gen"), st.integers(0, 2), st.integers(-2, 2),
                  st.integers(-2, 2)),
        st.tuples(st.sampled_from(("add", "sub")), st.integers(0, 40),
                  st.integers(0, 40)),
        st.tuples(st.just("neg"), st.integers(0, 40)),
        st.tuples(st.just("mul"), st.integers(0, 40), st.integers(-3, 3)),
    ),
    min_size=1,
    max_size=30,
)


def _validated_binop(a: EBElement, b: EBElement, s: int) -> EBElement:
    """a + s*b merged term by term and passed through the validating
    constructor."""
    out = dict(a.terms)
    for param, coeff in b.terms.items():
        out[param] = out.get(param, 0) + s * coeff
    return EBElement(out, a.mode)


class TestArithmeticMatchesConstructor:
    """Arithmetic skips re-validation; its results must be exactly what the
    validating constructor makes of the same combination, key order
    included."""

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(("ep", "eep")), ops=_OPS)
    def test_random_sequences(self, mode, ops):
        scale = 2 if mode == "eep" else 1
        fast = [generator(z, 0, 0, mode=mode) for z in _SHAPES]
        slow = [EBElement({ExtendedParam(z, 0, 0): 1}, mode) for z in _SHAPES]
        for op in ops:
            kind, *args = op
            if kind == "gen":
                z, p, q = _SHAPES[args[0]], scale * args[1], scale * args[2]
                f = generator(z, p, q, mode=mode)
                r = EBElement({ExtendedParam(z, p, q): 1}, mode)
            elif kind in ("add", "sub"):
                i, j = args[0] % len(fast), args[1] % len(fast)
                s = 1 if kind == "add" else -1
                f = fast[i] + fast[j] if s == 1 else fast[i] - fast[j]
                r = _validated_binop(slow[i], slow[j], s)
            elif kind == "neg":
                i = args[0] % len(fast)
                f = -fast[i]
                r = EBElement({k: -c for k, c in slow[i].terms.items()}, mode)
            else:
                i, n = args[0] % len(fast), args[1]
                f = n * fast[i]
                r = EBElement({k: n * c for k, c in slow[i].terms.items()},
                              mode)
            assert f.mode == r.mode == mode
            assert list(f.terms.items()) == list(r.terms.items())
            assert 0 not in f.terms.values()
            fast.append(f)
            slow.append(r)

    def test_builders_match_constructor(self):
        z = -1.2 + 0.7j
        for element in (chi(z), kappa_element(z), transfer_instance(z, 1, 2, 2, 1),
                        super_transfer_rhs(z, 0, 3), super_transfer_rhs(z, 2, -1),
                        five_term_instance(FiveTermTuple(0.4 + 0.3j, 0.5 + 1j,
                                                         1, 0, -1, 2, 0))):
            rebuilt = EBElement(element.terms, element.mode)
            assert list(element.terms.items()) == list(rebuilt.terms.items())
            assert 0 not in element.terms.values()
        assert transfer_instance(z, 1, 2, 1, 2).is_zero()


def _terms(e: EBElement) -> tuple:
    return e.mode, list(e.terms.items())


def _random_cut_value(rng: random.Random) -> float:
    """A real shape on one of the cut rays (-inf, 0) and (1, inf)."""
    return rng.choice((rng.uniform(-3.0, -0.1), rng.uniform(1.1, 4.0)))


class TestOneConstructor:
    """Every builder is one ``EBElement`` call on its term list; the
    elements equal the old generator chains in ``oracles``, term order
    included, since the Rogers sum adds in dict order."""

    def test_builders_match_generator_chains(self, monkeypatch):
        difference = []
        real_r = bloch.r_of_element
        monkeypatch.setattr(bloch, "r_of_element",
                            lambda e: difference.append(e) or real_r(e))
        rng = random.Random(19)
        seen = {"p == p2": 0, "q == q2": 0, "s": set(), "zero coeff": 0,
                "cut": 0, "empty": 0}
        for k in range(1000):
            z = _random_shape(rng)
            p, q, p2, q2, s = (rng.randint(-2, 2) for _ in range(5))
            seen["p == p2"] += p == p2
            seen["q == q2"] += q == q2
            seen["s"].add(s)
            cases = [
                (transfer_instance(z, p, q, p2, q2),
                 oracles.reference_transfer_instance(z, p, q, p2, q2)),
                (kappa_element(z), oracles.reference_kappa_element(z)),
                (super_transfer_rhs(z, p, q),
                 oracles.reference_super_transfer_rhs(z, p, q)),
                (generator(z, 2 * p, 2 * q, "eep"),
                 oracles.reference_generator(z, 2 * p, 2 * q, "eep")),
            ]
            seen["zero coeff"] += len(cases[2][0].terms) < 4
            for (_, e), (_, r) in zip(
                    three_equations_elements(z, p, q, p2, q2, s),
                    oracles.reference_three_equations_elements(
                        z, p, q, p2, q2, s)):
                cases.append((e, r))
            side = None
            if k % 4 == 0:
                z, side = _random_cut_value(rng), rng.choice((1, -1))
                seen["cut"] += 1
            cases += [(chi(z, side), oracles.reference_chi(z, side)),
                      (chi_hat(z, side), oracles.reference_chi_hat(z, side))]
            x, y = random_ft_plus(rng)
            offsets = random_offsets(rng)
            cases += [
                (five_term_instance(FiveTermTuple(x, y, *offsets)),
                 oracles.reference_five_term_instance(
                     FiveTermTuple(x, y, *offsets))),
                (homo_element(x, y, *offsets),
                 oracles.reference_homo_element(x, y, *offsets)),
            ]
            simplices, base = (_cycle_three_term if k % 2 else _cycle_folded)(rng)
            difference.clear()
            cycle_relation_check(simplices, base)
            cases.append((difference[0],
                          oracles.reference_cycle_difference(simplices)))
            for element, reference in cases:
                assert _terms(element) == _terms(reference)
                seen["empty"] += element.is_zero()
        assert seen["p == p2"] > 100 and seen["q == q2"] > 100
        assert {-1, 0, 1} <= seen["s"]
        assert seen["zero coeff"] > 100 and seen["cut"] == 250
        assert seen["empty"] > 100

    def test_pairs_merge_repeats_in_first_seen_order(self):
        a, b, c = (ExtendedParam(0.3 + 0.4j, i, 0) for i in range(3))
        e = EBElement([(a, 1), (b, 2), (a, -1), (c, 1), (a, 3), (b, -2)])
        assert list(e.terms.items()) == [(a, 3), (c, 1)]
        assert EBElement(iter([(a, 1), (a, 1)])).terms == {a: 2}
        assert EBElement([(a, 2), (b, 0)]) == EBElement({a: 2, b: 0})
        for empty in (None, {}, [], [(a, 1), (a, -1)]):
            assert EBElement(empty).is_zero()

    def test_constructor_refusals(self):
        odd = ExtendedParam(0.3 + 0.4j, 1, 2)
        for terms in ([(odd, 0.5)], {odd: 2.0}, [(odd, 1), (odd, 1.5)]):
            with pytest.raises(DomainError):
                EBElement(terms)
        with pytest.raises(DomainError):
            2.0 * generator(0.3 + 0.4j, 1, 2)
        # an odd index is refused in 'eep' even where its terms cancel
        for terms in ([(odd, 1)], [(odd, 1), (odd, -1)]):
            with pytest.raises(DomainError):
                EBElement(terms, "eep")
        assert EBElement({odd: 0}, "eep").is_zero()
        with pytest.raises(ValueError) as bad_mode:
            EBElement([], "odd")
        assert bad_mode.type is ValueError

    @pytest.mark.parametrize("build, reference, args", [
        (generator, oracles.reference_generator, (0.3 + 0.4j, 1, 2, "eep")),
        (generator, oracles.reference_generator, (0.3 + 0.4j, 2, 2, "odd")),
        (generator, oracles.reference_generator, (1, 0, 0, "odd")),
        (transfer_instance, oracles.reference_transfer_instance,
         (0.3 + 0.4j, 0.5, 0, 1, 1)),
        (chi, oracles.reference_chi, (-2.0,)),
        (chi_hat, oracles.reference_chi_hat, (0.3 + 0.4j, 1)),
        (super_transfer_rhs, oracles.reference_super_transfer_rhs, (1, 2, 3)),
    ])
    def test_builders_refuse_with_the_old_error_types(self, build, reference,
                                                      args):
        with pytest.raises(ValueError) as expected:
            reference(*args)
        with pytest.raises(ValueError) as got:
            build(*args)
        assert got.type is expected.type


class TestNuSymbolic:
    def test_single_generator(self):
        z = 0.37 + 0.41j
        expected = wedge(sym("log_x"), -sym("log_1mx"))
        assert nu_symbolic(generator(z, 0, 0), z) == expected

    def test_rejects_unknown_value(self):
        from cvol.errors import SymbolMatchError

        with pytest.raises(SymbolMatchError):
            nu_symbolic(generator(0.9 + 0.9j, 0, 0), 0.2 + 0.3j)

    @pytest.mark.parametrize("base_point", [
        (1, 0.5 + 1j), (0.3 + 0.2j, 0), (0.3 + 0.2j, 0.3 + 0.2j),
        (0.3 + 0.2j, 1.0), (0, 0.5 + 1j), 0, 1, (0, None), (1, None),
        (-2.0, -2.0),
    ], ids=repr)
    def test_degenerate_base_point_is_a_domain_error(self, base_point):
        # x = 0 and y = 1 used to divide by zero in a monomial quotient;
        # the base point is refused whatever the element
        for element in (generator(0.3 + 0.4j, 0, 0), EBElement(),
                        kappa_element(0.3 + 0.4j)):
            with pytest.raises(DomainError):
                nu_symbolic(element, base_point)

    def test_three_equations_through_r_and_nu(self):
        rng = random.Random(5)
        for _ in range(100):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5))
            indices = (rng.randint(-4, 4) for _ in range(5))
            for _, element in three_equations_elements(z, *indices):
                assert r_of_element(element).distance_to_zero() < 1e-9
                assert nu_symbolic(element, z).is_zero()

    def test_homo_through_r_and_nu(self):
        rng = random.Random(6)
        for _ in range(100):
            x, y = random_ft_plus(rng)
            element = homo_element(x, y, *(rng.randint(-3, 3) for _ in range(5)))
            assert r_of_element(element).distance_to_zero() < 1e-9
            assert nu_symbolic(element, (x, y)).is_zero()


def _indices(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-4, 4), rng.randint(-4, 4)


def _nu_cases(rng: random.Random):
    """(element, base point) pairs: single generators, chi, kappa
    differences, and random integer combinations over one and two points."""
    for _ in range(50):
        z = _random_shape(rng)
        yield generator(z, *_indices(rng)), z
        yield chi(z), z
        w = _random_shape(rng)
        yield kappa_element(z) - kappa_element(w), (z, w)
        terms = {}
        for _ in range(rng.randint(2, 6)):
            key = ExtendedParam(rng.choice((z, 1 - z)), *_indices(rng))
            terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
        yield EBElement(terms), z
        x, y = random_ft_plus(rng)
        terms = {}
        for _ in range(rng.randint(2, 8)):
            key = ExtendedParam(rng.choice(five_point_shapes(x, y)),
                                *_indices(rng))
            terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
        yield EBElement(terms), (x, y)
        # the elements the identity suites build, whole and with one
        # generator left out so that the image is not zero
        p, q, p2, q2, shift = (rng.randint(-4, 4) for _ in range(5))
        for _, element in three_equations_elements(z, p, q, p2, q2, shift):
            yield element, z
            yield element - generator(z, p, q), z
        yield kappa_element(z), z
        yield kappa_element(z) - generator(w, 1, 1), (z, w)
        offsets = [rng.randint(-3, 3) for _ in range(5)]
        element = homo_element(x, y, *offsets)
        yield element, (x, y)
        yield element - generator(y / x, offsets[1] - offsets[0], 0), (x, y)


def _monomial_values(x: complex, y: complex) -> list[complex]:
    return [value for value, _ in oracles._reference_candidates(x, y)[0]]


def _shared_base_cases(rng: random.Random):
    """(base point, elements) pairs, 40 elements at each base point, built
    from a pool of generators whose z and 1-z are monomials there: a
    complex x; a real x on a cut ray, every generator tagged; the ten
    monomial values of an FT+ point (x, y); the same with y real on a cut
    ray.  Shapes repeat with other indices, and some coefficient sums
    vanish."""
    for _ in range(15):
        x, cut_x = _random_shape(rng), _random_cut_value(rng)
        fx, fy = random_ft_plus(rng)
        cx, cy = _random_shape(rng), _random_cut_value(rng)
        for base, pool in (
            (x, [(x, None), (1 - x, None)]),
            (cut_x, [(v, side) for v in (cut_x, 1 - cut_x)
                     for side in (1, -1)]),
            ((fx, fy), [(v, None) for v in _monomial_values(fx, fy)]),
            ((cx, cy), [(v, None) if v.imag else (v, rng.choice((1, -1)))
                        for v in _monomial_values(cx, cy)]),
        ):
            elements = []
            for _ in range(40):
                picks = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
                terms = [(ExtendedParam(z, *_indices(rng), side),
                          rng.randint(-3, 3)) for z, side in picks]
                # the first shapes again with shifted indices and opposite
                # coefficients, so that their coefficient sums vanish
                terms += [(param.shifted(1, -2), -c)
                          for param, c in terms[:rng.randint(0, 2)]]
                elements.append(EBElement(terms))
            yield base, elements


class TestNuAgainstReference:
    def test_equals_generator_by_generator_image(self):
        nonzero = 0
        for element, base in _nu_cases(random.Random(31)):
            expected = nu_reference(element, base)
            assert nu_symbolic(element, base) == expected
            nonzero += not expected.is_zero()
        assert nonzero >= 400  # of 750; identity instances vanish

    def test_rejects_what_the_reference_rejects(self):
        from cvol.errors import SymbolMatchError

        element = generator(0.9 + 0.9j, 0, 0)
        for nu in (nu_symbolic, nu_reference):
            with pytest.raises(SymbolMatchError):
                nu(element, (0.2 + 0.3j, 0.5 + 1j))


class TestNuHomomorphism:
    """nu is additive on elements at one base point, and its refusals do
    not depend on how the generators are grouped."""

    def test_sum_negation_and_multiples(self, monkeypatch):
        original = bloch._decompose
        corrections = []
        monkeypatch.setattr(bloch, "_decompose", lambda z, cands: (
            corrections.append(r := original(z, cands)) or r))
        rng = random.Random(43)
        repeated = vanishing = 0
        for base, elements in _shared_base_cases(random.Random(42)):
            images = [nu_symbolic(e, base) for e in elements]
            for a, nu_a in zip(elements, images):
                b = rng.choice(elements)
                assert nu_symbolic(a + b, base) == nu_a + nu_symbolic(b, base)
                assert nu_symbolic(-a, base) == -nu_a
                n = rng.choice((-3, -1, 0, 2, 5))
                assert nu_symbolic(n * a, base) == n * nu_a
                sums = {}
                for param, coeff in a.terms.items():
                    sums.setdefault(param.numeric_z(), []).append(coeff)
                repeated += any(len(cs) > 1 for cs in sums.values())
                vanishing += any(sum(cs) == 0 for cs in sums.values())
        # of 2400 elements; the decompositions count every nu call
        assert repeated >= 1500 and vanishing >= 1000
        assert sum(ka != 0 for _, ka, _, _ in corrections) >= 1500
        assert sum(kb != 0 for _, _, _, kb in corrections) >= 1500

    def test_unmatched_values_are_refused_inside_any_sum(self):
        from cvol.errors import SymbolMatchError

        z = 0.3 + 0.4j
        # 5e-10 lies within the match radius of the base point 1e-12, but
        # its log is not log(1e-12) plus a multiple of pi i
        for element, base, message in (
            (generator(0.9 + 0.9j, 0, 0), z, "not a known monomial"),
            (generator(5e-10, 0, 0), 1e-12, "not an integer"),
        ):
            for whole in (element, element + chi(z) - chi(z),
                          element + transfer_instance(z, 1, 2, 3, 4),
                          3 * element):
                with pytest.raises(SymbolMatchError, match=message):
                    nu_symbolic(whole, base)
                with pytest.raises(SymbolMatchError):
                    nu_reference(whole, base)


class TestSuitesCatchFaults:
    def test_dilog_off_by_1e7_fails_five_term_rogers(self, monkeypatch):
        assert suite_five_term_rogers(20, random.Random(0), 1e-9).passed
        original = polylog._dilog
        monkeypatch.setattr(
            polylog, "_dilog", lambda *args: original(*args) + 1e-7
        )
        assert not suite_five_term_rogers(20, random.Random(0), 1e-9).passed

    def test_branch_correction_off_by_one_fails_five_term_nu(self, monkeypatch):
        assert suite_five_term_nu(20, random.Random(0), 1e-9).passed
        original = bloch._decompose

        def off_by_one(z, cands):
            i, ka, j, kb = original(z, cands)
            return [i, ka + 1, j, kb + 1]

        monkeypatch.setattr(bloch, "_decompose", off_by_one)
        assert not suite_five_term_nu(20, random.Random(0), 1e-9).passed

    def test_dropped_one_minus_z_correction_is_caught(self, monkeypatch):
        # no identity suite draws a nonzero branch correction, so no suite
        # sees this fault; the reference does, on cut-tagged generators
        cases = list(_shared_base_cases(random.Random(41)))
        assert all(nu_symbolic(e, base) == nu_reference(e, base)
                   for base, elements in cases for e in elements)
        original = bloch._decompose

        def drop_kb(z, cands):
            i, ka, j, kb = original(z, cands)
            return [i, ka, j, 0]

        monkeypatch.setattr(bloch, "_decompose", drop_kb)
        wrong = sum(nu_symbolic(e, base) != nu_reference(e, base)
                    for base, elements in cases for e in elements)
        assert wrong >= 200  # of 2400


class TestSharedShapeSum:
    """``r_of_element`` evaluates R once per distinct shape and lifts each
    term on its own; its value is bit for bit the reduced per-term sum."""

    @staticmethod
    def _assert_bit_identical(element):
        value = r_of_element(element).value
        assert value == reduce_mod(r_sum_reference(element),
                                   MODULI[element.mode]).value

    def test_seeded_identity_elements(self):
        rng = random.Random(16)
        shared = 0
        for _ in range(200):
            z, w = _random_shape(rng), _random_shape(rng)
            p, q, p2, q2, s = (rng.randint(-4, 4) for _ in range(5))
            elements = [
                transfer_instance(z, p, q, p2, q2),
                *(e for _, e in three_equations_elements(z, p, q, p2, q2, s)),
                kappa_element(z),
                kappa_element(z) - kappa_element(w),
                generator(z, p, q) - super_transfer_rhs(z, p, q),
                chi_hat(z),
            ]
            for element in elements:
                shapes = {param.numeric_z() for param in element.terms}
                shared += len(shapes) < len(element.terms)
                self._assert_bit_identical(element)
        assert shared > 1000

    def test_fundamental_elements(self, fig8, fig8_shapes, fig8_cover3,
                                  fig8_cover3_shapes):
        from cvol.flattening import fundamental_element, solve_flattenings

        for tri, shapes in ((fig8, fig8_shapes),
                            (fig8_cover3, fig8_cover3_shapes)):
            element = fundamental_element(tri, solve_flattenings(tri, shapes))
            self._assert_bit_identical(element)
