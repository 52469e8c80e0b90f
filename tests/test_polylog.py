"""Logarithm, dilogarithm, Rogers dilogarithm and its lift."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvol import polylog
from cvol.bloch import (
    bloch_wigner,
    dilog,
    lifted_rogers,
    lifted_rogers_raw,
    rogers,
)
from cvol.errors import DomainError
from cvol.params import ExtendedParam
from cvol.polylog import PI_SQUARED, TWO_PI_SQUARED, principal_log, reduce_mod

from oracles import (
    alternating_series_dilog_minus_one,
    dilog_mp,
    dilog_quadrature,
    rogers_quadrature,
)

PI = math.pi


class TestPrincipalLog:
    def test_one(self):
        assert principal_log(1) == 0

    def test_minus_one_branch(self):
        assert principal_log(-1) == pytest.approx(1j * PI)

    def test_polar(self):
        assert principal_log(2j) == pytest.approx(math.log(2) + 0.5j * PI)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            principal_log(0)

    def test_im_range_upper_cut(self):
        # negative reals land on the arg = +pi side
        assert principal_log(complex(-2.0, 0.0)).imag == pytest.approx(PI)

    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_exp_inverts(self, re, im):
        z = complex(re, im)
        if abs(z) < 1e-3:
            return
        assert cmath.exp(principal_log(z)) == pytest.approx(z, rel=1e-14)

    def test_exp_inverts_bulk(self):
        rng = random.Random(0)
        for _ in range(100_000):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) < 1e-6:
                continue
            w = cmath.exp(principal_log(z))
            assert abs(w - z) <= 1e-14 * abs(z)


class TestDilog:
    def test_zero(self):
        assert dilog(0) == 0

    def test_half_against_quadrature(self):
        # pi^2/12 - ln(2)^2/2 = 0.5822405264650125...
        expected = PI_SQUARED / 12 - math.log(2) ** 2 / 2
        assert dilog(0.5) == pytest.approx(expected, abs=1e-14)
        assert dilog(0.5) == pytest.approx(dilog_quadrature(0.5), abs=1e-11)

    def test_minus_one_alternating_series(self):
        series = alternating_series_dilog_minus_one()
        assert dilog(-1) == pytest.approx(-PI_SQUARED / 12, abs=1e-14)
        assert dilog(-1) == pytest.approx(series, abs=1e-10)

    def test_cut_rejected(self):
        for z in (1.0, 2.0, 1.5, 100.0):
            with pytest.raises(DomainError):
                dilog(z)

    @pytest.mark.parametrize(
        "z",
        [
            0.3 + 0.4j,
            -0.8 + 0.1j,
            cmath.exp(1j * PI / 3),
            cmath.exp(-1j * PI / 3),
            1.2 + 0.7j,
            -3.0 + 2.0j,
            0.95 + 0.05j,
            4.0 - 5.0j,
            0.5 - 0.5j,
        ],
    )
    def test_against_quadrature(self, z):
        assert dilog(z) == pytest.approx(dilog_quadrature(z), abs=5e-11)

    def test_inversion_identity(self):
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2 for |z| > 1 off the cuts
        rng = random.Random(1)
        for _ in range(1000):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z) <= 1.05 or (z.imag == 0 and z.real > 0):
                continue
            lhs = dilog(z) + dilog(1 / z)
            rhs = -PI_SQUARED / 6 - 0.5 * principal_log(-z) ** 2
            assert abs(lhs - rhs) < 1e-11


def _accuracy_points(rng: random.Random) -> list[complex]:
    """10^4 + 2 points: a box around all four regions of the kernel, the
    neighbourhoods of 0, 1 and the sixth roots of unity, the unit circle and
    the circle |1-z| = 1 where the regions meet, |z| up to 10^6, both sides
    of the negative real axis and the real segment (-3, 1)."""
    def polar(r):
        return cmath.rect(r, rng.uniform(-PI, PI))

    def side(x):
        return complex(x, rng.choice((-1, 1)) * 10 ** rng.uniform(-20, -10) * abs(x))

    draws = [
        lambda: complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
        lambda: polar(10 ** rng.uniform(-15, -1)),
        lambda: 1 + polar(10 ** rng.uniform(-15, -1)),
        lambda: cmath.exp(1j * rng.choice((PI, -PI)) / 3)
        + polar(10 ** rng.uniform(-15, -2)),
        lambda: polar(1.0),
        lambda: polar(1 + rng.uniform(-1e-3, 1e-3)),
        lambda: 1 + polar(1 + rng.uniform(-1e-3, 1e-3)),
        lambda: polar(10 ** rng.uniform(0.3, 6)),
        lambda: side(-(10 ** rng.uniform(-3, 6))),
        lambda: complex(rng.uniform(-3, 1), 0.0),
    ]
    points = [cmath.exp(1j * PI / 3), cmath.exp(-1j * PI / 3)]
    for draw in draws:
        points += [draw() for _ in range(1000)]
    return points


def _region(z: complex) -> str:
    """The four parts of the plane that the standard map tells apart."""
    if abs(z) <= 1:
        return "|z| <= 1, Re z <= 1/2" if z.real <= 0.5 else "|1-z| <= 1"
    if abs(1 - z) <= 1:
        return "|1-z| <= 1"
    return "|z| > 1, Re z <= 1/2" if z.real <= 0.5 else "|z|, |1-z| > 1"


class TestDilogAccuracy:
    def test_coefficients_are_bernoulli(self):
        # B_2k / (2k+1)! for k = 1..10 from the exact recurrence
        # sum_{j<=m} C(m+1, j) B_j = 0
        bern = [Fraction(1)]
        for m in range(1, 21):
            bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m))
                        / (m + 1))
        expected = tuple(
            float(bern[2 * k] / math.factorial(2 * k + 1)) for k in range(1, 11)
        )
        assert polylog._LI2_COEFFS == expected

    def test_reference_matches_mpmath_polylog(self):
        rng = random.Random(41)
        points = _accuracy_points(rng)
        sample = points[:2] + [points[2 + 1000 * k + j]
                               for k in range(10) for j in range(3)]
        with mpmath.workprec(80):
            for z in sample:
                exact = mpmath.polylog(2, z)
                assert abs(dilog_mp(z) - exact) <= 1e-19 * max(1, abs(exact))

    def test_max_error_within_four_ulps(self):
        points = _accuracy_points(random.Random(41))
        assert len(points) >= 10_000
        regions = [_region(z) for z in points]
        assert all(regions.count(r) >= 500 for r in set(regions))
        assert len(set(regions)) == 4
        worst = 0.0
        for z in points:
            exact = dilog_mp(z)
            worst = max(worst, abs(exact - dilog(z)) / max(1, abs(exact)))
        assert worst <= 4 * 2.0 ** -52


class TestRogers:
    def test_half(self):
        assert rogers(0.5) == pytest.approx(PI_SQUARED / 12, abs=1e-14)
        assert rogers(0.5) == pytest.approx(rogers_quadrature(0.5), abs=1e-11)

    def test_vanishes_at_zero_limit(self):
        assert abs(rogers(1e-8)) < 1e-6

    def test_euler_reflection(self):
        # R(z) + R(1-z) = pi^2/6, checked against the quadrature oracle
        z = 0.3
        total = rogers(z) + rogers(1 - z)
        assert total == pytest.approx(PI_SQUARED / 6, abs=1e-13)
        oracle = rogers_quadrature(z) + rogers_quadrature(1 - z)
        assert total == pytest.approx(oracle, abs=1e-10)

    def test_cuts_rejected(self):
        for z in (0.0, -1.0, 1.0, 2.0):
            with pytest.raises(DomainError):
                rogers(z)


class TestLiftedRogers:
    def test_half_zero_indices(self):
        value = lifted_rogers(ExtendedParam(0.5, 0, 0))
        expected = reduce_mod(complex(-PI_SQUARED / 12), PI_SQUARED)
        assert value.is_close(expected)

    def test_index_correction_is_linear(self):
        z = 0.3 + 0.4j
        p, q = 2, -1
        difference = lifted_rogers_raw(z, p, q) - lifted_rogers_raw(z, 0, 0)
        expected = 0.5j * PI * (p * principal_log(1 - z) + q * principal_log(z))
        assert difference == pytest.approx(expected, abs=1e-13)

    def test_eep_requires_even(self):
        with pytest.raises(DomainError):
            lifted_rogers(ExtendedParam(0.5j + 0.3, 1, 0), mode="eep")
        lifted_rogers(ExtendedParam(0.5j + 0.3, 2, -2), mode="eep")

    def test_monodromy_relation(self):
        # continuing around 0 adds pi*i*log(1-z):
        # lifted_rogers(z; p+2, q) - lifted_rogers(z; p, q) = pi*i*log(1-z)
        z = 0.3 + 0.25j
        for p, q in [(0, 0), (1, -2), (-3, 4)]:
            diff = lifted_rogers_raw(z, p + 2, q) - lifted_rogers_raw(z, p, q)
            assert diff == pytest.approx(1j * PI * principal_log(1 - z), abs=1e-12)

    def test_monodromy_by_numeric_continuation(self):
        # integrate d rogers along an anticlockwise loop around 0 with the
        # log z branch continued; the value changes by pi*i*log(1-z0)
        r0 = 0.3
        z0 = complex(r0, 0.0)
        n = 20000
        total = 0j
        for k in range(n):
            t0 = 2 * PI * k / n
            t1 = 2 * PI * (k + 1) / n
            tm = 0.5 * (t0 + t1)
            for t, weight in ((t0, 1.0), (tm, 4.0), (t1, 1.0)):
                z = r0 * cmath.exp(1j * t)
                log_z_continued = math.log(r0) + 1j * t
                derivative = (
                    -0.5 * principal_log(1 - z) / z
                    - 0.5 * log_z_continued / (1 - z)
                )
                dz = 1j * z
                total += weight * derivative * dz * (t1 - t0) / 6.0
        expected = 1j * PI * principal_log(1 - z0)
        assert total == pytest.approx(expected, abs=1e-9)


class TestBlochWigner:
    def test_real_arguments_vanish(self):
        assert bloch_wigner(0.7) == 0.0
        assert bloch_wigner(-3.2) == 0.0
        assert bloch_wigner(42.0) == 0.0

    def test_regular_tetrahedron_value(self):
        # Im Li2(e^{i pi/3}) by series evaluation (mpmath clsin); the
        # correction term arg(1-z) log|z| vanishes on the unit circle.
        z = cmath.exp(1j * PI / 3)
        assert bloch_wigner(z) == pytest.approx(1.0149416064096536, abs=1e-12)

    def test_conjugation_antisymmetry(self):
        z = 0.2 + 0.9j
        assert bloch_wigner(z.conjugate()) == pytest.approx(-bloch_wigner(z), abs=1e-14)

    def test_rejects_zero_one(self):
        for z in (0, 1):
            with pytest.raises(DomainError):
                bloch_wigner(z)


class TestModPiSquared:
    def test_canonicalization(self):
        value = reduce_mod(complex(PI_SQUARED + 1.0), PI_SQUARED)
        assert value.value.real == pytest.approx(1.0)

    def test_negative_representative(self):
        value = reduce_mod(complex(-PI_SQUARED / 12), PI_SQUARED)
        assert value.value.real == pytest.approx(11 * PI_SQUARED / 12)

    def test_reduction_idempotent(self):
        value = reduce_mod(complex(5.3, -2.0), PI_SQUARED)
        again = reduce_mod(value.value, PI_SQUARED)
        assert value == again

    def test_lattice_distance_equality(self):
        a = reduce_mod(0j, PI_SQUARED)
        b = reduce_mod(complex(PI_SQUARED * 1e-15), PI_SQUARED)
        assert a.is_close(b, tol=1e-9)

    def test_two_pi_squared_modulus(self):
        value = reduce_mod(complex(TWO_PI_SQUARED + 0.5, 1.0), TWO_PI_SQUARED)
        assert value.value == pytest.approx(complex(0.5, 1.0))

    @pytest.mark.parametrize(
        "value, modulus",
        [(complex(math.inf, 0.0), PI_SQUARED), (math.nan, PI_SQUARED),
         (1.0, math.nan), (complex(0.0, math.nan), PI_SQUARED)],
        ids=["inf", "nan", "nan-modulus", "nan-imag"],
    )
    def test_non_finite_rejected(self, value, modulus):
        # a NaN imaginary part would give a NaN distance to zero, which no
        # tolerance comparison catches
        with pytest.raises(DomainError, match="not finite"):
            reduce_mod(value, modulus)

    def test_mismatched_moduli_rejected(self):
        a = reduce_mod(0j, PI_SQUARED)
        b = reduce_mod(0j, TWO_PI_SQUARED)
        with pytest.raises(ValueError):
            a.distance_to(b)
