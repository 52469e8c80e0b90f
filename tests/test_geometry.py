"""Cross-ratios, flattenings, and five-point configurations."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvol.bloch import (
    Flattening,
    derived_indices,
    five_point_edge_conditions,
    five_point_edge_rows,
    five_point_shapes,
    in_ft_plus,
    in_lift_index_family,
    flatten,
    lift_index_basis,
    unflatten,
)
from cvol.errors import DegenerateGeometryError, NonIntegralError
from cvol.geometry import IdealSimplexShape, pass_rows
from cvol.intlinalg import lattice_equal, solve_integer_system
from cvol.params import ExtendedParam
from cvol.polylog import principal_log, slot_values
from cvol.verify import random_ft_plus

from oracles import (
    INF,
    cross_ratio,
    edge_parameter,
    random_terms,
    reference_pass_rows,
)

PI = math.pi


def mobius(z, a, b, c, d):
    if cmath.isinf(complex(z) if not isinstance(z, complex) else z):
        return a / c if c != 0 else INF
    num, den = a * z + b, c * z + d
    if den == 0:
        return INF
    return num / den


class TestCrossRatio:
    def test_normalized_triple(self):
        assert cross_ratio(0, INF, 1, 2) == pytest.approx(2)

    def test_infinity_positions(self):
        # [1 : 0 : inf : 2] by limit rules
        value = cross_ratio(1, 0, INF, 2)
        assert value not in (0, 1)
        assert value == pytest.approx((2 - 1) / (2 - 0))

    def test_moebius_invariance(self):
        rng = random.Random(3)
        pts = (0, INF, 1, 2)
        for _ in range(20):
            a, b, c, d = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                          for _ in range(4))
            if abs(a * d - b * c) < 1e-3:
                continue
            images = [mobius(z, a, b, c, d) for z in pts]
            assert cross_ratio(*images) == pytest.approx(cross_ratio(*pts), rel=1e-9)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            cross_ratio(0, 0, 1, 2)
        with pytest.raises(DegenerateGeometryError):
            cross_ratio(INF, INF, 1, 2)


class TestShape:
    def test_product_minus_one(self):
        shape = IdealSimplexShape(0.3 + 0.8j)
        product = shape.z * shape.z_prime * shape.z_double_prime
        assert product == pytest.approx(-1)

    def test_log_sum_sign(self):
        for z in (0.3 + 0.8j, 0.3 - 0.8j):
            shape = IdealSimplexShape(z)
            total = sum(
                cmath.log(shape.parameter(k)) for k in range(3)
            )
            expected = 1j * PI * (1 if z.imag > 0 else -1)
            assert total == pytest.approx(expected)

    def test_edge_assignment(self):
        shape = IdealSimplexShape(0.4 + 0.5j)
        assert edge_parameter(shape, (0, 1)) == shape.z
        assert edge_parameter(shape, (2, 3)) == shape.z
        assert edge_parameter(shape, (1, 3)) == shape.z_double_prime
        assert edge_parameter(shape, (1, 2)) == shape.z_prime
        assert edge_parameter(shape, (0, 3)) == shape.z_prime
        assert edge_parameter(shape, (0, 2)) == shape.z_double_prime


def _params_close(a, b, tol=1e-12):
    return (
        abs(a.z - b.z) <= tol * max(1.0, abs(b.z))
        and (a.p, a.q, a.cut_side) == (b.p, b.q, b.cut_side)
    )


class TestFlattenUnflatten:
    def test_half(self):
        w = flatten(ExtendedParam(0.5, 0, 0))
        assert w.w0 == pytest.approx(-math.log(2))
        assert w.w1 == pytest.approx(math.log(2))
        assert w.w2 == pytest.approx(0)

    def test_regular_shape(self):
        z = cmath.exp(1j * PI / 3)
        w = flatten(ExtendedParam(z, 0, 0))
        assert w.w0 == pytest.approx(1j * PI / 3)
        assert w.w1 == pytest.approx(1j * PI / 3)
        assert w.w2 == pytest.approx(-2j * PI / 3)

    def test_zero_sum_exact(self):
        w = flatten(ExtendedParam(0.37 + 0.21j, 5, -7))
        assert w.w0 + w.w1 + w.w2 == 0

    def test_round_trip(self):
        param = ExtendedParam(0.3 + 0.4j, 2, -3)
        assert _params_close(unflatten(flatten(param)), param)

    @pytest.mark.parametrize("kind", ["random", "cut", "eep", "real"])
    def test_slot_values_are_the_flatten_map(self, kind):
        # bit for bit, signed zeros included, the map of the module
        # docstring: w0 = log z + p pi i, w1 = -log(1-z) + q pi i and
        # w2 = -w0 - w1, with log the principal log of the numeric z
        rng = random.Random(kind)
        params = []
        for _ in range(200):
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if kind == "cut":
                z = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 4.0) + 1.0
                params.append(ExtendedParam(z, p, q, rng.choice((1, -1))))
            elif kind == "real":
                z = complex(rng.uniform(0.01, 0.99), rng.choice((0.0, -0.0)))
                params.append(ExtendedParam(z, p, q))
            else:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if kind == "eep":
                    p, q = 2 * p, 2 * q
                params.append(ExtendedParam(z, p, q))
        expected = []
        for param in params:
            z = param.numeric_z()
            w0 = principal_log(z) + 1j * math.pi * param.p
            w1 = -principal_log(1 - z) + 1j * math.pi * param.q
            expected.append((w0, w1, -w0 - w1))
        values = slot_values(iter(params))
        assert repr(values) == repr(expected)
        flats = [flatten(param) for param in params]
        assert repr([(f.w0, f.w1, f.w2) for f in flats]) == repr(expected)

    def test_unflatten_branch_shift(self):
        w = Flattening(1j * PI / 3 + 2j * PI, 1j * PI / 3, -2j * PI / 3 - 2j * PI)
        param = unflatten(w)
        assert param.z == pytest.approx(cmath.exp(1j * PI / 3))
        assert (param.p, param.q) == (2, 0)

    def test_round_trip_bulk(self):
        rng = random.Random(9)
        for _ in range(1000):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 1e-2 or abs(z - 1) < 1e-2 or abs(z.imag) < 1e-6:
                continue
            param = ExtendedParam(z, rng.randint(-6, 6), rng.randint(-6, 6))
            assert _params_close(unflatten(flatten(param)), param)

    def test_invalid_flattening_rejected(self):
        w = Flattening(0.3 + 0.4j, 0.1 - 0.2j, -0.4 - 0.2j)
        with pytest.raises(NonIntegralError):
            unflatten(w)

    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(0.05, 2, allow_nan=False),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    @settings(max_examples=300)
    def test_round_trip_property(self, re, im, p, q):
        z = complex(re, im)
        if abs(z) < 1e-2 or abs(z - 1) < 1e-2:
            return
        param = ExtendedParam(z, p, q)
        assert _params_close(unflatten(flatten(param)), param)


class TestFivePoint:
    def test_shape_values(self):
        x, y = 0.3 + 0.2j, 1j
        shapes = five_point_shapes(x, y)
        assert shapes[2] == pytest.approx(1j / (0.3 + 0.2j))
        assert shapes[2] == pytest.approx(1.53846153846 + 2.30769230769j)

    def test_shape_identity(self):
        x, y = 0.3 + 0.2j, 1j
        shapes = five_point_shapes(x, y)
        assert shapes[0] * shapes[2] == pytest.approx(shapes[1])

    def test_upper_half_plane(self):
        x, y = 0.3 + 0.2j, 1j
        assert in_ft_plus(x, y)
        assert all(s.imag > 0 for s in five_point_shapes(x, y))

    def test_upper_half_plane_random(self):
        rng = random.Random(4)
        for _ in range(200):
            x, y = random_ft_plus(rng)
            assert all(s.imag > 0 for s in five_point_shapes(x, y))

    def test_degenerate_rejected(self):
        for x, y in ((0.5, 0.5), (0, 0.5j), (0.5j, 1)):
            with pytest.raises(DegenerateGeometryError):
                five_point_shapes(x, y)


class TestEdgeConditions:
    @staticmethod
    def _instance_flattenings(x, y, offsets):
        from cvol.bloch import FiveTermTuple

        t = FiveTermTuple(x, y, *offsets)
        return tuple(
            flatten(ExtendedParam(s, p, q))
            for s, (p, q) in zip(t.shapes(), t.indices())
        )

    def test_all_ten_vanish(self):
        rng = random.Random(12)
        for _ in range(50):
            x, y = random_ft_plus(rng)
            offsets = tuple(rng.randint(-3, 3) for _ in range(5))
            flats = self._instance_flattenings(x, y, offsets)
            residuals = five_point_edge_conditions(flats)
            assert len(residuals) == 10
            assert max(abs(v) for v in residuals.values()) < 1e-9

    def test_perturbed_index_breaks_one_edge(self):
        x, y = 0.3 + 0.2j, 1j
        flats = list(self._instance_flattenings(x, y, (0, 0, 0, 0, 0)))
        # bump p2 by one: shifts w0 of the third simplex by pi i
        flats[2] = Flattening.from_components(
            flats[2].w0 + 1j * PI, flats[2].w1
        )
        residuals = five_point_edge_conditions(tuple(flats))
        assert abs(residuals[(3, 4)]) == pytest.approx(PI, abs=1e-9)

    def test_paper_relation_table(self):
        rows = five_point_edge_rows()
        # coefficients in the order (p0..p4, q0..q4)
        assert rows[(3, 4)] == [1, -1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert rows[(2, 3)] == [0, 0, 0, 0, 1, 1, -1, 0, 0, 0]
        assert rows[(0, 1)] == [0, 0, 1, -1, 1, 0, 0, 0, 0, 0]
        assert rows[(1, 2)] == [1, 0, 0, 0, 0, 0, 0, 0, -1, 1]
        assert rows[(0, 4)] == [0, 0, 0, 0, 0, 0, -1, 1, -1, 0]
        assert rows[(1, 4)] == [0, 0, -1, 1, 0, 1, 0, -1, 1, 0]
        assert rows[(0, 2)] == [0, -1, 0, 1, -1, 0, 0, 0, 1, -1]
        assert rows[(1, 3)] == [-1, 0, 0, 0, -1, -1, 0, 1, 0, -1]
        assert rows[(2, 4)] == [-1, 1, 0, -1, 0, -1, 1, 0, 0, 0]
        assert rows[(0, 3)] == [0, 1, -1, 0, 0, 0, 1, -1, 0, 1]

    def test_kernel_is_index_family(self):
        rows = list(five_point_edge_rows().values())
        solution = solve_integer_system(rows, [0] * 10)
        assert solution is not None
        assert len(solution.kernel) == 5
        for vec in solution.kernel:
            assert in_lift_index_family(vec)
        basis = lift_index_basis()
        for vec in basis:
            assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows)
        assert lattice_equal(solution.kernel, basis)

    def test_derived_indices_match_definition(self):
        vec = derived_indices(1, 0, 0, 2, -1)
        assert vec == [1, 0, -1, 1, 2, 0, 2, -1, -3, -4]


class TestPassRows:
    """The sparse condition rows against the dense helper they replace."""

    def test_matches_dense_reference(self):
        rng = random.Random(18)
        seen = {"repeated tet": 0, "cancelled": 0, "weight 2": 0,
                "weights +-1": 0}
        for _ in range(600):
            tets = rng.randint(1, 4)
            terms = random_terms(rng, tets)
            values = [tuple(complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                            for _ in range(3)) for _ in range(tets)]
            rows = pass_rows(terms)
            pq, parity, parity_const, value = reference_pass_rows(
                terms, 2 * tets, values)
            assert [rows.pq.get(j, 0) for j in range(2 * tets)] == pq
            assert 0 not in rows.pq.values()
            assert rows.value(values) == value
            x = [rng.randint(-3, 3) for _ in range(2 * tets)]
            # the weighted parity parameters p, q and p+q+1 of the slots
            assert rows.parity_of(x) == sum(
                w * (x[2 * t], x[2 * t + 1], x[2 * t] + x[2 * t + 1] + 1)[s]
                for t, s, w in terms) % 2
            unit = all(abs(w) == 1 for _, _, w in terms)
            if unit:
                # the parity row is the log row mod 2: the parity of a
                # condition at a solution of its log row is fixed
                assert [a % 2 for a in parity] == [a % 2 for a in pq]
                assert rows.parity_of(x) == (
                    sum(a * b for a, b in zip(parity, x)) + parity_const) % 2
            touched = {tet for tet, _, _ in terms}
            seen["repeated tet"] += len(touched) < len(terms)
            seen["cancelled"] += any(
                parity[j] and not pq[j]
                for t in touched for j in (2 * t, 2 * t + 1))
            seen["weight 2"] += any(abs(w) == 2 for _, _, w in terms)
            seen["weights +-1"] += unit and bool(terms)
        assert min(seen.values()) > 40, seen


class TestEdgeParameterErrors:
    def test_invalid_pair_rejected(self):
        shape = IdealSimplexShape(0.4 + 0.5j)
        with pytest.raises(ValueError):
            edge_parameter(shape, (1, 1))
        with pytest.raises(ValueError):
            edge_parameter(shape, (0, 4))


class TestUnflattenCutSide:
    def test_real_shape_gets_tag(self):
        # a flattening whose shape exponentiates to a real value outside
        # [0, 1] yields a tagged parameter
        import cmath

        w0 = cmath.log(complex(-2.0, 0.0))
        w1 = -cmath.log(complex(3.0, 0.0))
        param = unflatten(Flattening.from_components(w0, w1))
        assert param.z == pytest.approx(-2.0)
        assert param.cut_side is not None
