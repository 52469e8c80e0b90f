"""Exact integer linear algebra."""

import itertools
import random

import pytest

from cvol.intlinalg import (
    _eliminate_unit_pivots,
    lattice_equal,
    matvec,
    rank,
    row_hnf,
    solve_integer_system,
    transpose,
)
from cvol.jcomplex import (
    AbelianGroup,
    _dense_smith_factors,
    gf2_rank,
    smith_invariant_factors,
)

from oracles import hnf, matmul, random_unimodular, reduce_mod_lattice


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def split_transform(m):
    """(H, U) from the row HNF of [m | I] with pivots in m's columns only."""
    cols = len(m[0])
    hu = row_hnf([list(row) + [int(i == k) for k in range(len(m))]
                  for i, row in enumerate(m)], cols)
    return [row[:cols] for row in hu], [row[cols:] for row in hu]


def det(a):
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


class TestHNF:
    def test_transform_identity(self):
        rng = random.Random(0)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            h, u = split_transform(m)
            assert matmul(u, m) == h
            assert h == row_hnf(m)
            assert det(u) in (1, -1)

    def test_echelon_shape(self):
        rng = random.Random(1)
        for _ in range(50):
            m = random_matrix(rng, 4, 5)
            h = row_hnf(m)
            pivots = []
            for row in h:
                cols = [j for j, v in enumerate(row) if v != 0]
                if cols:
                    pivots.append(cols[0])
                    assert row[cols[0]] > 0
            assert pivots == sorted(pivots)

    def test_unimodular(self):
        rng = random.Random(2)
        for _ in range(30):
            m = random_matrix(rng, 4, 4)
            _, u = split_transform(m)
            assert det(u) in (1, -1)


class TestSolve:
    def test_solution_and_kernel(self):
        rng = random.Random(3)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            x_true = [rng.randint(-4, 4) for _ in range(len(m[0]))]
            b = matvec(m, x_true)
            sol = solve_integer_system(m, b)
            assert sol is not None
            assert matvec(m, sol.particular) == b
            for vec in sol.kernel:
                assert matvec(m, vec) == [0] * len(m)
            # kernel rank matches nullity
            assert len(sol.kernel) == len(m[0]) - rank(m)

    def test_kernel_is_saturated(self):
        # a basis of a proper sublattice of the kernel has the right rank
        # too; every small integer kernel vector must be an integer
        # combination of the returned basis
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, rng.randint(1, 3), n, rng.choice([1, 2, 6]))
            sol = solve_integer_system(m, [0] * len(m))
            # n equations in the kernel coefficients; transpose([]) would
            # drop the n rows of an empty kernel
            basis_t = transpose(sol.kernel) or [[] for _ in range(n)]
            for v in itertools.product(range(-3, 4), repeat=n):
                if not any(matvec(m, v)):
                    assert solve_integer_system(basis_t, list(v)) is not None

    def test_inconsistent_detected(self):
        # 2x = 1 has no integer solution
        assert solve_integer_system([[2]], [1]) is None
        # x + y = 1, x + y = 2 inconsistent over Q already
        assert solve_integer_system([[1, 1], [1, 1]], [1, 2]) is None
        # x + y = 0, x - y = 1 has the one rational solution (1/2, -1/2)
        assert solve_integer_system([[1, 1], [1, -1]], [0, 1]) is None

    def test_reduce_mod_lattice_deterministic(self):
        basis = [[2, 0], [0, 3]]
        assert reduce_mod_lattice([5, 7], basis) == [1, 1]
        assert reduce_mod_lattice([1, 1], basis) == [1, 1]

    def test_reduce_is_congruent(self):
        rng = random.Random(4)
        for _ in range(50):
            basis = random_matrix(rng, 2, 4)
            x = [rng.randint(-9, 9) for _ in range(4)]
            red = reduce_mod_lattice(x, basis)
            # difference must be an integer combination of the basis
            diff = [a - b for a, b in zip(x, red)]
            sol = solve_integer_system(transpose(basis), diff)
            assert sol is not None


class TestCanonicalSolution:
    """The solution is canonical: the kernel is its own row HNF, the
    particular solution is any solution reduced modulo it, and neither
    depends on how the equations were written down."""

    def test_planted_solution_reduces_to_particular(self):
        rng = random.Random(21)
        for _ in range(300):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6),
                              rng.choice([1, 2, 6]))
            x0 = [rng.randint(-9, 9) for _ in range(len(m[0]))]
            sol = solve_integer_system(m, matvec(m, x0))
            assert sol.particular == reduce_mod_lattice(x0, sol.kernel)
            assert sol.kernel == hnf(sol.kernel)

    def test_unimodular_row_change_keeps_solution(self):
        rng = random.Random(22)
        for _ in range(300):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6),
                              rng.choice([1, 2, 6]))
            b = (matvec(m, [rng.randint(-5, 5) for _ in range(len(m[0]))])
                 if rng.random() < 0.7
                 else [rng.randint(-7, 7) for _ in m])
            u = random_unimodular(rng, len(m))
            assert solve_integer_system(matmul(u, m), matvec(u, b)) == \
                solve_integer_system(m, b)


class TestShapeChecks:
    """Mismatched shapes are refused instead of silently truncated."""

    def test_ragged_rows_refused(self):
        # the third unknown used to be dropped: particular [1, 1]
        with pytest.raises(ValueError):
            solve_integer_system([[2, 0], [0, 1, 5]], [2, 1])

    def test_short_b_refused(self):
        # used to raise IndexError
        with pytest.raises(ValueError):
            solve_integer_system([[1, 0], [0, 1]], [1])

    def test_long_b_refused(self):
        # used to return None, as if inconsistent
        with pytest.raises(ValueError):
            solve_integer_system([[1, 0], [0, 1]], [1, 2, 3])

    def test_basis_narrower_than_x_refused(self):
        # used to return [1, 2], losing a coordinate
        with pytest.raises(ValueError):
            reduce_mod_lattice([5, 2, 3], [[2, 0]])


class TestSmith:
    def test_diagonal_example(self):
        assert smith_invariant_factors([[2, 0], [0, 4]]) == [2, 4]

    def test_divisibility_chain(self):
        rng = random.Random(5)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            factors = smith_invariant_factors(m)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_known_presentation(self):
        # Z^2 / <(2, 0), (0, 2)> = Z/2 + Z/2
        assert smith_invariant_factors([[2, 0], [0, 2]]) == [2, 2]
        # Z^2 / <(1, 1), (1, -1)> = Z/2 presented with a unit factor
        assert smith_invariant_factors([[1, 1], [1, -1]]) == [1, 2]


def random_sparse_matrix(rng, rows, cols):
    """Mostly +-1 entries, some +-2 / +-3, and some zero rows and columns."""
    m = [[0] * cols for _ in range(rows)]
    dead_rows = {i for i in range(rows) if rng.random() < 0.15}
    dead_cols = {j for j in range(cols) if rng.random() < 0.15}
    for i in range(rows):
        for j in range(cols):
            if i in dead_rows or j in dead_cols or rng.random() > 0.3:
                continue
            m[i][j] = rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3, -3))
    return m


class TestSparseSmith:
    def test_matches_dense_oracle(self):
        rng = random.Random(21)
        for _ in range(300):
            m = random_sparse_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            factors = smith_invariant_factors(m)
            assert factors == _dense_smith_factors([list(r) for r in m])
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_sparse_rows_match_dense(self):
        # the same seeded matrices as {col: value} rows, zeros left out
        rng = random.Random(21)
        for _ in range(300):
            m = random_sparse_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            rows = [{j: v for j, v in enumerate(r) if v} for r in m]
            assert smith_invariant_factors(rows) == smith_invariant_factors(m)
        assert smith_invariant_factors([{}, {}]) == []

    def test_empty_shapes(self):
        assert smith_invariant_factors([]) == []
        for n in (1, 3):
            assert smith_invariant_factors([[] for _ in range(n)]) == []
            assert smith_invariant_factors([[0] * n]) == []

    def test_input_unchanged(self):
        m = [[1, 2, 0], [1, 0, 2], [0, 1, 1]]
        smith_invariant_factors(m)
        assert m == [[1, 2, 0], [1, 0, 2], [0, 1, 1]]

    def test_units_keep_torsion(self):
        # Z^3 / <(1, 1, 0), (1, -1, 0), (0, 0, 2)>: the unit pivots leave
        # a core whose factors are the two 2s
        assert smith_invariant_factors(
            [[1, 1, 0], [1, -1, 0], [0, 0, 2]]
        ) == [1, 2, 2]

    def test_permuted_rows_and_columns_keep_factors(self):
        # the sweep's order follows the labels; the factors must not
        rng = random.Random(22)
        for _ in range(200):
            m = random_sparse_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            expected = _dense_smith_factors([list(r) for r in m])
            row_order = rng.sample(range(len(m)), len(m))
            col_order = rng.sample(range(len(m[0])), len(m[0]))
            permuted = [[m[i][j] for j in col_order] for i in row_order]
            assert smith_invariant_factors(permuted) == expected

    def test_repeated_and_negated_rows_keep_factors(self):
        # a copy of a row, or of its negation, adds nothing to the row space
        rng = random.Random(23)
        for _ in range(200):
            m = random_sparse_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
            expected = _dense_smith_factors([list(r) for r in m])
            extra = [[sign * v for v in rng.choice(m)]
                     for sign in rng.choices((1, -1), k=rng.randint(1, 6))]
            grown = m + extra
            rng.shuffle(grown)
            assert smith_invariant_factors(grown) == expected

    def test_core_holds_distinct_rows_up_to_sign(self):
        # no entry is a unit, so every nonzero row reaches the core, where
        # the copy and the negated copy of [2, 4] are dropped
        core, units = _eliminate_unit_pivots(
            [[2, 4], [-2, -4], [2, 4], [4, 2], [0, 0]])
        assert units == 0
        assert core == [[2, 4], [4, 2]]
        assert _eliminate_unit_pivots([[2]] * 5 + [[-2]] * 5) == ([[2]], 0)


def dense_gf2_rank(m):
    """Gauss-Jordan elimination over GF(2) on dense 0/1 rows: the oracle."""
    rows = [[v & 1 for v in row] for row in m]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


class TestGF2:
    def test_rank(self):
        assert gf2_rank([[1, 0], [0, 1]]) == 2
        assert gf2_rank([[1, 1], [1, 1]]) == 1
        assert gf2_rank([[2, 4], [6, 8]]) == 0  # even entries vanish mod 2

    def test_matches_dense_oracle(self):
        rng = random.Random(22)
        for k in range(300):
            rows, cols = rng.randint(0, 10), rng.randint(0, 10)
            if k % 5 == 0:  # all entries even: rank 0
                m = [[2 * rng.randint(-4, 4) for _ in range(cols)]
                     for _ in range(rows)]
            else:
                m = random_matrix(rng, rows, cols, bound=rng.choice((1, 3)))
            expected = dense_gf2_rank(m)
            assert gf2_rank(m) == expected
            masks = [sum((v & 1) << j for j, v in enumerate(row)) for row in m]
            assert gf2_rank(masks) == expected
            assert expected == 0 or k % 5


class TestAbelianGroup:
    def test_str(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(0, (2,))) == "Z/2"
        assert str(AbelianGroup(2, (2, 4))) == "Z + Z + Z/2 + Z/4"


class TestLattice:
    def test_equal_up_to_basis_change(self):
        assert lattice_equal([[1, 0], [0, 1]], [[1, 1], [0, 1]])
        assert not lattice_equal([[2, 0], [0, 1]], [[1, 0], [0, 1]])


class TestSmithOracle:
    def test_factors_match_minor_gcds(self):
        # d_1 * ... * d_k equals the gcd of all k x k minors (independent
        # brute-force oracle for small matrices)
        import itertools
        import math
        import random

        def det(a):
            if len(a) == 1:
                return a[0][0]
            return sum(
                (-1) ** j * a[0][j]
                * det([row[:j] + row[j + 1:] for row in a[1:]])
                for j in range(len(a))
            )

        rng = random.Random(11)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
            factors = smith_invariant_factors(a)
            for k in range(1, min(m, n) + 1):
                minors = [
                    det([[a[i][j] for j in cols] for i in rows])
                    for rows in itertools.combinations(range(m), k)
                    for cols in itertools.combinations(range(n), k)
                ]
                g = 0
                for v in minors:
                    g = math.gcd(g, v)
                product = math.prod(factors[:k]) if len(factors) >= k else 0
                assert product == g

    def test_no_entry_blowup_regression(self):
        # dense 7x6 matrices used to stall the naive pivoting strategy
        import random
        import time

        rng = random.Random(42)
        start = time.perf_counter()
        for _ in range(50):
            a = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(7)]
            factors = smith_invariant_factors(a)
            for x, y in zip(factors, factors[1:]):
                assert y % x == 0
        assert time.perf_counter() - start < 5.0
