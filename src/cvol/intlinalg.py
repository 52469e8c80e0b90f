"""Exact linear algebra over the integers and over GF(2).

Matrices are lists of lists of Python ints, so intermediate entries can grow
without overflow.  Provides row Hermite normal form, the canonical solution
of A x = b over Z, Smith normal form invariant factors, rank over GF(2),
and a small descriptor type for finitely generated abelian groups.

The Smith form works in two steps, because the matrices of a triangulation
are very sparse and almost all their pivots are units.  A sparse pass
eliminates +-1 pivots in one sweep over the dict rows, visited breadth-first
over the rows' shared columns (Cuthill-McKee order) so that fill stays low
however the rows are labelled; the small dense core that is left, one row
per set of rows equal up to sign, is diagonalized by alternating row
Hermite forms of the matrix and of its transpose (Kannan-Bachem).  Both
steps are exact: no modular or floating-point shortcut is taken.  The Smith
form and the GF(2) rank also take sparse rows, ``{col: value}`` dicts, and
int bitmasks respectively, so a caller holding a sparse matrix never builds
the dense one.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def _copy(m: list[list[int]]) -> list[list[int]]:
    return [list(map(int, row)) for row in m]


def transpose(m: list[list[int]]) -> list[list[int]]:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def row_hnf(m: list[list[int]], limit: int | None = None) -> list[list[int]]:
    """Row-style Hermite normal form H = U * m with U unimodular.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).  Pivots are sought in the first ``limit``
    columns only (all by default); the row operations still act on whole
    rows, so for m = [a | I] with limit = width of a the result is [H | U].
    """
    h = _copy(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    pivot_row = 0
    for col in range(cols if limit is None else limit):
        if pivot_row >= rows:
            break
        # eliminate below via gcd row operations
        nonzero = [r for r in range(pivot_row, rows) if h[r][col] != 0]
        if not nonzero:
            continue
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(h[r][col]))
            r0 = nonzero[0]
            for r in nonzero[1:]:
                f = h[r][col] // h[r0][col]
                h[r] = [a - f * b for a, b in zip(h[r], h[r0])]
            # only these rows can still be nonzero; ties go by row index
            nonzero = sorted(r for r in nonzero if h[r][col] != 0)
        r0 = nonzero[0]
        if r0 != pivot_row:
            h[r0], h[pivot_row] = h[pivot_row], h[r0]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-a for a in h[pivot_row]]
        piv = h[pivot_row][col]
        for r in range(pivot_row):
            f = h[r][col] // piv
            if f:
                h[r] = [a - f * b for a, b in zip(h[r], h[pivot_row])]
        pivot_row += 1
    return h


def rank(m: list[list[int]]) -> int:
    if not m or not m[0]:
        return 0
    return sum(1 for row in row_hnf(m) if any(row))


class IntegerSolution(NamedTuple):
    """Solution of a x = b over Z: the kernel lattice's row HNF basis, and
    the solution reduced into [0, pivot) at each of its pivots."""

    particular: list[int]
    kernel: list[list[int]]


def solve_integer_system(
    a: list[list[int]], b: list[int]
) -> IntegerSolution | None:
    """Solve a x = b over Z.  Returns None when the system is inconsistent.

    The row HNF of [a^T | 0 | I] over [-b^T | 1 | 0], pivots sought in the
    first m columns, ends in rows [0 | c | u] that span {(c, u) : a u = c b}.
    The row HNF of those starts with (1, x) exactly when an integer
    solution exists; its other rows (0, k) are the kernel's HNF basis, at
    whose pivots x is already reduced into [0, pivot).
    """
    m = len(a)
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("a needs rows of one width and b one entry per row")
    if n == 0:
        return None if any(b) else IntegerSolution([], [])
    eye = [[int(i == k) for k in range(n)] for i in range(n)]
    stacked = [r + [0] + e for r, e in zip(transpose(a), eye)]
    stacked.append([-int(v) for v in b] + [1] + [0] * n)
    tail = [row[m:] for row in row_hnf(stacked, m) if not any(row[:m])]
    h = row_hnf(tail)
    if not h or h[0][0] != 1:
        return None
    x = h[0][1:]
    if matvec(a, x) != list(map(int, b)):
        return None
    return IntegerSolution(x, [row[1:] for row in h[1:]])


def smith_invariant_factors(
    m: list[list[int]] | list[dict[int, int]]
) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix, given
    as dense rows or as sparse ``{col: value}`` rows.

    First a sparse pass: one sweep over the rows in breadth-first order
    (``_eliminate_unit_pivots``) pivots on the first +-1 entry of each row
    that still has one, clears its column with row operations and drops its
    row and column.  Elimination on a unit pivot is unimodular, so SNF(M) =
    [1] + SNF(Schur complement): each such pivot contributes one factor 1.
    Of the core rows that are equal up to sign only the first is kept: a
    unimodular row operation zeroes the others.  The dense core left over is
    diagonalized by ``_dense_smith_factors``.
    """
    core, units = _eliminate_unit_pivots(m)
    return [1] * units + _dense_smith_factors(core)


def _eliminate_unit_pivots(
    m: list[list[int]] | list[dict[int, int]]
) -> tuple[list[list[int]], int]:
    """One sweep of +-1 pivots on sparse rows.

    Rows are copied into ``{col: value}`` dicts, from dense rows or from
    sparse ones, with a column -> rows index.  The rows are visited once,
    breadth-first over the row-column graph (Cuthill-McKee order): each
    search starts at the lowest-index row not yet reached, and a row queues
    the unreached rows of its columns, columns and rows in index order.
    Consecutive pivots then touch nearby rows, so fill stays low whatever
    the row labelling.  A row that still holds a +-1 entry when it is
    reached pivots on the first one, so its column is cleared from the other
    rows and the row and the column are dropped.  A row passed over that
    gains a unit entry later stays in the core, which is still exact.
    Returns the dense Schur complement (columns with a nonzero entry only,
    and one row of each set of rows equal up to sign, which a unimodular
    row operation would zero) and the number of unit pivots taken.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(m):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        entries = {j: int(v) for j, v in items if v}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)

    order: list[int] = []
    reached: set[int] = set()
    spanned: set[int] = set()  # columns whose rows are all reached
    k = 0
    for root in rows:
        if root in reached:
            continue
        reached.add(root)
        order.append(root)
        while k < len(order):  # breadth-first from root
            for j in sorted(rows[order[k]]):
                if j not in spanned:
                    spanned.add(j)
                    near = sorted(cols[j] - reached)
                    reached.update(near)
                    order += near
            k += 1

    units = 0
    for p in order:
        pivot_row = rows[p]
        q = next((j for j, v in pivot_row.items() if v == 1 or v == -1), None)
        if q is None:
            continue
        v = pivot_row[q]
        units += 1
        del rows[p]
        for j in pivot_row:
            cols[j].discard(p)
        others = cols.pop(q)
        rest = [(j, x) for j, x in pivot_row.items() if j != q]
        for i in others:
            row = rows[i]
            f = row.pop(q) * v  # a_iq / a_pq, as a_pq = +-1
            for j, x in rest:
                new = row.get(j, 0) - f * x
                if new:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    cols[j].discard(i)

    live = sorted(j for j, c in cols.items() if c)
    core: dict[tuple[int, ...], None] = {}
    for row in rows.values():
        if row:
            dense = tuple([row.get(j, 0) for j in live])
            if tuple([-v for v in dense]) not in core:
                core[dense] = None
    return [list(row) for row in core], units


def _dense_smith_factors(a: list[list[int]]) -> list[int]:
    """Smith invariant factors of a dense matrix by alternating Hermite forms.

    Row HNF of the matrix, then row HNF of the transpose of its nonzero
    rows, until every nonzero row has a single entry.  This terminates:
    each round's first pivot divides the one before, and once it stops
    shrinking its row and column are clear; the rest follows by induction.
    The diagonal is then turned into a divisibility chain by gcd / lcm.
    """
    h = row_hnf(a)
    while True:
        h = [row for row in h if any(row)]
        if all(sum(1 for v in row if v) == 1 for row in h):
            break
        h = row_hnf(transpose(h))
    d = [next(v for v in row if v) for row in h]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def gf2_rank(m: list[list[int]] | list[int]) -> int:
    """Rank over GF(2) of rows given as integer vectors taken mod 2, or as
    int bitmasks (bit j is column j).

    Each row is reduced against an XOR basis keyed on each member's top
    bit; a row that does not vanish joins the basis under its own top bit.
    """
    basis: dict[int, int] = {}
    for row in m:
        if not isinstance(row, int):
            row = sum((v & 1) << j for j, v in enumerate(row))
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


class AbelianGroup(NamedTuple):
    """Finitely generated abelian group Z^free + sum Z/d_i."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    @classmethod
    def from_factors(
        cls, ambient_nullity: int, factors: list[int]
    ) -> "AbelianGroup":
        """Group ker/im from the invariant factors of the incoming map."""
        torsion = tuple(sorted(f for f in factors if f > 1))
        return cls(ambient_nullity - len(factors), torsion)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def lattice_equal(basis_a: list[list[int]], basis_b: list[list[int]]) -> bool:
    """Whether two integer row spans define the same lattice."""
    ha = [row for row in row_hnf(basis_a) if any(row)]
    hb = [row for row in row_hnf(basis_b) if any(row)]
    return ha == hb

