"""Exact linear algebra over the integers.

Matrices are lists of lists of Python ints, so intermediate entries can grow
without overflow.  Provides row Hermite normal form, the canonical solution
of A x = b over Z, and the sweep of +-1 pivots on sparse rows that the solve
is to share with the Smith form, which lives in ``cvol.jcomplex``.
"""

from __future__ import annotations

from collections import namedtuple


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
    h = [list(map(int, row)) for row in m]
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


class IntegerSolution(namedtuple("IntegerSolution", "particular kernel")):
    """Solution of a x = b over Z: the kernel lattice's row HNF basis
    ``kernel`` (list[list[int]]), and the solution ``particular``
    (list[int]) reduced into [0, pivot) at each of its pivots."""

    __slots__ = ()


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


def lattice_equal(basis_a: list[list[int]], basis_b: list[list[int]]) -> bool:
    """Whether two integer row spans define the same lattice."""
    ha = [row for row in row_hnf(basis_a) if any(row)]
    hb = [row for row in row_hnf(basis_b) if any(row)]
    return ha == hb

