"""The ``flatten`` command, and the kernel pruning that only it runs.

Besides the branch indices and their residuals, ``flatten`` prints the HNF
of the sub-lattice of the flattening system's kernel that keeps every
closed vertex-link path condition too (``_prune_kernel``).
"""

from __future__ import annotations

from itertools import product

from .geometry import EDGE_SLOT, pass_rows
from .intlinalg import row_hnf
from .triangulation import Triangulation, link_step


def _prune_kernel(
    tri: Triangulation, kernel: list[list[int]]
) -> list[list[int]]:
    """Sub-lattice of kernel vectors annihilating the log functionals of
    all closed vertex-link paths: the closed walks of the link states
    (tet, vertex, enter face) under ``link_step``, called in place.

    A state has two exit faces and is entered from two states, so each
    component is strongly connected and the fundamental cycles of a
    spanning forest span the rational functionals of all closed walks; the
    sub-lattice depends on that span only.  A state's potential is the
    functional of its tree path on the kernel vectors; each step off the
    tree gives one functional, kept once.  The rows of the row HNF of
    [F | kernel] whose F part is zero are the pruned lattice's own HNF,
    whatever the kernel basis and the order of the functionals.
    """
    if not kernel:
        return []
    potential = {}
    action: dict[tuple[int, ...], None] = {}
    for root in product(range(tri.num_tetrahedra), range(4), range(4)):
        if root[1] == root[2] or root in potential:
            continue
        potential[root] = [0] * len(kernel)
        queue = [root]
        for state in queue:
            tet, vertex, enter = state
            for exit_ in range(4):
                if exit_ == vertex or exit_ == enter:
                    continue
                nxt, (_, pair, rot) = link_step(tri, tet, vertex, enter, exit_)
                # the step's one or two coefficients, padded to two
                term = (tet, EDGE_SLOT[pair], rot)
                (i, a), (j, b) = [*pass_rows([term]).pq.items(), (0, 0)][:2]
                value = [
                    p + a * k[i] + b * k[j]
                    for p, k in zip(potential[state], kernel)
                ]
                if nxt not in potential:
                    potential[nxt] = value
                    queue.append(nxt)
                elif value != potential[nxt]:
                    diff = tuple(a - b for a, b in zip(value, potential[nxt]))
                    action[diff] = None
    f = list(action)
    rows = row_hnf([[g[i] for g in f] + k for i, k in enumerate(kernel)])
    return [row[len(f):] for row in rows if not any(row[:len(f)])]


def cmd_flatten(args) -> int:
    from .cli import _emit, _solve

    tri, _, assignment = _solve(args)
    _emit({
        "flattenings": [list(pq) for pq in assignment.pq()],
        "orientation_signs": assignment.signs,
        "edge_residuals": [abs(r) for r in assignment.edge_residuals],
        "path_residuals": [abs(r) for r in assignment.path_residuals],
        "path_parities": assignment.path_parities,
        "defect": assignment.defect,
        "edge_flattened_only": assignment.edge_flattened_only,
        "kernel": _prune_kernel(tri, assignment.kernel),
    }, args.format)
    return 0
