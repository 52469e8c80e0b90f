"""Gluing equations of an ideal triangulation and their Newton solver.

For shapes z_1..z_n (one per tetrahedron) the system requires, in
logarithmic form with principal branches,

* for every edge class:  sum over incidences of eps * log(edge parameter)
                         = 2 pi i, eps the tetrahedron's orientation sign
* for every cusp path:   signed sum of log(edge parameter at the passed
                         corner) = 0

Each log term is a * log z + b * log z' + c * log z'' with integer exponents
a, b, c, so an equation is described by an integer exponent row per
tetrahedron plus a constant target.  The rows come from the (tet, slot,
weight) terms of ``cvol.triangulation``.  A negatively oriented tetrahedron
(eps = -1) has its geometric shape in the lower half plane.  Newton
iteration runs in the shape variables with a least-squares step (the edge
equations alone are always one short of full rank) and simple step
halving.

numpy is imported inside the functions that use it, so that importing the
package (and the commands without Newton) does not pay for it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DegenerateGeometryError
from .triangulation import Triangulation, path_terms

TWO_PI_I = 2j * math.pi
FLAT_IM_MARGIN = 1e-10
DEFAULT_INITIAL_SHAPE = 0.5 + 0.8j


@dataclass
class GluingSystem:
    """Integer exponent rows (one (a, b, c) triple per tetrahedron and
    equation) with constant targets: 2 pi i for edges, 0 for cusp paths."""

    edge_rows: np.ndarray          # (n_edges, n_tets, 3) int
    cusp_rows: np.ndarray          # (n_paths, n_tets, 3) int

    @property
    def edge_flattened_only(self) -> bool:
        return len(self.cusp_rows) == 0

    def rows(self) -> np.ndarray:
        import numpy as np

        if len(self.cusp_rows):
            return np.concatenate([self.edge_rows, self.cusp_rows])
        return self.edge_rows

    def targets(self) -> np.ndarray:
        import numpy as np

        t = [TWO_PI_I] * len(self.edge_rows) + [0j] * len(self.cusp_rows)
        return np.array(t, dtype=complex)

    def residual(self, shapes: list[complex]) -> np.ndarray:
        logs = _slot_logs(shapes)
        rows = self.rows().reshape(len(self.rows()), -1)
        return rows @ logs - self.targets()

    def jacobian(self, shapes: list[complex]) -> np.ndarray:
        import numpy as np

        derivs = _slot_log_derivatives(shapes)
        rows = self.rows()
        return np.einsum("ets,ts->et", rows, derivs)


def _slot_logs(shapes: list[complex]) -> np.ndarray:
    import numpy as np

    out = []
    for z in shapes:
        lz = cmath.log(z)
        l1mz = cmath.log(1 - z)
        out.extend([lz, -l1mz, cmath.log(1 - 1 / z)])
    return np.array(out, dtype=complex)


def _slot_log_derivatives(shapes: list[complex]) -> np.ndarray:
    import numpy as np

    out = []
    for z in shapes:
        dz = 1.0 / z
        dzp = 1.0 / (1.0 - z)
        out.append([dz, dzp, -dz - dzp])
    return np.array(out, dtype=complex)


def gluing_equations(tri: Triangulation) -> GluingSystem:
    """Exponent matrices of the edge and cusp-path equations."""
    import numpy as np

    def exponent_rows(conditions) -> np.ndarray:
        rows = np.zeros((len(conditions), tri.num_tetrahedra, 3), dtype=int)
        for row, terms in zip(rows, conditions):
            for tet, slot, weight in terms:
                row[tet][slot] += weight
        return rows

    return GluingSystem(
        exponent_rows(tri.combinatorics.edge_terms),
        exponent_rows([path_terms(tri, p) for p in tri.cusp_paths]),
    )


@dataclass
class ShapeSolution:
    shapes: list[complex]
    residual: float
    iterations: int
    geometric: bool


def _check_nondegenerate(shapes, what: str) -> None:
    for k, z in enumerate(shapes):
        if abs(z.imag) < FLAT_IM_MARGIN:
            raise DegenerateGeometryError(
                f"{what}: shape {k} = {z!r} is flat (|Im z| < {FLAT_IM_MARGIN})"
            )
        if z == 0 or z == 1:
            raise DegenerateGeometryError(f"{what}: shape {k} hits 0 or 1")


def solve_shapes(
    tri: Triangulation,
    initial: list[complex] | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> ShapeSolution:
    """Newton-solve the gluing equations.

    ``initial`` defaults to the triangulation's shape hints and then to
    0.5 + 0.8i for every tetrahedron (its conjugate where eps = -1).
    Overdetermined systems take a least-squares Newton step; a simple
    halving line search keeps the residual monotone.  Iterates that flatten
    a simplex abort.  ``geometric`` means eps * Im z > 0 for every shape.
    """
    import numpy as np

    system = gluing_equations(tri)
    signs = tri.combinatorics.signs
    n = tri.num_tetrahedra
    if initial is None:
        start = DEFAULT_INITIAL_SHAPE
        initial = tri.shape_hints or [
            start if eps > 0 else start.conjugate() for eps in signs
        ]
    if len(initial) != n:
        raise ValueError(f"need {n} initial shapes, got {len(initial)}")
    shapes = [complex(z) for z in initial]
    _check_nondegenerate(shapes, "initial shapes")

    def norm(vec) -> float:
        return float(np.max(np.abs(vec))) if len(vec) else 0.0

    res = system.residual(shapes)
    best = norm(res)
    iterations = 0
    while best >= tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"Newton did not reach {tol:g} in {max_iter} iterations "
                f"(residual {best:g})"
            )
        jac = system.jacobian(shapes)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        alpha = 1.0
        while True:
            trial = [complex(z + alpha * dz) for z, dz in zip(shapes, step)]
            try:
                _check_nondegenerate(trial, "Newton iterate")
                trial_res = system.residual(trial)
            except DegenerateGeometryError:
                if alpha < 2**-20:
                    raise
                alpha *= 0.5
                continue
            if norm(trial_res) < best or alpha < 2**-20:
                break
            alpha *= 0.5
        if norm(trial_res) >= best:
            raise ConvergenceError(
                f"line search stalled at residual {best:g}"
            )
        shapes, res, best = trial, trial_res, norm(trial_res)
        iterations += 1
    geometric = all(eps * z.imag > 0 for eps, z in zip(signs, shapes))
    return ShapeSolution(shapes, best, iterations, geometric)
