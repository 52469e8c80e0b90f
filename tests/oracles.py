"""Independent oracles used to freeze expected values.

The dilogarithm oracle integrates -log(1-t)/t along the straight segment
from 0 to z by adaptive quadrature; it shares no code with the series
implementation under test.  The link-walk oracle draws closed normal paths
in the vertex links from the gluings alone, sharing no code with the state
graph that the flattening solver prunes its kernel with.
"""

import cmath

from scipy.integrate import quad

from cvol.triangulation import NormalPath, PathStep


def dilog_quadrature(z: complex, tol: float = 1e-13) -> complex:
    """-integral_0^z log(1-t)/t dt along the straight segment."""
    z = complex(z)

    def integrand(s: float) -> complex:
        t = s * z
        if t == 0:
            return z  # limit of -log(1-t)/t * z as t -> 0
        return -cmath.log(1 - t) / t * z

    re, _ = quad(lambda s: integrand(s).real, 0.0, 1.0,
                 epsabs=tol, epsrel=tol, limit=300)
    im, _ = quad(lambda s: integrand(s).imag, 0.0, 1.0,
                 epsabs=tol, epsrel=tol, limit=300)
    return complex(re, im)


def rogers_quadrature(z: complex) -> complex:
    return 0.5 * cmath.log(z) * cmath.log(1 - z) + dilog_quadrature(z)


def alternating_series_dilog_minus_one(terms: int = 300_000) -> float:
    """Li2(-1) = sum (-1)^k / k^2 by direct alternating summation."""
    import math

    return math.fsum((-1) ** k / (k * k) for k in range(1, terms + 1))


def random_link_walk(tri, rng) -> NormalPath:
    """A closed normal path in a vertex link: a random walk on the states
    (tet, tracked vertex, enter face), stepped through ``tri.gluing``,
    until it comes back to its first state."""
    v = rng.randrange(4)
    start = state = (
        rng.randrange(tri.num_tetrahedra),
        v,
        rng.choice([f for f in range(4) if f != v]),
    )
    steps = []
    while True:
        tet, v, enter = state
        exit_ = rng.choice([f for f in range(4) if f not in (v, enter)])
        steps.append(PathStep(tet, enter, exit_))
        g = tri.gluing(tet, exit_)
        state = (g.tet, g.perm[v], g.perm[exit_])
        if state == start:
            return NormalPath(tuple(steps))
