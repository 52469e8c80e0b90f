"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and match the package defaults.
"""

import cmath
import math
import random
import time

import pytest

from cvol.bloch import (
    CycleSimplex,
    FiveTermTuple,
    bloch_wigner,
    chi,
    chi_hat,
    cycle_relation_check,
    epsilon_parity,
    five_point_edge_rows,
    five_term_instance,
    generator,
    in_lift_index_family,
    kappa_element,
    lift_index_basis,
    nu_symbolic,
    r_of_element,
    super_transfer_rhs,
)
from cvol.flattening import complex_volume, solve_flattenings
from cvol.gluing import solve_shapes
from cvol.intlinalg import lattice_equal, solve_integer_system
from cvol.jcomplex import AbelianGroup, build_j_complex, h1_mod2, homology_of_j
from cvol.polylog import PI_SQUARED, principal_log, reduce_mod
from cvol.pruning import _prune_kernel
from cvol.triangulation import parse_triangulation
from cvol.verify import random_ft_plus, random_offsets

from oracles import (
    alternate_assignment,
    chain_complex_composites,
    reference_defect,
)

TOL = 1e-9
REGULAR = cmath.exp(1j * math.pi / 3)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_five_term_functional_equation():
    """200 random base points and offsets: |sum (-1)^i R| mod pi^2 < 1e-9,
    in under five seconds."""
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        x, y = random_ft_plus(rng)
        element = five_term_instance(
            FiveTermTuple(x, y, *random_offsets(rng, bound=3))
        )
        worst = max(worst, r_of_element(element).distance_to_zero())
    elapsed = time.perf_counter() - start
    assert worst < TOL
    assert elapsed < 5.0
    report("criterion 1",
           f"five-term Rogers residual {worst:.2e} over 200 instances "
           f"in {elapsed:.2f}s")


def test_criterion_2_five_term_nu_vanishing():
    """The same 200 instances have exactly zero wedge image."""
    rng = random.Random(101)  # same stream as criterion 1
    for _ in range(200):
        x, y = random_ft_plus(rng)
        element = five_term_instance(
            FiveTermTuple(x, y, *random_offsets(rng, bound=3))
        )
        assert nu_symbolic(element, (x, y)).is_zero()
    report("criterion 2", "nu image exactly zero on 200 instances")


def test_criterion_3_edge_relation_kernel():
    """Integer kernel of the ten edge relations equals the five-parameter
    index family, as lattices."""
    rows = list(five_point_edge_rows().values())
    solution = solve_integer_system(rows, [0] * 10)
    assert solution is not None
    assert len(solution.kernel) == 5
    assert all(in_lift_index_family(v) for v in solution.kernel)
    basis = lift_index_basis()
    for vec in basis:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows)
    assert lattice_equal(solution.kernel, basis)
    report("criterion 3", "edge-relation kernel matches the index family")


def test_criterion_4_identity_suite():
    """Transfer, the three index equations, the triple-shape relation,
    super transfer, the 1-x relation, chi, chi_hat, and the parities:
    100 random instances each, Rogers within 1e-9, wedge exact."""
    rng = random.Random(202)
    worst = 0.0

    def check(element, base):
        nonlocal worst
        worst = max(worst, r_of_element(element).distance_to_zero())
        assert nu_symbolic(element, base).is_zero()

    for _ in range(100):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.15, 1.5))
        p, q, p2, q2, s = (rng.randint(-4, 4) for _ in range(5))

        # transfer
        check(
            generator(z, p, q) + generator(z, p2, q2)
            - generator(z, p, q2) - generator(z, p2, q),
            z,
        )
        # three index equations
        check(
            generator(z, p, q) - generator(z, p, q2)
            - generator(z, p, q - 1) + generator(z, p, q2 - 1),
            z,
        )
        check(
            generator(z, p, q) - generator(z, p2, q)
            - generator(z, p - 1, q) + generator(z, p2 - 1, q),
            z,
        )
        check(
            generator(z, p, q) - generator(z, p + s, q - s)
            - generator(z, p + 1, q - 1) + generator(z, p + s + 1, q - s - 1),
            z,
        )
        # triple-shape relation with dependent first indices
        x, y = random_ft_plus(rng)
        check(
            generator(x, p, q) - generator(y, p2, q2)
            + generator(y / x, p2 - p, s)
            - generator(x, p, q - 1) + generator(y, p2, q2 - 1)
            - generator(y / x, p2 - p, s - 1),
            (x, y),
        )
        # super transfer
        check(generator(z, p, q) - super_transfer_rhs(z, p, q), z)
        # 1-x relation, value -pi^2/6
        element = generator(z, p, q) + generator(1 - z, -q, -p)
        expected = reduce_mod(complex(-PI_SQUARED / 6), PI_SQUARED)
        worst = max(worst, r_of_element(element).distance_to(expected))
        assert nu_symbolic(element, z).is_zero()
        # chi and chi_hat values
        worst = max(
            worst,
            r_of_element(chi(z)).distance_to(
                reduce_mod(0.5j * math.pi * principal_log(z), PI_SQUARED)
            ),
        )
        worst = max(
            worst,
            r_of_element(chi_hat(z)).distance_to(
                reduce_mod(1j * math.pi * principal_log(z), 2 * PI_SQUARED)
            ),
        )
        # parities
        assert epsilon_parity(kappa_element(z)) == 1
        element = five_term_instance(
            FiveTermTuple(x, y, *random_offsets(rng))
        )
        assert epsilon_parity(element) == 0
    assert worst < TOL
    report("criterion 4", f"identity suite max residual {worst:.2e}")


def test_criterion_5_figure_eight_end_to_end(fig8):
    """Shapes, volume, Chern-Simons and flattening residuals on the
    figure-eight fixture, in under a second."""
    start = time.perf_counter()
    solution = solve_shapes(fig8)
    assert all(abs(z - REGULAR) < 1e-10 for z in solution.shapes)
    assignment = solve_flattenings(fig8, solution.shapes)
    vol, cs = complex_volume(fig8, solution.shapes, assignment)
    elapsed = time.perf_counter() - start
    oracle = 2 * bloch_wigner(REGULAR)
    assert vol == pytest.approx(oracle, abs=TOL)
    assert vol == pytest.approx(2.029883212819307, abs=TOL)
    assert reduce_mod(complex(cs), PI_SQUARED).distance_to_zero() < TOL
    assert assignment.max_residual() < 1e-12
    assert assignment.path_parities == [0, 0]
    assert elapsed < 1.0
    report("criterion 5",
           f"vol {vol:.15f}, cs {cs:.2e} mod pi^2, "
           f"max residual {assignment.max_residual():.2e}, {elapsed:.2f}s")


def test_criterion_6_section_six_structure(fig8, fig8_shapes):
    """Chain composites vanish exactly, the defect is even, homology is
    H5 = 0, H4 = Z/2, H1 = Z/2, and H2 matches H1(K; Z/2)."""
    jc = build_j_complex(fig8)
    for composite in chain_complex_composites(jc):
        assert all(v == 0 for row in composite for v in row)
    defect = reference_defect(fig8, fig8_shapes)
    assert all(d % 2 == 0 for d in defect)
    groups = homology_of_j(jc)
    assert groups[5] == AbelianGroup(0)
    assert groups[4] == AbelianGroup(0, (2,))
    assert groups[1] == AbelianGroup(0, (2,))
    h2 = groups[2]
    assert h2.free_rank == 0 and all(d == 2 for d in h2.torsion)
    assert len(h2.torsion) == h1_mod2(jc)
    report("criterion 6",
           f"composites zero, defect {defect}, H5=0 H4=Z/2 H1=Z/2, "
           f"H2 rank {len(h2.torsion)} = H1(K;Z/2) rank {h1_mod2(jc)}")


def test_criterion_7_invariance(fig8, fig8_doc, fig8_shapes):
    """Twenty-plus randomized trials of tetrahedron relabeling, Newton
    initial points, and solver particular-solution shifts leave
    (vol, cs mod pi^2) unchanged within 1e-9."""
    solution = solve_shapes(fig8)
    assignment = solve_flattenings(fig8, solution.shapes)
    vol0, cs0 = complex_volume(fig8, solution.shapes, assignment)

    def cs_distance(a, b):
        return reduce_mod(complex(a - b), PI_SQUARED).distance_to_zero()

    trials = 0
    rng = random.Random(303)

    # tetrahedron relabelings (both orderings of two tetrahedra)
    for mapping in ({0: 0, 1: 1}, {0: 1, 1: 0}):
        doc = {
            "name": fig8_doc["name"],
            "tetrahedra": [None] * 2,
            "cusp_paths": [],
        }
        for t in range(2):
            row = fig8_doc["tetrahedra"][t]["gluings"]
            doc["tetrahedra"][mapping[t]] = {
                "gluings": [
                    {"tet": mapping[g["tet"]], "perm": g["perm"]}
                    for g in row
                ]
            }
        for path in fig8_doc["cusp_paths"]:
            doc["cusp_paths"].append(
                [
                    {
                        "tet": mapping[s["tet"]],
                        "enter_face": s["enter_face"],
                        "exit_face": s["exit_face"],
                    }
                    for s in path
                ]
            )
        tri = parse_triangulation(doc)
        sol = solve_shapes(tri)
        asg = solve_flattenings(tri, sol.shapes)
        vol, cs = complex_volume(tri, sol.shapes, asg)
        assert abs(vol - vol0) < TOL and cs_distance(cs, cs0) < TOL
        trials += 1

    # Newton initial points
    for _ in range(10):
        initial = [
            complex(rng.uniform(0.2, 0.8), rng.uniform(0.4, 1.2))
            for _ in range(2)
        ]
        sol = solve_shapes(fig8, initial=initial)
        asg = solve_flattenings(fig8, sol.shapes)
        vol, cs = complex_volume(fig8, sol.shapes, asg)
        assert abs(vol - vol0) < TOL and cs_distance(cs, cs0) < TOL
        trials += 1

    # particular solution + kernel vectors whose path conditions vanish
    pruned = _prune_kernel(fig8, assignment.kernel)
    assert pruned
    for _ in range(10):
        coeffs = [rng.randint(-4, 4) for _ in pruned]
        shifted = alternate_assignment(
            fig8, solution.shapes, assignment, coeffs
        )
        vol, cs = complex_volume(fig8, solution.shapes, shifted)
        assert abs(vol - vol0) < TOL and cs_distance(cs, cs0) < TOL
        trials += 1

    assert trials >= 20
    report("criterion 7", f"(vol, cs) invariant over {trials} trials")


def test_criterion_8_cycle_relation():
    """Fifty n=3 and fifty n=2 configurations give primed/unprimed elements
    with identical Rogers and wedge images."""
    rng = random.Random(404)
    for _ in range(50):
        x, y = random_ft_plus(rng)
        p0, p1, q0, q1, q2 = (rng.randint(-3, 3) for _ in range(5))
        simplices = [
            CycleSimplex(x, p0, q0, +1, 0, 2, 1),
            CycleSimplex(y, p1, q1, -1, 0, 1, 2),
            CycleSimplex(y / x, p1 - p0, q2, +1, 0, 2, 1),
        ]
        assert cycle_relation_check(simplices, (x, y), TOL)
    for _ in range(50):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.4))
        p, q, q2 = (rng.randint(-3, 3) for _ in range(3))
        simplices = [
            CycleSimplex(z, p, q, +1, 0, 2, 1),
            CycleSimplex(z, p, q2, -1, 0, 1, 2),
        ]
        assert cycle_relation_check(simplices, (z, None), TOL)
    report("criterion 8", "100 cycle-relation configurations verified")
