"""J-complex structure, flattening solver, homology, cycle relation."""

import cmath
import copy
import functools
import json
import math
import pathlib
import random
import sys
import types

import mpmath
import pytest

from cvol import flattening, pruning
from cvol.bloch import (
    CycleSimplex,
    EBElement,
    bloch_wigner,
    cycle_relation_check,
    nu_symbolic,
    r_of_element,
)
from cvol.errors import NonIntegralError
from cvol.flattening import (
    _assignment_from_vector,
    complex_volume,
    fundamental_element,
    snap_cs,
    solve_flattenings,
)
from cvol.geometry import pass_rows
from cvol.gluing import solve_shapes
from cvol.intlinalg import (
    _eliminate_unit_pivots,
    lattice_equal,
    solve_integer_system,
)
from cvol.jcomplex import (
    AbelianGroup,
    _dense_smith_factors,
    build_j_complex,
    h1_mod2,
    homology_of_j,
    smith_invariant_factors,
)
from cvol.params import ExtendedParam
from cvol.polylog import PI_SQUARED, flatten, lifted_rogers_sum, reduce_mod
from cvol.triangulation import parse_triangulation, path_terms
from cvol.verify import random_ft_plus

from oracles import (
    EVEN_PERMS,
    alternate_assignment,
    chain_complex_composites,
    disjoint_union,
    hnf,
    matmul,
    omega,
    perfbench_inputs,
    random_link_walk,
    random_terms,
    random_unimodular,
    reference_beta,
    reference_defect,
    reference_prune_kernel,
    relabel_document,
    relabeled_cover,
    rogers_shift,
    rogers_sum_mp,
    xi,
)

PI = math.pi
REGULAR = cmath.exp(1j * PI / 3)
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def replaced(comb, **fields):
    """A copy of ``comb`` with the given fields set; a set ``edge_rows`` or
    ``cusp_rows`` is read in place of the table built on first read."""
    comb = copy.copy(comb)
    vars(comb).update(fields)
    return comb


def dense(rows, width):
    """Sparse ``{col: value}`` rows of the J-complex as a dense matrix."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


class TestJComplex:
    def test_j_rank(self, fig8):
        jc = build_j_complex(fig8)
        assert jc.j_rank == 4  # two tetrahedra, rank 2 each

    def test_chain_composites_vanish(self, fig8):
        jc = build_j_complex(fig8)
        for composite in chain_complex_composites(jc):
            assert all(v == 0 for row in composite for v in row)

    def test_alpha_star_is_transpose(self, fig8):
        jc = build_j_complex(fig8)
        alpha = dense(jc.alpha, len(jc.vertices))
        assert dense(jc.alpha_star, len(jc.edges)) == \
            [list(col) for col in zip(*alpha)]

    def test_beta_star_adjoint_of_beta(self, fig8):
        # beta* = beta^T composed with the block skew form on J
        jc = build_j_complex(fig8)
        nt = fig8.num_tetrahedra
        omega_form = [[0] * (2 * nt) for _ in range(2 * nt)]
        for t in range(nt):
            omega_form[2 * t][2 * t + 1] = 1
            omega_form[2 * t + 1][2 * t] = -1
        bt = [list(col) for col in zip(*dense(jc.beta, len(jc.edges)))]
        candidate = matmul(bt, omega_form)
        neg = [[-v for v in row] for row in candidate]
        assert dense(jc.beta_star, 2 * nt) in (candidate, neg)

    def test_cancelling_slots_leave_no_entry(self, fig8):
        # an edge class holding slots 0 and 2 of one simplex: its beta
        # coordinates (1, 0) + (-1, -1) cancel in the first row; fig8's
        # signs are both +1, the weight of every term of an edge
        assert fig8.combinatorics.signs == [1, 1]
        comb = replaced(
            fig8.combinatorics,
            edge_rows=[pass_rows([(0, 0, 1), (0, 2, 1)]),
                       pass_rows([(1, 1, 1)])],
        )
        jc = build_j_complex(
            types.SimpleNamespace(combinatorics=comb, num_tetrahedra=2)
        )
        assert jc.beta == [{}, {0: -1}, {}, {1: 1}]
        assert jc.beta_star == [{0: -1}, {2: 1}]

    @pytest.mark.parametrize(
        "name",
        ["fig8", "fig8_cover3", "fig8_cover8", "fig8_cover32"]
        + [f"cover{n}-{how}" for n in (3, 5, 9)
           for how in ("tets", "vertices")],
    )
    def test_beta_matches_reference(self, name):
        if name.startswith("cover"):
            n, how = name[len("cover"):].split("-")
            tri = parse_triangulation(
                relabeled_cover(int(n), how == "vertices"))
        else:
            tri = _load(name)
        jc = build_j_complex(tri)
        assert jc.beta == reference_beta(tri.combinatorics,
                                         tri.num_tetrahedra)

    def test_beta_matches_reference_on_drawn_edges(self, fig8):
        # alpha reads fig8's edges; beta reads only the drawn edges and
        # signs.  Every term of an edge carries its simplex's sign as its
        # weight; repeated passes of one simplex cancel across slots
        from cvol.geometry import SLOT_PQ_COEFF

        rng = random.Random(18)
        cancelled = 0
        for _ in range(100):
            signs = [rng.choice((1, -1)) for _ in range(3)]
            edges = [pass_rows([(t, s, signs[t])
                                for t, s, _ in random_terms(rng, 3)])
                     for _ in range(4)]
            comb = replaced(fig8.combinatorics, signs=signs, edge_rows=edges)
            jc = build_j_complex(
                types.SimpleNamespace(combinatorics=comb, num_tetrahedra=3))
            assert jc.beta == reference_beta(comb, 3)
            cancelled += any(
                j not in e.pq
                for e in edges for t, s, _ in e.terms
                for j, c in enumerate(SLOT_PQ_COEFF[s], 2 * t) if c)
        assert cancelled > 40, cancelled

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3", "fig8_cover32"])
    def test_rows_hold_only_nonzero_entries(self, name):
        from cvol.geometry import SLOT_PQ_COEFF

        tri = _load(name)
        jc = build_j_complex(tri)
        comb = tri.combinatorics
        ne, nv = len(jc.edges), len(jc.vertices)
        # the dense matrices, built entry by entry from the incidences
        beta = [[0] * ne for _ in range(jc.j_rank)]
        for col, edge in enumerate(comb.edge_rows):
            for tet, slot, _ in edge.terms:
                c0, c1 = SLOT_PQ_COEFF[slot]
                beta[2 * tet][col] += c0
                beta[2 * tet + 1][col] += c1
        alpha = [[0] * nv for _ in range(ne)]
        for e in jc.edges:
            tet, (a, b), _ = e.incidences[0]
            alpha[e.index][comb.vertex_of[(tet, a)]] += 1
            alpha[e.index][comb.vertex_of[(tet, b)]] += 1
        assert dense(jc.beta, ne) == beta
        assert dense(jc.alpha, nv) == alpha
        for rows in (jc.alpha, jc.beta, jc.alpha_star, jc.beta_star):
            for row in rows:
                assert all(row.values())
                assert list(row) == sorted(row)


def _mixed_orientation(doc):
    """The document with tetrahedron 1 relabeled by the odd permutation
    (0 1): its orientation sign turns to -1."""
    sigma = [[0, 1, 2, 3], [1, 0, 2, 3]]
    tets = []
    for t, entry in enumerate(doc["tetrahedra"]):
        gluings = [None] * 4
        for f, g in enumerate(entry["gluings"]):
            perm = [0] * 4
            for v in range(4):
                perm[sigma[t][v]] = sigma[g["tet"]][g["perm"][v]]
            gluings[sigma[t][f]] = {"tet": g["tet"], "perm": perm}
        tets.append({"gluings": gluings})
    paths = [
        [{"tet": s["tet"], "enter_face": sigma[s["tet"]][s["enter_face"]],
          "exit_face": sigma[s["tet"]][s["exit_face"]]} for s in path]
        for path in doc["cusp_paths"]
    ]
    return {"name": "mixed", "tetrahedra": tets, "cusp_paths": paths}


def _load(name, seed=None):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    if seed is not None:
        doc = relabel_document(doc, random.Random(seed))
    return parse_triangulation(doc)


class TestStarredMapsShareSmithForms:
    """alpha* = alpha^T and beta* = beta^T times a unimodular skew form have
    the invariant factors of alpha and beta, which ``homology_of_j`` relies
    on to take two Smith forms instead of four."""

    @pytest.mark.parametrize("seed", [None, 3, 17])
    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3", "fig8_cover8"])
    def test_invariant_factors_agree(self, name, seed):
        jc = build_j_complex(_load(name, seed))
        assert smith_invariant_factors(jc.beta_star) == \
            smith_invariant_factors(jc.beta)
        assert smith_invariant_factors(jc.alpha_star) == \
            smith_invariant_factors(jc.alpha)

    def test_homology_takes_two_smith_forms(self, fig8_cover3, monkeypatch):
        import cvol.jcomplex as jcomplex

        seen = []

        def counted(m):
            seen.append(m)
            return smith_invariant_factors(m)

        monkeypatch.setattr(jcomplex, "smith_invariant_factors", counted)
        jc = build_j_complex(fig8_cover3)
        groups = homology_of_j(jc)
        assert seen == [jc.alpha, jc.beta]
        assert str(groups[2]) == "Z/2 + Z/2"


class TestOmega:
    def test_component_formula_half(self):
        # -(log(1/2) e0 + log(1/2) e1) = ln 2 (e0 + e1)
        vec = omega([0.5, 0.5])
        assert vec[0] == pytest.approx(math.log(2))
        assert vec[1] == pytest.approx(math.log(2))

    def test_component_regular(self):
        vec = omega([REGULAR, REGULAR])
        # -(log(1-z) e0 + log z e1) with 1-z = e^{-i pi/3}
        assert vec[0] == pytest.approx(1j * PI / 3)
        assert vec[1] == pytest.approx(-1j * PI / 3)

    def test_xi_symmetry(self):
        # w1 e0 - w0 e1 = w2 e1 - w1 e2 after the slot relations
        rng = random.Random(1)
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.0))
        w = flatten(ExtendedParam(z, rng.randint(-3, 3), rng.randint(-3, 3)))
        a0, a1 = xi(w)
        # w2 e1 - w1 e2 with e2 = -e0 - e1: coords (w1, w2 + w1) = (w1, -w0)
        assert a0 == pytest.approx(w.w1)
        assert a1 == pytest.approx(w.w2 + w.w1)


#: one T=2 gluing with signs [1, -1] from each of the four volume classes on
#: which Newton converges to shapes that are not regular, keyed by volume.
#: None has cusp paths, so each structure is incomplete: vol and cs are not
#: pinned
T2_MIXED_SIGNS = {
    doc["name"].rsplit(" ", 1)[1]: doc
    for doc in json.loads((FIXTURES / "t2_mixed_signs.json").read_text())
}


def _defect_input(name):
    fixture, _, seed = name.partition("@")
    if fixture == "mixed":
        doc = _mixed_orientation(json.loads(
            (FIXTURES / "fig8.json").read_text()))
    elif fixture in T2_MIXED_SIGNS:
        doc = T2_MIXED_SIGNS[fixture]
    else:
        doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    if seed:
        doc = relabel_document(doc, random.Random(int(seed)))
    return parse_triangulation(doc)


class TestIntegralDefect:
    """The solver's ``defect``, minus its edge rows' right-hand side,
    against (1/pi i) beta*(omega) written out in ``reference_defect``."""

    def test_even_on_solved_shapes(self, fig8, fig8_shapes):
        defect = reference_defect(fig8, fig8_shapes)
        assert all(d % 2 == 0 for d in defect)

    def test_unsolved_shapes_rejected(self, fig8):
        with pytest.raises(NonIntegralError):
            reference_defect(fig8, [0.3 + 0.9j, 0.7 + 0.4j])

    def test_reported_per_edge(self, fig8, fig8_shapes):
        defect = reference_defect(fig8, fig8_shapes)
        assert len(defect) == len(fig8.combinatorics.edges)

    @pytest.mark.parametrize(
        "name",
        ["fig8", "fig8_cover3", "fig8_cover8", "mixed", *T2_MIXED_SIGNS]
        + [f"{name}@{seed}" for name in ("fig8", "fig8_cover3", "mixed")
           for seed in range(4)],
    )
    def test_solver_defect_matches_reference(self, name):
        tri = _defect_input(name)
        shapes = solve_shapes(tri).shapes
        assert solve_flattenings(tri, shapes).defect == \
            reference_defect(tri, shapes)


class TestHomology:
    def test_spot_values(self, fig8):
        groups = homology_of_j(build_j_complex(fig8))
        assert groups[5] == AbelianGroup(0)
        assert groups[4] == AbelianGroup(0, (2,))
        assert groups[1] == AbelianGroup(0, (2,))

    def test_odd_relabeling_keeps_groups_and_defect(
        self, fig8, fig8_doc, fig8_shapes
    ):
        # A tetrahedron relabeled by an odd permutation gets sign -1 and the
        # conjugate shape.  The groups stay fig8's; the defect, a sum of
        # signed logs, need not: the conjugate logs cancel only in a sum
        # without signs, and only at regular shapes
        from cvol.gluing import solve_shapes

        mixed = parse_triangulation(_mixed_orientation(fig8_doc))
        assert mixed.combinatorics.signs == [1, -1]
        jc = build_j_complex(mixed)
        for composite in chain_complex_composites(jc):
            assert all(v == 0 for row in composite for v in row)
        assert homology_of_j(jc) == homology_of_j(build_j_complex(fig8))
        assert solve_flattenings(fig8, fig8_shapes).defect == [2, -2]
        assert solve_flattenings(
            mixed, solve_shapes(mixed).shapes).defect == [0, 0]

    def test_h2_matches_h1_mod2(self, fig8):
        jc = build_j_complex(fig8)
        groups = homology_of_j(jc)
        h2 = groups[2]
        rank_mod2 = h1_mod2(jc)
        assert h2.free_rank == 0
        assert all(d == 2 for d in h2.torsion)
        assert len(h2.torsion) == rank_mod2


class TestHomologyOfCovers:
    """Cyclic covers of fig8; the 3-fold one has 2-torsion that the unit
    pivots of the Smith form must not swallow."""

    @pytest.mark.parametrize(
        "name, expected, rank_mod2",
        [
            ("fig8_cover3.json",
             {5: "0", 4: "Z/2", 3: "Z + Z + Z/2 + Z/2", 2: "Z/2 + Z/2",
              1: "Z/2"}, 2),
            ("fig8_cover8.json",
             {5: "0", 4: "Z/2", 3: "Z + Z", 2: "0", 1: "Z/2"}, 0),
            ("fig8_cover32.json",
             {5: "0", 4: "Z/2", 3: "Z + Z", 2: "0", 1: "Z/2"}, 0),
        ],
    )
    def test_groups(self, name, expected, rank_mod2):
        doc = json.loads((FIXTURES / name).read_text())
        jc = build_j_complex(parse_triangulation(doc))
        self.check(jc, expected, rank_mod2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabeled_cover_keeps_torsion(self, seed):
        # relabeling leaves dense Smith cores with large entries
        doc = json.loads((FIXTURES / "fig8_cover3.json").read_text())
        doc = relabel_document(doc, random.Random(seed))
        jc = build_j_complex(parse_triangulation(doc))
        self.check(jc, {5: "0", 4: "Z/2", 3: "Z + Z + Z/2 + Z/2",
                        2: "Z/2 + Z/2", 1: "Z/2"}, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabeled_cover32_keeps_groups(self, seed):
        # relabeled sparse rows of a 64-tetrahedron cover: the Smith and
        # GF(2) ranks must not depend on the labels
        doc = json.loads((FIXTURES / "fig8_cover32.json").read_text())
        doc = relabel_document(doc, random.Random(seed))
        jc = build_j_complex(parse_triangulation(doc))
        self.check(jc, {5: "0", 4: "Z/2", 3: "Z + Z", 2: "0", 1: "Z/2"}, 0)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_sweep_leaves_a_narrow_core(self, seed):
        # breadth-first visiting keeps fill low under any relabeling: the
        # core of beta is at most 3 columns wide (an index-order sweep
        # leaves 4 to 8 on these relabelings), and alpha's rows, all equal,
        # leave one
        doc = json.loads((FIXTURES / "fig8_cover32.json").read_text())
        if seed is not None:
            doc = relabel_document(doc, random.Random(seed))
        jc = build_j_complex(parse_triangulation(doc))
        core, units = _eliminate_unit_pivots(jc.beta)
        assert len(core[0]) <= 3
        assert units >= len(jc.edges) - 3
        assert _eliminate_unit_pivots(jc.alpha) == ([[2]], 0)

    @staticmethod
    def check(jc, expected, rank_mod2):
        groups = homology_of_j(jc)
        assert {k: str(g) for k, g in groups.items()} == expected
        assert h1_mod2(jc) == rank_mod2
        assert len(groups[2].torsion) == rank_mod2
        # oracle without the sparse unit-pivot sweep
        for rows, width in ((jc.alpha, len(jc.vertices)),
                            (jc.beta, len(jc.edges))):
            dense = [[row.get(j, 0) for j in range(width)] for row in rows]
            assert smith_invariant_factors(rows) == _dense_smith_factors(dense)


class TestSolveFlattenings:
    def test_residuals_vanish(self, fig8, fig8_shapes):
        assignment = solve_flattenings(fig8, fig8_shapes)
        assert assignment.max_residual() < 1e-12
        assert assignment.path_parities == [0, 0]
        assert not assignment.edge_flattened_only

    def test_deterministic(self, fig8, fig8_shapes):
        a = solve_flattenings(fig8, fig8_shapes)
        b = solve_flattenings(fig8, fig8_shapes)
        assert a.pq() == b.pq()

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3"])
    def test_solves_leave_the_condition_table_alone(self, name, request):
        # every solve reads the entries built at parse and changes none
        tri = request.getfixturevalue(name)
        shapes = request.getfixturevalue(f"{name}_shapes")
        comb = tri.combinatorics
        entries = comb.edge_rows + comb.cusp_rows
        before = [(list(e.terms), dict(e.pq)) for e in entries]
        assert comb.cusp_rows
        first = solve_flattenings(tri, shapes)
        assert solve_flattenings(tri, shapes) == first
        assert [(e.terms, e.pq) for e in entries] == before

    def test_perturbed_assignment_breaks_conditions(self, fig8, fig8_shapes):
        from cvol.geometry import EDGE_SLOT
        from cvol.triangulation import edge_classes, path_passes

        assignment = solve_flattenings(fig8, fig8_shapes)
        pq = assignment.pq()
        bumped = [ExtendedParam(z, p + (1 if t == 0 else 0), q)
                  for t, (z, (p, q)) in enumerate(zip(fig8_shapes, pq))]
        flats = [flatten(param) for param in bumped]
        residuals = []
        for e in edge_classes(fig8):
            total = 0j
            for tet, pair, _ in e.incidences:
                f = flats[tet]
                total += assignment.signs[tet] * (f.w0, f.w1, f.w2)[
                    EDGE_SLOT[pair]]
            residuals.append(abs(total))
        for path in fig8.cusp_paths:
            total = 0j
            for tet, pair, rot in path_passes(fig8, path):
                f = flats[tet]
                total += rot * assignment.signs[tet] * (f.w0, f.w1, f.w2)[
                    EDGE_SLOT[pair]]
            residuals.append(abs(total))
        assert max(residuals) > 1.0  # some condition off by a pi multiple

    def test_mixed_orientation_signs(self, fig8_doc):
        # relabel tetrahedron 1 by the odd permutation (0 1): its sign turns
        # to -1, its geometric shape moves to the lower half plane, and
        # (vol, cs) stays that of the figure-eight
        from cvol.gluing import solve_shapes

        tri = parse_triangulation(_mixed_orientation(fig8_doc))
        solution = solve_shapes(tri)
        assert solution.geometric
        assignment = solve_flattenings(tri, solution.shapes)
        assert assignment.signs == [1, -1]
        assert assignment.max_residual() < 1e-12
        vol, cs = complex_volume(tri, solution.shapes, assignment)
        assert vol == pytest.approx(2.029883212819307, abs=1e-9)
        assert min(cs, PI_SQUARED - cs) == pytest.approx(0.0, abs=1e-9)

    def test_mixed_signs_off_regular_shapes_pass_the_flattening_stage(
        self, fig8_doc, tmp_path, capsys
    ):
        # Newton converges from these hints; the run must then end in a
        # result or in a typed error of some other stage
        from cvol.cli import main

        doc = _mixed_orientation(fig8_doc)
        doc.pop("cusp_paths")
        doc["shapes"] = [[0.6, 0.9], [0.6, -0.9]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code = main(["cvol", str(path)])
        err = capsys.readouterr().err
        assert code == 0 or (
            code == 2 and "error at stage" in err
            and "error at stage solve_flattenings" not in err
        ), err

    @pytest.mark.parametrize("volume", list(T2_MIXED_SIGNS))
    def test_mixed_signs_t2_gluings_exit_0(self, volume, tmp_path, capsys):
        # Newton converges to shapes that are not regular on these gluings;
        # without cusp paths the result is an edge-only one
        from cvol.cli import main

        path = tmp_path / "t2.json"
        path.write_text(json.dumps(T2_MIXED_SIGNS[volume]))
        code = main(["--format", "json", "cvol", str(path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        report = json.loads(out)
        assert report["residuals"]["edge_flattening_max"] < 1e-9
        assert any(w.startswith("edge-flattened only")
                   for w in report["warnings"])
        tri = parse_triangulation(T2_MIXED_SIGNS[volume])
        assert tri.combinatorics.signs == [1, -1]
        shapes = [complex(*z) for z in report["shapes"]]
        assert solve_flattenings(tri, shapes).defect == \
            reference_defect(tri, shapes)

    def test_no_cusp_paths_flagged(self, fig8_doc, fig8_shapes):
        import copy

        from cvol.triangulation import parse_triangulation

        doc = copy.deepcopy(fig8_doc)
        doc.pop("cusp_paths")
        tri = parse_triangulation(doc)
        assignment = solve_flattenings(tri, fig8_shapes)
        assert assignment.edge_flattened_only
        assert assignment.path_residuals == []

    def test_unsolved_shapes_rejected(self, fig8):
        with pytest.raises(NonIntegralError):
            solve_flattenings(fig8, [0.3 + 0.9j, 0.7 + 0.4j])


class TestFundamentalElement:
    def test_two_terms(self, fig8, fig8_shapes):
        assignment = solve_flattenings(fig8, fig8_shapes)
        element = fundamental_element(fig8, assignment)
        assert len(element.terms) == 2

    def test_imaginary_part_is_volume(self, fig8, fig8_shapes):
        assignment = solve_flattenings(fig8, fig8_shapes)
        value = r_of_element(fundamental_element(fig8, assignment))
        oracle = sum(bloch_wigner(z) for z in fig8_shapes)
        assert value.value.imag == pytest.approx(oracle, abs=1e-9)

    def test_relabeling_keeps_value(self, fig8_doc):
        import copy

        from cvol.gluing import solve_shapes
        from cvol.triangulation import parse_triangulation

        mapping = {0: 1, 1: 0}
        doc = copy.deepcopy(fig8_doc)
        swapped = {"name": doc["name"], "tetrahedra": [], "cusp_paths": []}
        for t in (1, 0):
            row = doc["tetrahedra"][t]["gluings"]
            swapped["tetrahedra"].append(
                {"gluings": [
                    {"tet": mapping[g["tet"]], "perm": g["perm"]}
                    for g in row
                ]}
            )
        for path in doc["cusp_paths"]:
            swapped["cusp_paths"].append(
                [
                    {
                        "tet": mapping[s["tet"]],
                        "enter_face": s["enter_face"],
                        "exit_face": s["exit_face"],
                    }
                    for s in path
                ]
            )
        tri1 = parse_triangulation(doc)
        tri2 = parse_triangulation(swapped)
        sol1, sol2 = solve_shapes(tri1), solve_shapes(tri2)
        a1 = solve_flattenings(tri1, sol1.shapes)
        a2 = solve_flattenings(tri2, sol2.shapes)
        v1 = r_of_element(fundamental_element(tri1, a1))
        v2 = r_of_element(fundamental_element(tri2, a2))
        assert v1.is_close(v2, tol=1e-9)

    def test_kernel_shift_keeps_value(
        self, fig8, fig8_shapes, fig8_cover3, fig8_cover3_shapes
    ):
        for tri, shapes in ((fig8, fig8_shapes),
                            (fig8_cover3, fig8_cover3_shapes)):
            assignment = solve_flattenings(tri, shapes)
            base = r_of_element(fundamental_element(tri, assignment))
            rng = random.Random(7)
            pruned = pruning._prune_kernel(tri, assignment.kernel)
            assert pruned, "solver reports invariance directions"
            for _ in range(20):
                coeffs = [rng.randint(-4, 4) for _ in pruned]
                shifted = alternate_assignment(
                    tri, shapes, assignment, coeffs
                )
                value = r_of_element(fundamental_element(tri, shifted))
                assert value.is_close(base, tol=1e-9)


    @pytest.mark.parametrize("name, raw_rank", [("fig8", 2),
                                                ("fig8_cover3", 6)])
    def test_alternate_keeps_both_kernels(self, name, raw_rank, request):
        tri = request.getfixturevalue(name)
        shapes = request.getfixturevalue(f"{name}_shapes")
        assignment = solve_flattenings(tri, shapes)
        pruned = pruning._prune_kernel(tri, assignment.kernel)
        shifted = alternate_assignment(
            tri, shapes, assignment, [1 for _ in pruned]
        )
        assert len(assignment.kernel) == raw_rank
        assert shifted.kernel == assignment.kernel
        assert pruning._prune_kernel(tri, shifted.kernel) == pruned


class TestPrunedKernel:
    """The pruned kernel, ``_prune_kernel`` of the solver's kernel, against
    closed vertex-link paths drawn as random walks from the gluings alone:
    every pruned vector keeps every path condition, while some vector of
    the solver's kernel breaks one."""

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3"])
    def test_annihilates_random_link_walks(self, name, request):
        tri = request.getfixturevalue(name)
        shapes = request.getfixturevalue(f"{name}_shapes")
        assignment = solve_flattenings(tri, shapes)
        pruned = pruning._prune_kernel(tri, assignment.kernel)
        rng = random.Random(11)
        raw_broken = False
        for _ in range(200):
            pq = pass_rows(path_terms(tri, random_link_walk(tri, rng))).pq

            def dot(vec):
                # pq is sparse: {col: coeff}, so zip would pair its keys
                return sum(c * vec[j] for j, c in pq.items())

            for vec in pruned:
                assert dot(vec) == 0
            raw_broken |= any(dot(vec) for vec in assignment.kernel)
        assert pruned
        assert raw_broken

    @pytest.mark.parametrize(
        "name",
        ["fig8", "fig8_cover3"]
        + [f"cover{n}-{how}" for n in (1, 3, 5, 8, 9)
           for how in ("tets", "vertices")],
    )
    def test_one_elimination_matches_second_solve(self, name, request,
                                                  monkeypatch):
        # the pruned basis, read off one Hermite form of the deduplicated
        # functionals beside the kernel, is byte for byte the one the
        # second integer solve and its matrix product gave
        if name.startswith("cover"):
            n, how = name[len("cover"):].split("-")
            tri = parse_triangulation(
                relabeled_cover(int(n), how == "vertices"))
            shapes = solve_shapes(tri).shapes
        else:
            tri = request.getfixturevalue(name)
            shapes = request.getfixturevalue(f"{name}_shapes")
        calls = []

        def counted(a, b):
            calls.append(len(a))
            return solve_integer_system(a, b)

        monkeypatch.setattr(flattening, "solve_integer_system", counted)
        kernel = solve_flattenings(tri, shapes).kernel
        pruned = pruning._prune_kernel(tri, kernel)
        assert len(calls) == 1
        assert pruned == hnf(reference_prune_kernel(tri, kernel))

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3"])
    def test_random_kernels_match_second_solve(self, name, request):
        # random kernels give several independent link functionals; the
        # pruned basis is the HNF of the lattice the second solve gives
        tri = request.getfixturevalue(name)
        width = 2 * tri.num_tetrahedra + len(tri.combinatorics.cusp_rows)
        rng = random.Random(15)
        for _ in range(30):
            k = [[rng.randint(-2, 2) for _ in range(width)]
                 for _ in range(rng.randint(2, 5))]
            assert pruning._prune_kernel(tri, k) == hnf(
                reference_prune_kernel(tri, k))

    @pytest.mark.parametrize(
        "name", ["fig8_cover3", "fig8+fig8", "fig8+fig8_cover3"])
    def test_kernel_basis_does_not_matter(self, name):
        # the pruned basis depends on the kernel lattice only: neither on
        # the basis the solver picked nor on the order in which the walk
        # meets the functionals that basis gives
        tri, _, kernel = _solved(
            _union(name) if "+" in name else _fixture_doc(name))
        pruned = pruning._prune_kernel(tri, kernel)
        assert pruned
        rng = random.Random(16)
        for _ in range(10):
            u = random_unimodular(rng, len(kernel))
            assert pruning._prune_kernel(tri, matmul(u, kernel)) == pruned


FIXTURE_NAMES = ["fig8", "fig8_cover3", "fig8_cover8", "fig8_cover32"]


def _fixture_doc(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _solved(doc):
    """The parsed triangulation, its shapes and the solver's kernel."""
    tri = parse_triangulation(doc)
    shapes = solve_shapes(tri).shapes
    return tri, shapes, solve_flattenings(tri, shapes).kernel


def _off_pi2_lattice(shift):
    """How far Re ``shift`` lies from pi^2 Z, in units of pi^2."""
    ratio = shift.real / PI_SQUARED
    return abs(ratio - round(ratio))


def _shuffled_cover3(seed):
    """fig8_cover3 with its tetrahedra shuffled by the benchmark's
    generator, vertex labels kept."""
    return perfbench_inputs().relabel(
        _fixture_doc("fig8_cover3"), random.Random(seed), vertices=False)


class TestRogersShift:
    """A kernel vector k moves the signed Rogers sum by ``rogers_shift``:
    (pi i / 2) sum_t eps_t (k_p,t log(1 - z_t) + k_q,t log z_t).  vol does
    not depend on the flattening chosen when its imaginary part is 0 on
    every generator, and cs when its real part lies in pi^2 Z."""

    def test_closed_form_is_the_rogers_sum_difference(
        self, fig8_cover3, fig8_cover3_shapes
    ):
        tri, shapes = fig8_cover3, fig8_cover3_shapes
        base = solve_flattenings(tri, shapes)
        x = [p for pair in base.pq() for p in pair]
        before = lifted_rogers_sum(base.signed_terms())
        for k in base.kernel:
            shifted = _assignment_from_vector(
                tri, shapes, [a + b for a, b in zip(x, k)], base.defect,
                base.kernel)
            after = lifted_rogers_sum(shifted.signed_terms())
            assert abs(after - before - rogers_shift(tri, shapes, k)) < 1e-9

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_no_generator_moves_vol(self, name):
        tri, shapes, kernel = _solved(_fixture_doc(name))
        for k in kernel + pruning._prune_kernel(tri, kernel):
            assert abs(rogers_shift(tri, shapes, k).imag) < 1e-9

    @pytest.mark.parametrize(
        "name",
        FIXTURE_NAMES + [f"fig8_cover3-shuffle{seed}" for seed in range(12)],
    )
    def test_pruned_generators_keep_cs(self, name):
        if "-shuffle" in name:
            doc = _shuffled_cover3(int(name.rpartition("shuffle")[2]))
        else:
            doc = _fixture_doc(name)
        tri, shapes, kernel = _solved(doc)
        pruned = pruning._prune_kernel(tri, kernel)
        assert pruned
        for k in pruned:
            assert _off_pi2_lattice(rogers_shift(tri, shapes, k)) < 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the enforced system leaves a generator that moves cs by "
               "pi^2/2; the link's cycle rows would remove it")
    def test_enforced_generators_keep_cs(self, fig8, fig8_shapes):
        kernel = solve_flattenings(fig8, fig8_shapes).kernel
        for k in kernel:
            assert _off_pi2_lattice(rogers_shift(fig8, fig8_shapes, k)) < 1e-9


#: degrees of the plain cyclic covers of fig8 the oracle climbs, T <= 24
LADDER = range(1, 13)


@functools.cache
def _ladder(degree):
    """The benchmark's plain ``degree``-fold cyclic cover of fig8, solved."""
    inputs = perfbench_inputs()
    return _solved(inputs.cyclic_cover(inputs.FIG8, degree))


class TestLadder:
    """``rogers_shift`` on every kernel generator of the plain cyclic covers
    of fig8.  Whether every generator keeps cs is a property of the lattice,
    so it does not depend on the basis: the enforced kernel holds a pi^2/2
    generator on every odd degree and none on even ones; the pruned kernel
    is clean on all of them."""

    @pytest.mark.parametrize("degree", LADDER)
    def test_no_enforced_generator_moves_vol(self, degree):
        tri, shapes, kernel = _ladder(degree)
        for k in kernel:
            assert abs(rogers_shift(tri, shapes, k).imag) < 1e-12

    @pytest.mark.parametrize("degree", LADDER)
    def test_pruned_generators_keep_cs(self, degree):
        tri, shapes, kernel = _ladder(degree)
        pruned = pruning._prune_kernel(tri, kernel)
        assert pruned
        for k in pruned:
            assert _off_pi2_lattice(rogers_shift(tri, shapes, k)) < 1e-9

    @pytest.mark.parametrize("degree", [
        d if d % 2 == 0 else pytest.param(d, marks=pytest.mark.xfail(
            strict=True,
            reason="the enforced system leaves a generator that moves cs "
                   "by pi^2/2 on odd degrees"))
        for d in LADDER])
    def test_enforced_generators_keep_cs(self, degree):
        tri, shapes, kernel = _ladder(degree)
        for k in kernel:
            assert _off_pi2_lattice(rogers_shift(tri, shapes, k)) < 1e-9


#: the 36 seeded vertex relabelings of fig8 and of its 3- and 5-fold
#: cyclic covers (the benchmark's ``relabel``, seeds 0-11), frozen: where
#: each one's cs goes wrong, and its cs in units of pi^2/6 (0 is right).
#: "kernel": the pruned kernel holds a generator that moves cs by pi^2/2,
#: so the link's log conditions do not fix cs.  "R": the pruned kernel is
#: clean, and the Rogers sum itself is off by k pi^2/6.
RELABELING_SPLIT = {
    "fig8": [("kernel", 2), ("kernel", 0), ("R", 1), ("R", 1),
             ("kernel", 0), ("kernel", 2), ("R", 2), ("kernel", 0),
             ("R", 1), ("kernel", 0), ("kernel", 0), ("R", 1)],
    "fig8_cover3": [("kernel", 4), ("kernel", 4), ("kernel", 5),
                    ("kernel", 1), ("kernel", 5), ("kernel", 3),
                    ("kernel", 2), ("kernel", 4), ("kernel", 3),
                    ("kernel", 0), ("kernel", 3), ("kernel", 3)],
    "fig8_cover5": [("kernel", 4), ("kernel", 3), ("kernel", 5), ("R", 4),
                    ("kernel", 0), ("kernel", 3), ("kernel", 5),
                    ("kernel", 1), ("kernel", 4), ("kernel", 3),
                    ("kernel", 0), ("kernel", 5)],
}
_COVER_DEGREE = {"fig8": 1, "fig8_cover3": 3, "fig8_cover5": 5}


@functools.cache
def _relabeled(base, seed):
    """A relabeling of ``RELABELING_SPLIT``, solved: the triangulation, its
    shapes, the enforced and the pruned kernel, and cs."""
    inputs = perfbench_inputs()
    doc = inputs.FIG8
    if _COVER_DEGREE[base] > 1:
        doc = inputs.cyclic_cover(doc, _COVER_DEGREE[base])
    tri, shapes, kernel = _solved(inputs.relabel(doc, random.Random(seed)))
    cs = complex_volume(tri, shapes, solve_flattenings(tri, shapes))[1]
    return tri, shapes, kernel, pruning._prune_kernel(tri, kernel), cs


def _relabelings(fails=lambda side, k: False, reason=""):
    """Every relabeling as a parameter, a strict xfail where ``fails`` of
    its (side, k) entry holds."""
    return [
        pytest.param(base, seed, id=f"{base}-{seed}", marks=[
            pytest.mark.xfail(strict=True, reason=reason)
        ] if fails(*entry) else [])
        for base, row in RELABELING_SPLIT.items()
        for seed, entry in enumerate(row)
    ]


class TestVertexRelabelings:
    """``rogers_shift`` on the 36 vertex relabelings.  No generator moves
    vol.  cs is wrong on 28 of them: on 22 the pruned kernel holds a pi^2/2
    generator, and 6 have a clean pruned kernel and a cs off by k pi^2/6;
    the pruned kernel is not clean on 8 more whose cs happens to be
    right."""

    @pytest.mark.parametrize("base, seed", _relabelings())
    def test_no_generator_moves_vol(self, base, seed):
        tri, shapes, kernel, pruned, _ = _relabeled(base, seed)
        for k in kernel + pruned:
            assert abs(rogers_shift(tri, shapes, k).imag) < 1e-11

    def test_split(self):
        found = {}
        for base, row in RELABELING_SPLIT.items():
            found[base] = []
            for seed in range(len(row)):
                tri, shapes, _, pruned, cs = _relabeled(base, seed)
                clean = all(_off_pi2_lattice(rogers_shift(tri, shapes, k))
                            < 1e-9 for k in pruned)
                sixths = cs / (PI_SQUARED / 6)
                assert abs(sixths - round(sixths)) < 1e-9
                found[base].append(("R" if clean else "kernel",
                                    round(sixths) % 6))
        assert found == RELABELING_SPLIT

    @pytest.mark.parametrize("base, seed", _relabelings(
        lambda side, k: side == "kernel",
        "the pruned kernel holds a generator that moves cs by pi^2/2"))
    def test_pruned_generators_keep_cs(self, base, seed):
        tri, shapes, _, pruned, _ = _relabeled(base, seed)
        for k in pruned:
            assert _off_pi2_lattice(rogers_shift(tri, shapes, k)) < 1e-9

    @pytest.mark.parametrize("base, seed", _relabelings(
        lambda side, k: k != 0,
        "cs of a vertex-relabeled input is off by k pi^2/6"))
    def test_cs_is_zero(self, base, seed):
        assert _relabeled(base, seed)[4] == 0.0


#: (vol, enforced kernel rank, pruned kernel rank) of each disjoint union
UNIONS = {
    "fig8+fig8": (4.059766425638614, 4, 2),
    "fig8+fig8_cover3": (8.119532851277228, 8, 6),
}


def _union(name, seed=None, vertices=False):
    """The named disjoint union; with a seed, its tetrahedra shuffled and,
    with ``vertices``, their vertices renamed by even permutations."""
    doc = disjoint_union(*map(_fixture_doc, name.split("+")))
    if seed is None:
        return doc
    perms = EVEN_PERMS if vertices else [(0, 1, 2, 3)]
    return relabel_document(doc, random.Random(seed), perms)


class TestTwoCusps:
    """Disjoint unions of fig8 and its 3-fold cover: the first inputs with
    two cusps, one per component, each component's vol and kernel ranks
    adding up."""

    @pytest.mark.parametrize("name", list(UNIONS))
    def test_cvol_adds_the_components(self, name, tmp_path, capsys):
        from cvol.cli import main

        path = tmp_path / "union.json"
        path.write_text(json.dumps(_union(name)))
        code = main(["--format", "json", "cvol", str(path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        report = json.loads(out)
        assert report["volume"] == UNIONS[name][0]
        assert report["cs_mod_pi2"] == 0.0

    @pytest.mark.parametrize("name", list(UNIONS))
    @pytest.mark.parametrize("seed, vertices", [
        (None, False), (0, False), (1, False), (2, True), (3, True)])
    def test_kernels(self, name, seed, vertices):
        tri = parse_triangulation(_union(name, seed, vertices))
        shapes = solve_shapes(tri).shapes
        assignment = solve_flattenings(tri, shapes)
        pruned = pruning._prune_kernel(tri, assignment.kernel)
        vol, *ranks = UNIONS[name]
        assert len(tri.combinatorics.vertices) == 2
        assert abs(complex_volume(tri, shapes, assignment)[0] - vol) < 1e-9
        assert [len(assignment.kernel), len(pruned)] == ranks
        assert lattice_equal(
            pruned, reference_prune_kernel(tri, assignment.kernel))

    @pytest.mark.parametrize("name", list(UNIONS))
    @pytest.mark.parametrize("seed", [None, *range(12)])
    def test_pruned_generators_keep_cs(self, name, seed):
        # tetrahedron shuffles only: renamed vertices bring the k pi^2/6
        # error of unordered vertices into the pruned kernel
        tri, shapes, kernel = _solved(_union(name, seed))
        for k in pruning._prune_kernel(tri, kernel):
            assert _off_pi2_lattice(rogers_shift(tri, shapes, k)) < 1e-9


def _parity_input(name):
    """A document of ``TestPathParities``: a fixture, a vertex relabeling
    ("fig8-3"), a tetrahedron shuffle of fig8_cover3 ("shuffle-3"), a
    disjoint union or a ladder cover ("ladder-3")."""
    kind, _, arg = name.rpartition("-")
    if name in FIXTURE_NAMES:
        return _fixture_doc(name)
    if name in UNIONS:
        return _union(name)
    if kind == "shuffle":
        return _shuffled_cover3(int(arg))
    inputs = perfbench_inputs()
    if kind == "ladder":
        return inputs.cyclic_cover(inputs.FIG8, int(arg))
    doc = inputs.FIG8
    if _COVER_DEGREE[kind] > 1:
        doc = inputs.cyclic_cover(doc, _COVER_DEGREE[kind])
    return inputs.relabel(doc, random.Random(int(arg)))


class TestPathParities:
    """The flattening system holds one log row per edge and per supplied
    cusp path over the 2T branch indices.  A path's parity is its log row
    mod 2 plus its count of w2 passes, so it is the same at every solution;
    on every input it is even."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES
                             + [f"{base}-{seed}" for base in RELABELING_SPLIT
                                for seed in range(12)]
                             + [f"shuffle-{seed}" for seed in range(12)]
                             + list(UNIONS)
                             + [f"ladder-{degree}" for degree in LADDER])
    def test_parities_are_even(self, name):
        tri = parse_triangulation(_parity_input(name))
        shapes = solve_shapes(tri).shapes
        comb = tri.combinatorics
        rows, rhs = flattening._build_system(tri, shapes, 1e-9)
        assert len(rows) == len(rhs) == len(comb.edge_rows) + len(
            comb.cusp_rows)
        assert {len(row) for row in rows} == {2 * tri.num_tetrahedra}
        assignment = solve_flattenings(tri, shapes)
        assert comb.cusp_rows
        assert assignment.path_parities == [0] * len(comb.cusp_rows)
        assert {len(k) for k in assignment.kernel} <= {2 * tri.num_tetrahedra}

    def test_odd_parity_is_refused(self, monkeypatch, tmp_path, capsys):
        # fig8 with its first cusp path only, whose constant is off by one:
        # its log row still has solutions, all of odd parity.  With both
        # paths the second, dependent one refuses any shift by itself
        from cvol.cli import main
        from cvol.errors import InconsistentSystemError

        doc = _fixture_doc("fig8")
        doc["cusp_paths"] = doc["cusp_paths"][:1]
        tri = parse_triangulation(doc)
        shapes = solve_shapes(tri).shapes
        assert solve_flattenings(tri, shapes).path_parities == [0]
        pi_i_multiple = flattening._pi_i_multiple

        def shifted(value, tol, what):
            return pi_i_multiple(value, tol, what) + (
                what == "cusp path 0 constant")

        monkeypatch.setattr(flattening, "_pi_i_multiple", shifted)
        with pytest.raises(InconsistentSystemError):
            solve_flattenings(tri, shapes)
        path = tmp_path / "fig8-one-path.json"
        path.write_text(json.dumps(doc))
        code = main(["--format", "json", "cvol", str(path)])
        out, err = capsys.readouterr()
        assert code != 0
        assert out == ""
        assert "error at stage solve_flattenings" in err


class TestCycleRelation:
    @staticmethod
    def three_term(rng):
        x, y = random_ft_plus(rng)
        p0, p1, q0, q1, q2 = (rng.randint(-3, 3) for _ in range(5))
        simplices = [
            CycleSimplex(x, p0, q0, +1, 0, 2, 1),
            CycleSimplex(y, p1, q1, -1, 0, 1, 2),
            CycleSimplex(y / x, p1 - p0, q2, +1, 0, 2, 1),
        ]
        return simplices, (x, y)

    def test_three_simplex_case(self):
        rng = random.Random(8)
        for _ in range(25):
            simplices, base = self.three_term(rng)
            assert cycle_relation_check(simplices, base)

    def test_folded_case(self):
        rng = random.Random(9)
        for _ in range(25):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.4))
            p, q, q2 = (rng.randint(-3, 3) for _ in range(3))
            simplices = [
                CycleSimplex(z, p, q, +1, 0, 2, 1),
                CycleSimplex(z, p, q2, -1, 0, 1, 2),
            ]
            assert cycle_relation_check(simplices, (z, None))

    def test_edge_sum_off_by_more_than_rounding_refused(self):
        # the precondition is a rounding bound, not the comparison
        # tolerance: an edge sum off by 1e-6 is refused even at tol=1e-3
        simplices, base = self.three_term(random.Random(8))
        assert cycle_relation_check(simplices, base, 1e-3)
        s = simplices[0]
        simplices[0] = CycleSimplex(s.shape * cmath.exp(1e-6), s.p, s.q,
                                    s.sign, s.edge_slot, s.top_slot,
                                    s.bottom_slot)
        with pytest.raises(NonIntegralError):
            cycle_relation_check(simplices, base, 1e-3)

    def test_precondition_violation_detected(self):
        z = 0.4 + 0.5j
        simplices = [
            CycleSimplex(z, 0, 0, +1, 0, 2, 1),
            CycleSimplex(z, 1, 0, -1, 0, 1, 2),  # log sum pi*i, not 0
        ]
        with pytest.raises(NonIntegralError):
            cycle_relation_check(simplices, (z, None))

    def test_homo_special_case(self):
        # lowering every q by one around the edge is an instance, and the
        # lowered element equals the original in the extended Bloch group
        rng = random.Random(10)
        for _ in range(10):
            simplices, base = self.three_term(rng)
            lowered = [CycleSimplex(s.shape, s.p, s.q - 1, s.sign, s.edge_slot,
                                    s.top_slot, s.bottom_slot)
                       for s in simplices]
            assert cycle_relation_check(lowered, base)
            terms = {}
            for s, t in zip(simplices, lowered):
                for key, coeff in ((ExtendedParam(s.shape, s.p, s.q), s.sign),
                                   (ExtendedParam(t.shape, t.p, t.q), -t.sign)):
                    terms[key] = terms.get(key, 0) + coeff
            difference = EBElement(terms)
            assert r_of_element(difference).distance_to_zero() < 1e-9
            assert nu_symbolic(difference, base).is_zero()

    def test_odd_parity_is_refused(self):
        # x * 1/(1 - (1 + x)) = -1: the log sum vanishes with p = -1, but
        # the parity p + q is odd.  Only where the parameter product is -1
        # does the parity say more than the log sum.
        x = 0.3 + 0.7j

        def simplices(p):
            return [CycleSimplex(x, p, 0, +1, 0, 1, 2),
                    CycleSimplex(1 + x, 0, 0, +1, 1, 0, 2)]

        with pytest.raises(NonIntegralError,
                           match="^parity sum around the edge is odd$"):
            cycle_relation_check(simplices(-1), (x, None))
        with pytest.raises(NonIntegralError,
                           match="^signed log-parameter sum around the edge"):
            cycle_relation_check(simplices(0), (x, None))


class TestComplexVolume:
    def test_fixture_values(self, fig8, fig8_shapes):
        assignment = solve_flattenings(fig8, fig8_shapes)
        vol, cs = complex_volume(fig8, fig8_shapes, assignment)
        assert vol == pytest.approx(2.029883212819307, abs=1e-9)
        cs_class = reduce_mod(complex(cs), PI_SQUARED)
        assert cs_class.distance_to_zero() < 1e-9

    def test_cover_cs_class_zero_prints_zero(self, fig8_cover3, fig8_cover3_shapes):
        # unsnapped, the Rogers sum leaves cs = 1.78e-15 here
        assignment = solve_flattenings(fig8_cover3, fig8_cover3_shapes)
        vol, cs = complex_volume(fig8_cover3, fig8_cover3_shapes, assignment)
        assert vol == pytest.approx(3 * 2.029883212819307, abs=1e-12)
        assert cs == 0.0

    @pytest.mark.parametrize(
        "name",
        ["fig8", "fig8_cover3"]
        + [f"cover{n}-{how}" for n in (3, 5, 8)
           for how in ("plain", "relabeled")],
    )
    def test_same_bits_as_fundamental_element(self, name, request):
        # summing R over the merged terms directly is the Rogers sum of the
        # fundamental element, bit for bit
        if name.startswith("cover"):
            n, how = name[len("cover"):].split("-")
            inputs = perfbench_inputs()
            doc = (inputs.cyclic_cover(inputs.FIG8, int(n)) if how == "plain"
                   else relabeled_cover(int(n), True))
            tri = parse_triangulation(doc)
            shapes = solve_shapes(tri).shapes
        else:
            tri = request.getfixturevalue(name)
            shapes = request.getfixturevalue(f"{name}_shapes")
        assignment = solve_flattenings(tri, shapes)
        element = fundamental_element(tri, assignment)
        if name == "cover8-relabeled":
            # two tetrahedra share (z, p, q): a sum per tetrahedron would
            # add the same values in another order
            assert len(element.terms) < tri.num_tetrahedra
        value = r_of_element(element).value
        cs = reduce_mod(complex(-value.real, 0.0), PI_SQUARED).value.real
        assert complex_volume(tri, shapes, assignment) == (
            value.imag, snap_cs(cs, tri.num_tetrahedra))

    @pytest.mark.parametrize("name", ["fig8_cover8", "fig8_cover32"])
    def test_rogers_sum_against_mpmath(self, name):
        # the float Rogers sum behind complex_volume against a 50-digit
        # one over the same float shapes and flattening integers: vol and
        # the unsnapped cs stay within T eps pi^2, one ulp of pi^2 per
        # tetrahedron (1.4e-13 at T = 64, where the errors are 1.9e-14
        # and 3.9e-15; 3.5e-14 at T = 16, where both are 2.5e-15)
        tri = _load(name)
        shapes = solve_shapes(tri).shapes
        assignment = solve_flattenings(tri, shapes)
        terms = assignment.signed_terms()
        value = reduce_mod(lifted_rogers_sum(terms), PI_SQUARED).value
        vol, _ = complex_volume(tri, shapes, assignment)
        assert vol == value.imag
        cs = reduce_mod(complex(-value.real, 0.0), PI_SQUARED).value.real
        bound = tri.num_tetrahedra * sys.float_info.epsilon * PI_SQUARED
        with mpmath.workdps(50):
            exact = rogers_sum_mp(terms, 50)
            assert abs(vol - exact.imag) <= bound
            # cs against -Re(exact), as classes modulo pi^2
            gap, pi2 = cs + exact.real, mpmath.pi ** 2
            assert abs(gap - pi2 * mpmath.nint(gap / pi2)) <= bound

    def test_snap_just_below_pi_squared(self):
        assert snap_cs(math.nextafter(PI_SQUARED, 0.0), 2) == 0.0
        assert snap_cs(PI_SQUARED - 1e-15, 2) == 0.0

    def test_snap_just_above_zero(self):
        assert snap_cs(1e-15, 2) == 0.0
        assert snap_cs(5e-324, 1) == 0.0

    def test_snap_keeps_values_beyond_the_bound(self):
        # the bound is CS_ZERO_ULPS * T * eps * pi^2: 3.5e-14 at T = 2
        for cs in (1e-12, PI_SQUARED - 1e-12, PI_SQUARED / 2, 1.0):
            assert snap_cs(cs, 2) == cs
        assert snap_cs(5e-14, 6) == 0.0
        assert snap_cs(5e-14, 2) == 5e-14


class TestNuInvisibility:
    def test_kernel_shift_invisible_to_nu(self, fig8, fig8_shapes):
        # At the regular solution every log z_i and log(1-z_i) is a rational
        # multiple of pi*i (arg +-pi/3, modulus 1), so any wedge combination
        # of them is a multiple of (pi i) ^ (pi i) = 0: the difference element
        # of two particular solutions has vanishing wedge image identically.
        for z in fig8_shapes:
            for w in (z, 1 - z):
                log = cmath.log(w)
                assert abs(log.real) < 1e-12
                ratio = log.imag / math.pi * 6
                assert abs(ratio - round(ratio)) < 1e-9
        assignment = solve_flattenings(fig8, fig8_shapes)
        pruned = pruning._prune_kernel(fig8, assignment.kernel)
        shifted = alternate_assignment(
            fig8, fig8_shapes, assignment, [1 for _ in pruned]
        )
        base_value = r_of_element(fundamental_element(fig8, assignment))
        new_value = r_of_element(fundamental_element(fig8, shifted))
        assert base_value.is_close(new_value, tol=1e-9)
