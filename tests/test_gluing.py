"""Gluing equations and the Newton shape solver."""

import cmath
import copy
import json
import math
import random
import types

import numpy as np
import pytest

from cvol.bloch import bloch_wigner
from cvol.errors import ConvergenceError, CVolError, DegenerateGeometryError
from cvol.geometry import pass_rows
from cvol.gluing import _min_norm_step, gluing_equations, solve_shapes
from cvol.triangulation import parse_triangulation
from oracles import random_terms, reference_exponent_row, relabel_document

REGULAR = cmath.exp(1j * math.pi / 3)


def _max_abs(values) -> float:
    return max(map(abs, values), default=0.0)


def _dense(jac, n):
    out = np.zeros((len(jac), n), dtype=complex)
    for i, row in enumerate(jac):
        for t, d in row:
            out[i, t] += d
    return out


def _lstsq_step(jac, res, n):
    step, *_ = np.linalg.lstsq(_dense(jac, n), -np.array(res), rcond=None)
    return step


def _load(fixtures, name, cusp_paths=True):
    doc = json.loads((fixtures / f"{name}.json").read_text())
    if not cusp_paths:
        doc.pop("cusp_paths")
    return parse_triangulation(doc)


@pytest.fixture(scope="module")
def fixtures(fig8_path):
    return fig8_path.parent


class TestGluingEquations:
    def test_fixture_structure(self, fig8):
        system = gluing_equations(fig8)
        assert len(system.edge_rows) == 2
        assert len(system.cusp_rows) == 2
        for row in system.rows():
            assert {tet for tet, *_ in row} <= {0, 1}
        assert not system.edge_flattened_only

    def test_edge_row_sum_identity(self, fig8):
        # each tetrahedron contributes every slot twice in total, so the
        # summed edge equations read 2(log z + log z' + log z'') per tet
        # with total target 2 pi i * (number of edges)
        system = gluing_equations(fig8)
        total = {(tet, slot): 0 for tet in range(2) for slot in range(3)}
        for row in system.edge_rows:
            for tet, *abc in row:
                for slot, exponent in enumerate(abc):
                    total[tet, slot] += exponent
        assert set(total.values()) == {2}

    def test_exponent_rows_match_reference(self, fig8, fixtures):
        # the fixtures, then conditions drawn with repeated simplices,
        # cancelling slots and weights +-1, +-2
        rng = random.Random(18)
        drawn = types.SimpleNamespace(
            edge_rows=[pass_rows(random_terms(rng, 4)) for _ in range(200)],
            cusp_rows=[pass_rows(random_terms(rng, 4)) for _ in range(200)],
        )
        tris = [fig8, _load(fixtures, "fig8_cover3"),
                types.SimpleNamespace(combinatorics=drawn)]
        for tri in tris:
            comb = tri.combinatorics
            system = gluing_equations(tri)
            assert system.edge_rows == [
                reference_exponent_row(e.terms) for e in comb.edge_rows]
            assert system.cusp_rows == [
                reference_exponent_row(c.terms) for c in comb.cusp_rows]

    def test_no_cusp_paths_flagged(self, fig8_doc):
        doc = copy.deepcopy(fig8_doc)
        doc.pop("cusp_paths")
        system = gluing_equations(parse_triangulation(doc))
        assert system.edge_flattened_only

    def test_residual_at_solution(self, fig8):
        system = gluing_equations(fig8)
        res = system.residual([REGULAR, REGULAR])
        assert _max_abs(res) < 1e-12


class TestMinNormStep:
    def test_zero_jacobian_raises(self):
        with pytest.raises(ConvergenceError, match="no nonzero row"):
            _min_norm_step([[(0, 0j), (1, 0j)], [(1, 0j)]], [1 + 0j, 2j], 2)

    def test_non_finite_step_raises(self):
        with pytest.raises(ConvergenceError, match="not finite"):
            _min_norm_step([[(0, 1 + 0j)]], [complex(math.inf, 0)], 1)

    def test_rank_deficient_matches_lstsq(self):
        # rank 1: the second row is twice the first, the third is zero, and
        # the right-hand side is inconsistent; lstsq's minimum-norm
        # least-squares step is the oracle
        jac = [[(0, 1 + 1j), (1, 2 + 0j)], [(0, 2 + 2j), (1, 4 + 0j)],
               [(2, 0j)]]
        res = [1 + 0j, 3 - 1j, 0.5j]
        step = _min_norm_step(jac, res, 3)
        assert np.allclose(step, _lstsq_step(jac, res, 3), rtol=0,
                           atol=1e-14)
        assert step[2] == 0

    def test_random_rank_deficient_match_lstsq(self):
        rng = random.Random(3)
        for _ in range(50):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            rank = rng.randint(1, min(m, n) - 1)
            left = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                              for _ in range(rank)] for _ in range(m)])
            right = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for _ in range(n)] for _ in range(rank)])
            dense = left @ right
            jac = [[(t, complex(dense[i, t])) for t in range(n)]
                   for i in range(m)]
            res = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                   for _ in range(m)]
            expected = _lstsq_step(jac, res, n)
            step = np.array(_min_norm_step(jac, res, n))
            assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(
                expected
            )

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3", "fig8_cover8"])
    def test_equals_lstsq_on_gluing_systems(self, fixtures, name):
        # at eps * Im z > 0 the summed edge rows vanish identically, so the
        # edge-only system is consistent and the min-norm step is unique;
        # with cusp rows the system is overdetermined and the step is the
        # least-squares one
        rng = random.Random(name)
        for cusp_paths in (False, True):
            tri = _load(fixtures, name, cusp_paths)
            system = gluing_equations(tri)
            n = tri.num_tetrahedra
            for _ in range(20):
                shapes = [
                    complex(rng.uniform(-0.5, 1.5),
                            eps * rng.uniform(0.2, 1.5))
                    for eps in tri.combinatorics.signs
                ]
                jac = system.jacobian(shapes)
                res = system.residual(shapes)
                expected = _lstsq_step(jac, res, n)
                step = np.array(_min_norm_step(jac, res, n))
                assert np.linalg.norm(step - expected) <= (
                    1e-9 * np.linalg.norm(expected)
                )


class TestSolveShapes:
    def test_converges_to_regular(self, fig8):
        solution = solve_shapes(fig8)
        for z in solution.shapes:
            assert abs(z - REGULAR) < 1e-10
        assert solution.residual < 1e-12
        assert solution.geometric

    def test_solved_initial_needs_no_iterations(self, fig8):
        solution = solve_shapes(fig8, initial=[REGULAR, REGULAR])
        assert solution.iterations == 0
        assert solution.history == []

    def test_real_initial_rejected(self, fig8):
        with pytest.raises(DegenerateGeometryError):
            solve_shapes(fig8, initial=[0.5, 0.5])

    def test_volume_positive_for_geometric(self, fig8):
        solution = solve_shapes(fig8)
        assert sum(bloch_wigner(z) for z in solution.shapes) > 0

    def test_various_initials_converge(self, fig8):
        rng = random.Random(0)
        for _ in range(50):
            initial = [
                complex(rng.uniform(0.2, 0.8), rng.uniform(0.4, 1.2))
                for _ in range(2)
            ]
            solution = solve_shapes(fig8, initial=initial)
            for z in solution.shapes:
                assert abs(z - REGULAR) < 1e-10

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3"])
    def test_edge_only_converges_to_regular(self, fixtures, name):
        # edge rows alone have rank T - 1: the minimum-norm step still
        # reaches the complete structure from the symmetric start
        solution = solve_shapes(_load(fixtures, name, cusp_paths=False))
        assert _max_abs(z - REGULAR for z in solution.shapes) < 1e-10

    def test_max_iter_enforced(self, fig8):
        with pytest.raises(ConvergenceError):
            solve_shapes(fig8, initial=[5 + 5j, -5 + 5j], max_iter=1)

    def test_edge_and_cusp_sums_at_solution(self, fig8):
        solution = solve_shapes(fig8)
        system = gluing_equations(fig8)
        res = system.residual(solution.shapes)
        n_edges = len(system.edge_rows)
        assert _max_abs(res[:n_edges]) < 1e-12
        assert _max_abs(res[n_edges:]) < 1e-12

    def test_wrong_initial_count_rejected(self, fig8):
        with pytest.raises(ValueError):
            solve_shapes(fig8, initial=[REGULAR])

    def test_history(self, fig8):
        solution = solve_shapes(fig8)
        assert len(solution.history) == solution.iterations == 4
        residuals = [r for r, _ in solution.history]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == solution.residual
        assert all(halvings == 0 for _, halvings in solution.history)

    def test_history_counts_halvings(self, fig8):
        # from high above the solution the first full step overshoots and
        # the line search halves it once
        solution = solve_shapes(fig8, initial=[0.5 + 3j, 0.5 + 3j])
        assert [h for _, h in solution.history] == [1, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("name", ["fig8_cover8", "fig8_cover32"])
    def test_relabeled_covers_converge_in_four(self, fixtures, name):
        doc = json.loads((fixtures / f"{name}.json").read_text())
        rng = random.Random(1)
        for _ in range(3):
            tri = parse_triangulation(relabel_document(doc, rng))
            solution = solve_shapes(tri)
            assert solution.iterations == 4
            bound = 8 * tri.num_tetrahedra * 2.0**-52
            assert _max_abs(z - REGULAR for z in solution.shapes) <= bound

    def test_singular_step_is_a_stage_error(
        self, fig8_path, monkeypatch, capsys
    ):
        # a Jacobian with no nonzero row fails the Newton stage with exit 2,
        # not with a ZeroDivisionError
        from cvol import gluing
        from cvol.cli import main

        monkeypatch.setattr(gluing, "_slot_log_derivatives",
                            lambda z: (0j, 0j, 0j))
        assert main(["cvol", str(fig8_path)]) == 2
        err = capsys.readouterr().err
        assert "error at stage solve_shapes" in err
        assert "no nonzero row" in err


_NON_FINITE = [complex(math.nan, 1), complex(0.3, math.nan),
               complex(math.inf, 1), complex(0.3, -math.inf)]


class TestNonFiniteShapes:
    """A NaN or inf shape is refused, and no solution is returned whose
    residual is not below ``tol``: ``max`` skips a NaN that is not the
    first entry, and ``>=`` against NaN is False."""

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
    def test_refused(self, fixtures, bad, position):
        tri = _load(fixtures, "fig8_cover3")
        shapes = list(solve_shapes(tri).shapes)
        shapes[position] = bad
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            solve_shapes(tri, initial=shapes)

    @pytest.mark.parametrize("position", [0, 2])
    def test_nan_residual_never_converges(self, fixtures, monkeypatch,
                                          position):
        # with the shape check off, the NaN residual rows still keep Newton
        # from reporting convergence
        from cvol import gluing

        tri = _load(fixtures, "fig8_cover3")
        shapes = list(solve_shapes(tri).shapes)
        shapes[position] = complex(math.nan, 1)
        monkeypatch.setattr(gluing, "_check_nondegenerate",
                            lambda shapes, what: None)
        with pytest.raises(CVolError):
            solve_shapes(tri, initial=shapes)
