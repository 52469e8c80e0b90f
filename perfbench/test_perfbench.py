"""Fast tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import sys

import pytest

import checks
import child
import inputs
import run
import tracer
import workloads

sys.path.insert(0, str(child.SRC))
import cvol  # noqa: E402

BENCHMARK = json.loads((child.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [2, 3, 4, 64])
def test_covers_parse_with_two_n_tetrahedra(n):
    cover = inputs.cyclic_cover(inputs.FIG8, n)
    doc = inputs.relabel(cover, random.Random(n))
    for d in (cover, doc):
        tri = cvol.parse_triangulation(d)
        assert tri.num_tetrahedra == 2 * n
        assert len(tri.cusp_paths) == 2
        assert len(inputs.vertex_classes(d)) == 1


def test_fig8_cocycle_is_the_known_class():
    assert inputs.find_cocycle(inputs.FIG8) == [1, 1, 0, 0]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("small", 7, tmp_path / "a")
    b = workloads.build("small", 7, tmp_path / "b")
    c = workloads.build("small", 8, tmp_path / "c")
    text = [[open(op.argv[-1]).read() for op in ops[:4]]
            for _, ops in (a, b, c)]
    assert text[0] == text[1] != text[2]


def test_relabeled_double_cover_keeps_the_volume():
    cover = inputs.cyclic_cover(inputs.FIG8, 2)
    tri = cvol.parse_triangulation(inputs.relabel(cover, random.Random(3)))
    shapes = cvol.solve_shapes(tri).shapes
    vol, _ = cvol.complex_volume(tri, shapes,
                                 cvol.solve_flattenings(tri, shapes))
    assert abs(vol - 2 * inputs.FIG8_VOLUME) <= 2e-9


def _cs_distances(ops):
    out = []
    for op in ops:
        tri = cvol.parse_triangulation(open(op.argv[-1]).read())
        shapes = cvol.solve_shapes(tri).shapes
        _, cs = cvol.complex_volume(tri, shapes,
                                    cvol.solve_flattenings(tri, shapes))
        out.append(checks.cs_distance_to_zero(cs))
    return out


def test_small_inputs_keep_cs(tmp_path):
    _, ops = workloads.build("small", 11, tmp_path)
    assert max(_cs_distances(ops[:4])) <= checks.CS_TOL


@pytest.mark.xfail(strict=True, reason="known defect: cs is k * pi^2 / 6 "
                   "on most vertex-relabeled inputs")
def test_vertex_relabeled_inputs_keep_cs(tmp_path):
    ops = workloads.defect_probes(11, tmp_path)
    assert max(_cs_distances(ops)) <= checks.CS_TOL


def test_cs_is_checked_on_the_circle():
    good = json.dumps({"volume": inputs.FIG8_VOLUME,
                       "cs_mod_pi2": 9.869604401089354})
    assert checks.check_output("cvol", 1, 0, False, good)[0] == []
    bad = json.dumps({"volume": inputs.FIG8_VOLUME,
                      "cs_mod_pi2": 9.869604401089354 / 6})
    assert checks.check_output("cvol", 1, 0, False, bad)[0] == ["cs"]
    assert checks.check_output("cvol", 1, 0, True, good)[0] == ["timeout"]
    assert checks.check_output("homology", 64, 2, False, "")[0] == [
        "exit", "homology"]


def test_bad_output_is_counted_as_failed(tmp_path, monkeypatch):
    wrong = json.dumps({"volume": 1.0, "cs_mod_pi2": 0.0})
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(run, "run_child", lambda cmd: child.Outcome(
        0.01, 0, False, 30.0, wrong, ""))
    result = run.measure("small", 1, 0.05)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["failures"]["vol"] == result["attempted"]
    assert result["failures"]["cs"] == 0


def test_times_are_rescaled_to_the_reference_speed(monkeypatch):
    loops = iter([2.0, 4.0, 2.0])
    monkeypatch.setattr(run, "loop_time",
                        lambda: next(loops) * run.REFERENCE_LOOP_S)
    speed = run.SpeedScale()
    assert speed.scale(3.0) == pytest.approx(1.0)
    assert speed.scale(3.0) == pytest.approx(1.0)


def test_tracer_wraps_every_binding_and_tolerates_absent_functions(
        monkeypatch):
    modules = tracer._import_cvol()
    flattening = sys.modules["cvol.flattening"]
    intlinalg = sys.modules["cvol.intlinalg"]
    original = intlinalg.solve_integer_system
    monkeypatch.delattr(sys.modules["cvol.triangulation"],
                        "vertex_link_cycles")
    monkeypatch.delattr(flattening, "vertex_link_cycles")
    monkeypatch.delattr(cvol, "vertex_link_cycles", raising=False)
    t = tracer.Tracer()
    absent = t.prepare(modules)
    assert absent == ["triangulation.vertex_link_cycles"]
    t.install()
    try:
        assert flattening.solve_integer_system is not original
        assert intlinalg.solve_integer_system is \
            flattening.solve_integer_system
        intlinalg.rank([[2, 4], [1, 2]])
    finally:
        t.uninstall()
    assert flattening.solve_integer_system is original
    totals = t.totals()
    assert totals["intlinalg.rank"][0] == 1
    assert totals["intlinalg.row_hnf"][0] == 1
    rank_self = totals["intlinalg.rank"][2]
    assert rank_self <= totals["intlinalg.rank"][1]


def test_metric_and_workload_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        tracer.PER_LAYER
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: spec.why for name, spec in workloads.WORKLOADS.items()}
