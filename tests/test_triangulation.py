"""Parser, edge classes, orientation signs, and normal paths."""

import copy
import itertools
import json
import pathlib
import random
import re

import pytest

from cvol.errors import TriangulationError
from cvol.geometry import EDGE_SLOT
from cvol.triangulation import (
    Gluing,
    NormalPath,
    PathStep,
    Triangulation,
    edge_classes,
    edge_loop,
    link_step,
    orientation_signs,
    parse_triangulation,
    path_passes,
    vertex_classes,
)

from oracles import (
    random_link_walk,
    reference_edge_classes,
    reference_link_arcs,
    reference_orientation_signs,
    reference_path_passes,
    reference_vertex_classes,
    relabel_document,
    relabeled_cover,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

DELETE = object()
GLUING = ("tetrahedra", 0, "gluings")
STEP = ("cusp_paths", 0, 0)

#: (place of a 0 or 1 in a fig8 document, message when it is a boolean);
#: the ids where0..where5 predate the cases of perm[1] to perm[3]
PERM_MESSAGE = "gluing (0,0) needs a permutation of 0..3"
BOOLEAN_CASES = [
    (GLUING + (0, "tet"), "gluing (0,0) targets bad tet"),
    (GLUING + (0, "perm", 0), PERM_MESSAGE),
    (STEP[:2] + (1, "tet"), "cusp path 0 step 1: ints required"),
    (STEP + ("enter_face",), "cusp path 0 step 0: ints required"),
    (STEP[:2] + (1, "exit_face"), "cusp path 0 step 1: ints required"),
    (("shapes", 1, 0), "shapes entries must be [re, im] of finite numbers"),
    *[(GLUING + (0, "perm", i), PERM_MESSAGE) for i in (1, 2, 3)],
]

#: case -> (edits of the fig8 document as (path, value), exact message);
#: the empty path replaces the whole document and ``DELETE`` drops a key
PARSE_MESSAGES = {
    "not-an-object": ([((), [])], "triangulation document must be an object"),
    "unknown-key": ([(("extra",), 1)], "unknown keys ['extra'] in triangulation"),
    "missing-key": ([(("tetrahedra",), DELETE)],
                    "missing keys ['tetrahedra'] in triangulation"),
    "unknown-before-missing": (
        [(("name",), DELETE), (("extra",), 1)],
        "unknown keys ['extra'] in triangulation",
    ),
    "name-not-string": ([(("name",), 1)], "name must be a string"),
    "no-tetrahedra": ([(("tetrahedra",), [])],
                      "tetrahedra must be a non-empty list"),
    "tetrahedra-not-list": ([(("tetrahedra",), {})],
                            "tetrahedra must be a non-empty list"),
    "tet-not-object": ([(("tetrahedra", 1), [])],
                       "tetrahedron 1 must be an object"),
    "tet-unknown-key": ([(("tetrahedra", 0, "x"), 1)],
                        "unknown keys ['x'] in tetrahedron 0"),
    "tet-missing-key": ([(("tetrahedra", 0, "gluings"), DELETE)],
                        "missing keys ['gluings'] in tetrahedron 0"),
    "three-gluings": ([((*GLUING, 3), DELETE)],
                      "tetrahedron 0 needs exactly 4 gluings"),
    "gluings-not-list": ([(GLUING, "abcd")],
                         "tetrahedron 0 needs exactly 4 gluings"),
    "gluing-not-object": ([((*GLUING, 2), 1)],
                          "gluing (0,2) must be an object"),
    "gluing-unknown-key": ([((*GLUING, 2, "x"), 1)],
                           "unknown keys ['x'] in gluing (0,2)"),
    "gluing-missing-key": ([((*GLUING, 2, "perm"), DELETE)],
                           "missing keys ['perm'] in gluing (0,2)"),
    "target-too-large": ([((*GLUING, 1, "tet"), 2)],
                         "gluing (0,1) targets bad tet"),
    "target-negative": ([((*GLUING, 1, "tet"), -1)],
                        "gluing (0,1) targets bad tet"),
    "target-float": ([((*GLUING, 1, "tet"), 1.0)],
                     "gluing (0,1) targets bad tet"),
    "target-before-perm": (
        [((*GLUING, 1, "tet"), 2), ((*GLUING, 1, "perm"), [0, 0, 2, 3])],
        "gluing (0,1) targets bad tet",
    ),
    "perm-repeated": ([((*GLUING, 0, "perm"), [0, 0, 2, 3])],
                      "gluing (0,0) needs a permutation of 0..3"),
    "perm-short": ([((*GLUING, 0, "perm"), [0, 2, 1])],
                   "gluing (0,0) needs a permutation of 0..3"),
    "perm-out-of-range": ([((*GLUING, 0, "perm"), [1, 2, 3, 4])],
                          "gluing (0,0) needs a permutation of 0..3"),
    "perm-float": ([((*GLUING, 0, "perm"), [0, 2, 1, 3.0])],
                   "gluing (0,0) needs a permutation of 0..3"),
    "perm-huge": ([((*GLUING, 0, "perm"), [0, 2, 1, 10**30])],
                  "gluing (0,0) needs a permutation of 0..3"),
    "perm-not-list": ([((*GLUING, 0, "perm"), {"0": 0})],
                      "gluing (0,0) needs a permutation of 0..3"),
    "glued-to-itself": ([((*GLUING, 0, "tet"), 0),
                         ((*GLUING, 0, "perm"), [0, 1, 2, 3])],
                        "face (0,0) is glued to itself"),
    "non-inverse-perm": ([((*GLUING, 0, "perm"), [1, 0, 2, 3])],
                         "gluing (0,0) is not involutive with inverse "
                         "permutation"),
    "target-not-glued-back": (
        [((*GLUING, 0, "tet"), 0), ((*GLUING, 0, "perm"), [1, 0, 2, 3])],
        "gluing (0,0) is not involutive with inverse permutation",
    ),
    "schema-before-involution": (
        [((*GLUING, 0, "perm"), [1, 0, 2, 3]),
         (("tetrahedra", 1, "gluings", 3, "tet"), 5)],
        "gluing (1,3) targets bad tet",
    ),
    "cusp-paths-not-list": ([(("cusp_paths",), {})],
                            "cusp_paths must be a list"),
    "empty-cusp-path": ([(("cusp_paths", 1), [])],
                        "cusp path 1 must be a non-empty list"),
    "cusp-path-not-list": ([(("cusp_paths", 0), {})],
                           "cusp path 0 must be a non-empty list"),
    "step-not-object": ([(("cusp_paths", 0, 1), 5)],
                        "step 1 of cusp path 0 malformed"),
    "step-unknown-key": ([((*STEP, "x"), 1)],
                         "unknown keys ['x'] in cusp path 0 step 0"),
    "step-missing-key": ([((*STEP, "exit_face"), DELETE)],
                         "missing keys ['exit_face'] in cusp path 0 step 0"),
    "step-float": ([((*STEP, "enter_face"), 1.0)],
                   "cusp path 0 step 0: ints required"),
    "unlinked-path": (
        [(("cusp_paths",), [[{"tet": 0, "enter_face": 0, "exit_face": 1}] * 2])],
        "path steps 0 -> 1 are not linked by a gluing",
    ),
    "involution-before-paths": (
        [((*GLUING, 0, "perm"), [1, 0, 2, 3]), (("cusp_paths",), {})],
        "gluing (0,0) is not involutive with inverse permutation",
    ),
    "shapes-not-list": ([(("shapes",), {})],
                        "shapes must list one [re, im] per tet"),
    "shapes-too-few": ([(("shapes",), [[0.5, 0.8]])],
                       "shapes must list one [re, im] per tet"),
    "shape-too-short": ([(("shapes",), [[0.5, 0.8], [0.5]])],
                        "shapes entries must be [re, im] of finite numbers"),
    "shape-not-number": ([(("shapes",), [[0.5, 0.8], [0.5, "i"]])],
                         "shapes entries must be [re, im] of finite numbers"),
    "paths-before-shapes": (
        [(("cusp_paths",), {}), (("shapes",), {})],
        "cusp_paths must be a list",
    ),
    # a pair of inverse even permutations across faces 0 of both
    # tetrahedra: the other three gluings are odd
    "not-orientable": (
        [((*GLUING, 0, "perm"), [0, 2, 3, 1]),
         (("tetrahedra", 1, "gluings", 0, "perm"), [0, 3, 1, 2])],
        "complex is not orientable (gluing at (0,1) conflicts)",
    ),
    "shapes-before-orientation": (
        [((*GLUING, 0, "perm"), [0, 2, 3, 1]),
         (("tetrahedra", 1, "gluings", 0, "perm"), [0, 3, 1, 2]),
         (("shapes",), {})],
        "shapes must list one [re, im] per tet",
    ),
    "orientation-before-paths": (
        [((*GLUING, 0, "perm"), [0, 2, 3, 1]),
         (("tetrahedra", 1, "gluings", 0, "perm"), [0, 3, 1, 2]),
         (("cusp_paths", 0, 0, "tet"), 7)],
        "complex is not orientable (gluing at (0,1) conflicts)",
    ),
}


class TestParser:
    def test_fixture_parses(self, fig8_doc):
        tri = parse_triangulation(fig8_doc)
        assert tri.num_tetrahedra == 2
        assert len(tri.cusp_paths) == 2

    @pytest.mark.parametrize(
        "edits, message", PARSE_MESSAGES.values(), ids=PARSE_MESSAGES.keys()
    )
    def test_parse_message(self, fig8_doc, edits, message):
        # each case edits the fig8 document and pins the exact message;
        # where a case breaks several things, the message shows which
        # check comes first
        doc = copy.deepcopy(fig8_doc)
        for path, value in edits:
            if not path:
                doc = value
                continue
            *outer, key = path
            container = doc
            for k in outer:
                container = container[k]
            if value is DELETE:
                del container[key]
            else:
                container[key] = value
        with pytest.raises(TriangulationError,
                           match=f"^{re.escape(message)}$"):
            parse_triangulation(doc)

    def test_shapes_hint_round_trip(self, fig8_doc):
        doc = copy.deepcopy(fig8_doc)
        doc["shapes"] = [[0.5, 0.8], [0.5, 0.9]]
        tri = parse_triangulation(doc)
        assert tri.shape_hints == [0.5 + 0.8j, 0.5 + 0.9j]

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "401-digit"],
    )
    def test_shapes_must_be_finite_floats(self, fig8_doc, value):
        # Python's json reads NaN, Infinity and -Infinity, and integers of
        # any length
        doc = copy.deepcopy(fig8_doc)
        doc["shapes"] = [[0.5, 0.8], [0.5, value]]
        with pytest.raises(TriangulationError, match="finite"):
            parse_triangulation(doc)
        with pytest.raises(TriangulationError, match="finite"):
            parse_triangulation(json.dumps(doc))

    def test_json_string_accepted(self, fig8_doc):
        tri = parse_triangulation(json.dumps(fig8_doc))
        assert tri.num_tetrahedra == 2

    @pytest.mark.parametrize(
        "text",
        ['{"name": ', b'{"name": "\xff"}', "[" * 100000],
        ids=["truncated", "not-utf8", "deep-nesting"],
    )
    def test_malformed_json_text_rejected(self, text):
        with pytest.raises(TriangulationError,
                           match="^document is not valid JSON: "):
            parse_triangulation(text)

    @pytest.mark.parametrize(
        "where, message",
        [pytest.param(*case, id=f"where{i}")
         for i, case in enumerate(BOOLEAN_CASES)],
    )
    def test_json_boolean_is_not_a_number(self, fig8_doc, where, message):
        # the entry is 0 or 1 in fig8 or in one of its relabelings, and the
        # document parses with it; the JSON boolean of the same truth value
        # must not, although a permutation such as (True, False, 2, 3)
        # hashes and compares equal to (1, 0, 2, 3)
        *outer, key = where
        relabelings = (relabel_document(fig8_doc, random.Random(seed))
                       for seed in range(50))
        for doc in (copy.deepcopy(fig8_doc), *relabelings):
            doc["shapes"] = [[0.5, 0.8], [1, 0.9]]
            container = doc
            for k in outer:
                container = container[k]
            if container[key] in (0, 1):
                break
        assert container[key] in (0, 1)
        parse_triangulation(doc)
        container[key] = bool(container[key])
        with pytest.raises(TriangulationError, match=f"^{re.escape(message)}$"):
            parse_triangulation(doc)

    @pytest.mark.parametrize(
        "steps, message",
        [
            ([(2, 1, 3), (1, 2, 1)], "path step 0 references bad tet"),
            ([(0, 1, 4), (1, 2, 1)], "path step 0 has bad faces"),
            ([(0, 3, 3), (1, 2, 1)],
             "path step 0 enters and exits the same face"),
            ([(0, 1, 3), (0, 2, 1)],
             "path steps 0 -> 1 are not linked by a gluing"),
            # linked and closed, but the vertex it tracks comes back as
            # another
            ([(0, 0, 1), (1, 1, 0)],
             "path does not stay in a single vertex link"),
        ],
        ids=["bad-tet", "bad-faces", "same-face", "not-linked",
             "leaves-vertex-link"],
    )
    def test_malformed_cusp_path_rejected(self, fig8_doc, steps, message):
        # the fig8 meridian is [(0, 1, 3), (1, 2, 1)]; each case breaks it
        doc = copy.deepcopy(fig8_doc)
        doc["cusp_paths"] = [[
            {"tet": tet, "enter_face": enter, "exit_face": exit_}
            for tet, enter, exit_ in steps
        ]]
        with pytest.raises(TriangulationError,
                           match=f"^{re.escape(message)}$"):
            parse_triangulation(doc)

    def test_cusp_terms_are_the_path_passes(self, fig8):
        comb = fig8.combinatorics
        assert [c.terms for c in comb.cusp_rows] == [
            [(tet, EDGE_SLOT[pair], rot)
             for tet, pair, rot in path_passes(fig8, path)]
            for path in fig8.cusp_paths
        ]


class TestEdgeClasses:
    def test_two_classes_of_valence_six(self, fig8):
        classes = edge_classes(fig8)
        assert len(classes) == 2
        assert [e.valence for e in classes] == [6, 6]

    def test_total_incidences(self, fig8):
        classes = edge_classes(fig8)
        assert sum(e.valence for e in classes) == 6 * fig8.num_tetrahedra

    def test_each_slot_in_one_class(self, fig8):
        classes = edge_classes(fig8)
        seen = set()
        for e in classes:
            for tet, pair, _ in e.incidences:
                assert (tet, pair) not in seen
                seen.add((tet, pair))
        assert len(seen) == 12

    def test_edge_count_equals_tet_count(self, fig8):
        # ideal triangulation of a cusped manifold
        assert len(edge_classes(fig8)) == fig8.num_tetrahedra

    def test_edge_glued_to_itself_reversed(self):
        # one tetrahedron, faces 0 <-> 1 by (1,0,2,3) and 2 <-> 3 by
        # (0,2,3,1): the walk comes back to its edge reversed.  parse
        # refuses the table first, as a complex that is not orientable: an
        # edge glued to itself reversed has a midpoint whose link is a
        # projective plane, so no orientable complex reaches the edge check
        swap, turn = (1, 0, 2, 3), (0, 2, 3, 1)
        inverse = tuple(turn.index(v) for v in range(4))
        gluings = [[Gluing(0, swap), Gluing(0, swap),
                    Gluing(0, turn), Gluing(0, inverse)]]
        with pytest.raises(TriangulationError,
                           match="^edge link is not orientable$"):
            edge_classes(Triangulation("one", gluings, [], None))
        doc = {"name": "one", "tetrahedra": [{"gluings": [
            {"tet": 0, "perm": list(g.perm)} for g in gluings[0]]}]}
        with pytest.raises(TriangulationError,
                           match="^complex is not orientable "):
            parse_triangulation(doc)


class TestOrientation:
    def test_fixture_orientable_all_plus(self, fig8):
        assert orientation_signs(fig8) == [1, 1]

    def test_orientation_reversing_gluing_rejected(self, fig8_doc):
        doc = copy.deepcopy(fig8_doc)
        doc.pop("cusp_paths", None)
        # swap two values in one gluing pair (keeping the involution) to make
        # the permutation parity flip
        g = doc["tetrahedra"][0]["gluings"][0]
        perm = list(g["perm"])
        # find the inverse entry on the glued side
        other_tet = g["tet"]
        f_img = perm[0]
        composed = [None] * 4
        # compose with a transposition of two non-face slots on the target
        swap = {0: 0, 1: 1, 2: 2, 3: 3}
        a, b = [v for v in range(4) if v != f_img][:2]
        swap[a], swap[b] = swap[b], swap[a]
        new_perm = [swap[v] for v in perm]
        doc["tetrahedra"][0]["gluings"][0]["perm"] = new_perm
        inverse = [new_perm.index(v) for v in range(4)]
        doc["tetrahedra"][other_tet]["gluings"][f_img]["perm"] = inverse
        with pytest.raises(TriangulationError):
            parse_triangulation(doc)


class TestNormalPaths:
    def test_edge_loop_structure(self, fig8):
        for e in edge_classes(fig8):
            loop = edge_loop(fig8, e)
            assert len(loop) == e.valence
            passes = path_passes(fig8, loop)
            passed_pairs = {(t, pair) for t, pair, _ in passes}
            incidence_pairs = {(t, pair) for t, pair, _ in e.incidences}
            assert passed_pairs == incidence_pairs

    def test_edge_loop_signs_constant(self, fig8):
        for e in edge_classes(fig8):
            signs = {s for *_, s in path_passes(fig8, edge_loop(fig8, e))}
            assert len(signs) == 1

    def test_reversed_path_negates_signs(self, fig8):
        loop = edge_loop(fig8, edge_classes(fig8)[0])
        forward = [s for *_, s in path_passes(fig8, loop)]
        backward = [s for *_, s in path_passes(fig8, loop.reversed())]
        assert backward == [-s for s in reversed(forward)]

    def test_cusp_path_passes(self, fig8):
        # hand-traced on the fixture: each step passes the edge disjoint
        # from its entry and exit faces
        for path in fig8.cusp_paths:
            passes = path_passes(fig8, path)
            for step, (tet, pair, _sign) in zip(path.steps, passes):
                assert tet == step.tet
                assert set(pair) == {0, 1, 2, 3} - {step.enter_face,
                                                    step.exit_face}

    def test_edge_loop_z2_passes_even(self, fig8):
        # evenness of 02/13 passes around every edge (the parity claim for
        # flattenings with all indices zero, equivalently evenness of the
        # beta*(omega) defect)
        for e in edge_classes(fig8):
            loop = edge_loop(fig8, e)
            count = sum(
                1 for _, pair, _s in path_passes(fig8, loop)
                if EDGE_SLOT[pair] == 2
            )
            assert count % 2 == 0

    def test_link_state_graph_degrees(self, fig8, fig8_cover3):
        # in- and out-degree 2 everywhere make every component strongly
        # connected, which exact kernel pruning relies on
        for tri in (fig8, fig8_cover3):
            states = [
                state for state in itertools.product(
                    range(tri.num_tetrahedra), range(4), range(4))
                if state[1] != state[2]
            ]
            # one step out across each of the two other faces
            heads = [link_step(tri, *state, f)[0]
                     for state in states for f in range(4)
                     if f not in state[1:]]
            assert len(states) == 12 * tri.num_tetrahedra
            assert sorted(heads) == sorted(2 * states)


def _outcome(passes, tri, path):
    """The passes of a path, or the message it is refused with."""
    try:
        return passes(tri, path)
    except ValueError as exc:
        return str(exc)


def _closed_normal_path(tri, rng):
    """A closed path linked by the gluings, exit faces drawn freely, so it
    need not stay in one vertex link."""
    start = state = (rng.randrange(tri.num_tetrahedra), rng.randrange(4))
    steps = []
    while True:
        tet, enter = state
        exit_ = rng.choice([f for f in range(4) if f != enter])
        steps.append(PathStep(tet, enter, exit_))
        g = tri.gluing(tet, exit_)
        state = (g.tet, g.perm[exit_])
        if state == start:
            return NormalPath(tuple(steps))


class TestReferenceWalks:
    """The edge, vertex and sign walks, the path passes and the link state
    graph against the earlier walks kept in ``tests/oracles.py``, on seeded
    relabelings."""

    @pytest.mark.parametrize(
        "name", ["fig8", "fig8_cover3", "fig8_cover8", "cover64"])
    def test_walks_match_reference(self, name):
        # 50 seeded relabelings of a fixture; cover64 is one seeded
        # relabeling of the T=128 cyclic cover
        if name == "cover64":
            relabelings = [(relabeled_cover(64, True), random.Random(64))]
        else:
            doc = json.loads((FIXTURES / f"{name}.json").read_text())
            relabelings = (
                (relabel_document(doc, rng), rng)
                for rng in map(random.Random, range(50))
            )
        for relabeled, rng in relabelings:
            self.check(parse_triangulation(relabeled), rng)

    @pytest.mark.parametrize("name", ["fig8", "fig8_cover3", "fig8_cover8"])
    def test_walks_match_reference_under_any_vertex_order(self, name):
        # 20 seeded relabelings with vertex renamings drawn from all 24
        # permutations, so that some orientation signs are -1
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        perms = list(itertools.permutations(range(4)))
        signs = set()
        for rng in map(random.Random, range(20)):
            tri = parse_triangulation(relabel_document(doc, rng, perms))
            signs.update(tri.combinatorics.signs)
            self.check(tri, rng)
        assert -1 in signs

    @staticmethod
    def check(tri, rng):
        edges = edge_classes(tri)
        assert [(e.incidences, e.faces) for e in edges] == (
            reference_edge_classes(tri)
        )
        vertices = reference_vertex_classes(tri)
        assert vertex_classes(tri) == vertices
        assert list(tri.combinatorics.vertex_of.items()) == [
            (slot, k) for k, orbit in enumerate(vertices)
            for slot in orbit
        ]
        assert orientation_signs(tri) == reference_orientation_signs(tri)
        paths = [
            *tri.cusp_paths,
            *(edge_loop(tri, e) for e in edges),
            *(random_link_walk(tri, rng) for _ in range(20)),
        ]
        for path in paths:
            assert path_passes(tri, path) == (
                reference_path_passes(tri, path)
            )
        # every state, and per exit face in increasing order
        reference = reference_link_arcs(tri)
        assert len(reference) == 12 * tri.num_tetrahedra
        for (tet, vertex, enter), out in reference.items():
            assert [
                link_step(tri, tet, vertex, enter, exit_)
                for exit_ in range(4) if exit_ not in (vertex, enter)
            ] == out

    def test_malformed_paths_match_reference(self, fig8_cover3):
        tri = fig8_cover3
        rng = random.Random(5)
        refused = set()
        for _ in range(500):
            base = rng.choice([random_link_walk, _closed_normal_path])
            steps = list(base(tri, rng).steps)
            if rng.random() < 0.7:
                k = rng.randrange(len(steps))
                tet, enter, exit_ = (steps[k].tet, steps[k].enter_face,
                                     steps[k].exit_face)
                which = rng.randrange(3)
                if which == 0:
                    tet = rng.randrange(-1, tri.num_tetrahedra + 1)
                elif which == 1:
                    enter = rng.randrange(-1, 5)
                else:
                    exit_ = rng.randrange(-1, 5)
                steps[k] = PathStep(tet, enter, exit_)
            path = NormalPath(tuple(steps))
            got = _outcome(path_passes, tri, path)
            assert got == _outcome(reference_path_passes, tri, path)
            if isinstance(got, str):
                refused.add(re.sub(r"\d+", "#", got))
        # every refusal kind came up
        assert len(refused) == 5


class TestVertexClasses:
    def test_single_cusp(self, fig8):
        assert len(vertex_classes(fig8)) == 1


class TestSpecExamples:
    def test_missing_gluings_rejected(self):
        # boundary faces are not supported: every face must be glued
        doc = {"name": "open", "tetrahedra": [{"gluings": []}]}
        with pytest.raises(TriangulationError):
            parse_triangulation(doc)

    def test_global_sign_flip_also_consistent(self, fig8):
        # the sign rule eps' = -sign(perm) * eps is invariant under a global
        # flip, so the assignment is unique only up to one per component
        from cvol.triangulation import perm_parity

        signs = orientation_signs(fig8)
        for flip in (1, -1):
            flipped = [flip * s for s in signs]
            for t in range(fig8.num_tetrahedra):
                for f in range(4):
                    g = fig8.gluing(t, f)
                    assert flipped[g.tet] == -perm_parity(g.perm) * flipped[t]

    def test_fixture_meridian_passed_edges(self, fig8):
        # hand-traced: each step passes the edge disjoint from its faces
        path = fig8.cusp_paths[0]
        passes = path_passes(fig8, path)
        traced = [(t, pair) for t, pair, _ in passes]
        expected = [
            (s.tet, tuple(sorted(set(range(4)) - {s.enter_face, s.exit_face})))
            for s in path.steps
        ]
        assert traced == expected


class TestEdgeClassEndpoints:
    def test_endpoints_in_vertex_classes(self, fig8):
        links = vertex_classes(fig8)
        for e in edge_classes(fig8):
            for slot in e.endpoints():
                assert any(slot in orbit for orbit in links)
