"""Quasi-simplicial ideal triangulations: data model, parser, derived data.

A triangulation is a list of tetrahedra whose faces are glued in pairs.
Face f of a tetrahedron is the face opposite vertex f; a gluing stores the
target tetrahedron and a vertex permutation ``perm`` (length-4 array,
perm[v] = image vertex) carrying face f to face perm[f].  The gluing
relation must be a fixed-point-free involution with inverse permutations,
and the complex must be orientable away from its vertices.

Derived structure: edge classes (orbits of tetrahedron edges under the
gluings), vertex classes, orientation signs and normal paths.  A normal
path is a closed sequence of steps (tet, enter_face, exit_face); within
each tetrahedron it passes the unique edge shared by the two faces.  In a
vertex link it walks the states (tet, tracked vertex, enter face);
``link_step``, the one transition from state to state, also says what each
step passes.  ``path_passes`` and ``cvol.pruning._prune_kernel`` call it
in place; no graph of the link states is built.

The gluing table is read through tables built once at import: the parity
and the inverse of each of the 24 permutations, and the sorted pair of
each ordered vertex pair.  The walks index ``Triangulation.gluings``
directly and mark what they have seen in a ``bytearray`` indexed by
6 * tet + pair or 4 * tet + vertex.
What derives from the gluings and the cusp paths is computed once per
triangulation into a ``Combinatorics``: at parse, the edge classes with the
faces crossed on the walk around each edge (``edge_loop`` and the face rows
of ``cvol.jcomplex.h1_mod2`` read them), the vertex classes, the
orientation signs, the (tet, vertex) -> vertex lookup and the passes of
each cusp path, whose walk is the path's check: a cusp path that leaves its
vertex link fails there, at parse.  After that walk, parse refuses a
triangulation with a vertex link that is not a torus: the link of a vertex
class with F slots is a surface of F triangles and 3F/2 sides with one
vertex per edge end there, so its Euler characteristic is ends - F/2,
counted from the edge classes' ``endpoints``.  The condition table, one
``cvol.geometry.PassRows`` entry per edge (``edge_rows``) and per cusp path
(``cusp_rows``), which every later stage reads, is built the first time it
is read, so ``edges`` builds none of it and ``homology`` only the edges'.

Conditions on log-parameters are lists of (tet, slot, weight) terms,
meaning sum weight * w_slot(tet), slots as in ``cvol.geometry``.  One
weight rule holds everywhere: the terms of an edge carry the orientation
sign eps of their tetrahedron, and the terms of a normal path carry the
rotation sign of the step, which is already measured in the tetrahedron's
own vertex order.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import cached_property
from itertools import combinations, permutations

from .errors import TriangulationError
from .geometry import EDGE_SLOT, PassRows, Term, pass_rows
from .params import Value

_PERM_PARITY = {
    perm: (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(4), 2))
    for perm in permutations(range(4))
}
_PERM_INVERSE = {perm: tuple(map(perm.index, range(4))) for perm in _PERM_PARITY}
#: the six sorted vertex pairs, which key ``EDGE_SLOT``, in the order the
#: edge walk starts from them
_PAIRS = tuple(combinations(range(4), 2))
#: [a][b] -> index in ``_PAIRS`` of the pair {a, b}
_PAIR_INDEX = [[_PAIRS.index((min(a, b), max(a, b))) if a != b else -1
                for b in range(4)] for a in range(4)]


def perm_parity(perm: tuple[int, ...]) -> int:
    """+1 for even permutations of (0,1,2,3), -1 for odd."""
    return _PERM_PARITY[perm]


class Gluing(namedtuple("Gluing", "tet perm")):
    """Face gluing to ``tet`` (int) by ``perm`` (tuple of four ints)."""

    __slots__ = ()


class PathStep(namedtuple("PathStep", "tet enter_face exit_face")):
    """One step of a normal path: a tetrahedron and its faces (ints)."""

    __slots__ = ()


class NormalPath(Value):
    """Closed normal path given by its cyclic step list."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[PathStep, ...]) -> None:
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def reversed(self) -> "NormalPath":
        return NormalPath(
            tuple(
                PathStep(s.tet, s.exit_face, s.enter_face)
                for s in reversed(self.steps)
            )
        )


class EdgeClass(namedtuple("EdgeClass", "index incidences faces")):
    """Orbit of (tet, vertex-pair) incidences around edge ``index`` (int).

    The tuple ``incidences`` lists (tet, pair, orientation) in cyclic order
    around the edge; orientation records whether the propagated edge
    direction agrees with the pair's canonical (min, max) order.  The tuple
    ``faces`` lists, per incidence, the (enter, exit) faces of the walk.
    """

    __slots__ = ()

    @property
    def valence(self) -> int:
        return len(self.incidences)

    def endpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Endpoint (tet, vertex) slots of the representative incidence,
        oriented consistently with the stored orientation."""
        tet, (a, b), orient = self.incidences[0]
        return ((tet, a), (tet, b)) if orient > 0 else ((tet, b), (tet, a))


class Triangulation:
    combinatorics: Combinatorics  # set by parse_triangulation

    def __init__(self, name: str, gluings: list[list[Gluing]],
                 cusp_paths: list[NormalPath],
                 shape_hints: list[complex] | None) -> None:
        self.name, self.gluings = name, gluings  # gluings[tet][face]
        self.cusp_paths, self.shape_hints = cusp_paths, shape_hints

    @property
    def num_tetrahedra(self) -> int:
        return len(self.gluings)

    def gluing(self, tet: int, face: int) -> Gluing:
        return self.gluings[tet][face]


class Combinatorics:
    """Data derived from the gluings and the cusp paths, built once per
    triangulation.  The glued face pairs are not listed: the walk around
    each edge crosses one per step (``EdgeClass.faces``).

    The walks run at parse; the condition table (``edge_rows`` and
    ``cusp_rows``) is built the first time it is read, from the edge
    classes and from the passes that validated each cusp path at parse.
    """

    def __init__(self, edges: list[EdgeClass],
                 vertices: list[list[tuple[int, int]]], signs: list[int],
                 cusp_passes: list[list[tuple[int, tuple[int, int], int]]]
                 ) -> None:
        self.edges, self.vertices, self.signs = edges, vertices, signs
        self.vertex_of: dict[tuple[int, int], int] = {
            slot: index for index, orbit in enumerate(vertices)
            for slot in orbit
        }
        self.cusp_passes = cusp_passes

    @classmethod
    def of(cls, tri: Triangulation) -> Combinatorics:
        signs = orientation_signs(tri)  # raises for non-orientable complexes
        edges = edge_classes(tri)
        vertices = vertex_classes(tri)
        # raises for a cusp path that is not a closed normal path in one
        # vertex link
        passes = [path_passes(tri, path) for path in tri.cusp_paths]
        comb = cls(edges, vertices, signs, passes)
        # a link of F triangles has 3F/2 sides and a vertex per edge end,
        # so its Euler characteristic is ends - F/2
        chi = [-(len(orbit) // 2) for orbit in vertices]
        for edge in edges:
            for slot in edge.endpoints():
                chi[comb.vertex_of[slot]] += 1
        for k, c in enumerate(chi):
            if c:
                raise TriangulationError(f"vertex link {k} is not a torus "
                                         f"(Euler characteristic {c})")
        return comb

    @cached_property
    def edge_rows(self) -> list[PassRows]:
        """One entry per edge class; each term weighs its simplex's sign."""
        signs = self.signs
        return [
            pass_rows([(tet, EDGE_SLOT[pair], signs[tet])
                       for tet, pair, _ in e.incidences])
            for e in self.edges
        ]

    @cached_property
    def cusp_rows(self) -> list[PassRows]:
        """One entry per cusp path."""
        return [pass_rows(_terms(passes)) for passes in self.cusp_passes]


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise TriangulationError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise TriangulationError(f"missing keys {sorted(missing)} in {where}")


_STEP_KEYS = set(PathStep._fields)
_GLUING_KEYS = {"tet", "perm"}
_TET_KEYS = {"gluings"}
_INT4 = (int,) * 4
_FACES = range(4)
#: vertex -> the three faces that contain it
_OTHER_FACES = [tuple(f for f in _FACES if f != v) for v in _FACES]


def _is_int(value) -> bool:
    """A JSON integer; JSON true and false parse to bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number that is a finite float: JSON parsers admit NaN,
    Infinity and integers too large for a float."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def parse_triangulation(document: dict | str | bytes) -> Triangulation:
    """Parse and validate the JSON triangulation format.

    Checks: schema strictness, permutation validity, fixed-point-free
    involution with inverse permutations, face carried to face, orientability
    and that each cusp path is linked, closed and stays in one vertex link.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 included
            raise TriangulationError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise TriangulationError("triangulation document must be an object")
    _require_keys(
        document,
        {"name", "tetrahedra", "cusp_paths", "shapes"},
        {"name", "tetrahedra"},
        "triangulation",
    )
    name = document["name"]
    if not isinstance(name, str):
        raise TriangulationError("name must be a string")
    tets = document["tetrahedra"]
    if not isinstance(tets, list) or not tets:
        raise TriangulationError("tetrahedra must be a non-empty list")

    # Each check below first tries the form every valid document has (exact
    # key sets, plain ints); the full check, with its message, runs only
    # when that fails.
    n = len(tets)
    gluings: list[list[Gluing]] = []
    for t, entry in enumerate(tets):
        if not isinstance(entry, dict):
            raise TriangulationError(f"tetrahedron {t} must be an object")
        if entry.keys() != _TET_KEYS:
            _require_keys(entry, _TET_KEYS, _TET_KEYS, f"tetrahedron {t}")
        raw = entry["gluings"]
        if not isinstance(raw, list) or len(raw) != 4:
            raise TriangulationError(f"tetrahedron {t} needs exactly 4 gluings")
        row = []
        for f, g in enumerate(raw):
            if not isinstance(g, dict):
                raise TriangulationError(f"gluing ({t},{f}) must be an object")
            if g.keys() != _GLUING_KEYS:
                _require_keys(g, _GLUING_KEYS, _GLUING_KEYS, f"gluing ({t},{f})")
            target, perm = g["tet"], g["perm"]
            if (
                not (type(target) is int or _is_int(target))
                or not 0 <= target < n
            ):
                raise TriangulationError(f"gluing ({t},{f}) targets bad tet")
            if not (
                isinstance(perm, list)
                and (tuple(map(type, perm)) == _INT4
                     or all(map(_is_int, perm)))
                and (key := tuple(perm)) in _PERM_PARITY
            ):
                raise TriangulationError(
                    f"gluing ({t},{f}) needs a permutation of 0..3"
                )
            row.append(Gluing(target, key))
        gluings.append(row)

    for t, row in enumerate(gluings):
        for f, (target, perm) in enumerate(row):
            image = perm[f]
            if target == t and image == f:
                raise TriangulationError(
                    f"face ({t},{f}) is glued to itself"
                )
            back, back_perm = gluings[target][image]
            if back != t or back_perm != _PERM_INVERSE[perm]:
                raise TriangulationError(
                    f"gluing ({t},{f}) is not involutive with inverse "
                    "permutation"
                )

    raw_paths = document.get("cusp_paths", [])
    if not isinstance(raw_paths, list):
        raise TriangulationError("cusp_paths must be a list")
    paths = []
    for k, raw_path in enumerate(raw_paths):
        if not isinstance(raw_path, list) or not raw_path:
            raise TriangulationError(f"cusp path {k} must be a non-empty list")
        steps = []
        for s, raw in enumerate(raw_path):
            if not isinstance(raw, dict):
                raise TriangulationError(f"step {s} of cusp path {k} malformed")
            if raw.keys() != _STEP_KEYS:
                _require_keys(raw, _STEP_KEYS, _STEP_KEYS,
                              f"cusp path {k} step {s}")
            step = PathStep(raw["tet"], raw["enter_face"], raw["exit_face"])
            tet, enter, exit_ = step
            if not (
                type(tet) is type(enter) is type(exit_) is int
                or all(map(_is_int, step))
            ):
                raise TriangulationError(f"cusp path {k} step {s}: ints required")
            steps.append(step)
        paths.append(NormalPath(tuple(steps)))

    shapes = document.get("shapes")
    hints = None
    if shapes is not None:
        if not isinstance(shapes, list) or len(shapes) != len(tets):
            raise TriangulationError("shapes must list one [re, im] per tet")
        hints = []
        for entry in shapes:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(map(_is_finite_number, entry))
            ):
                raise TriangulationError(
                    "shapes entries must be [re, im] of finite numbers"
                )
            hints.append(complex(entry[0], entry[1]))

    tri = Triangulation(name, gluings, paths, hints)
    # raises for non-orientable complexes and for cusp paths that are not
    # closed normal paths in one vertex link
    tri.combinatorics = Combinatorics.of(tri)
    return tri


# ---------------------------------------------------------------------------
# Derived combinatorics
# ---------------------------------------------------------------------------

def edge_classes(tri: Triangulation) -> list[EdgeClass]:
    """Orbits of (tet, edge) incidences, each in cyclic order around the
    edge with propagated direction signs."""
    gluings = tri.gluings
    seen = bytearray(6 * len(gluings))  # [6 * tet + index in _PAIRS]
    classes: list[EdgeClass] = []
    for t0 in range(len(gluings)):
        for k0, pair0 in enumerate(_PAIRS):
            if seen[6 * t0 + k0]:
                continue
            incidences, faces = [], []
            # walk the directed edge tail -> head around itself, crossing
            # the larger free face first; orientation +1 means tail < head
            tet, k, (tail, head) = t0, k0, pair0
            enter = 0 if tail else 1 if head > 1 else 2  # smallest free face
            while True:
                exit_ = 6 - tail - head - enter
                incidences.append((tet, _PAIRS[k], 1 if tail < head else -1))
                faces.append((enter, exit_))
                seen[6 * tet + k] = 1
                tet, perm = gluings[tet][exit_]
                tail, head, enter = perm[tail], perm[head], perm[exit_]
                k = _PAIR_INDEX[tail][head]
                if k == k0 and tet == t0:
                    if tail > head:
                        raise TriangulationError("edge link is not orientable")
                    break
            classes.append(
                EdgeClass(len(classes), tuple(incidences), tuple(faces)))
    return classes


def vertex_classes(tri: Triangulation) -> list[list[tuple[int, int]]]:
    """Orbits of (tet, vertex) slots under the face gluings."""
    gluings = tri.gluings
    seen = bytearray(4 * len(gluings))  # [4 * tet + vertex]
    classes = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = 1
        orbit, stack = [], [start]
        while stack:
            slot = stack.pop()
            orbit.append(slot)
            v, row = slot & 3, gluings[slot >> 2]
            for f in _OTHER_FACES[v]:
                target, perm = row[f]
                image = 4 * target + perm[v]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
        orbit.sort()
        classes.append([(slot >> 2, slot & 3) for slot in orbit])
    return classes


def orientation_signs(tri: Triangulation) -> list[int]:
    """Signs epsilon_i making glued faces cancel in the boundary of
    sum epsilon_i Delta_i; raises for non-orientable complexes.

    Across a gluing with permutation sigma the signs must satisfy
    epsilon' = -sign(sigma) * epsilon; the first tetrahedron of every
    connected component is normalized to +1.
    """
    gluings = tri.gluings
    signs = [0] * len(gluings)  # 0: not reached yet
    for start in range(len(gluings)):
        if signs[start]:
            continue
        signs[start] = +1
        stack = [start]
        while stack:
            t = stack.pop()
            sign = signs[t]
            for f, (target, perm) in enumerate(gluings[t]):
                expected = -_PERM_PARITY[perm] * sign
                if not signs[target]:
                    signs[target] = expected
                    stack.append(target)
                elif signs[target] != expected:
                    raise TriangulationError(
                        "complex is not orientable (gluing at "
                        f"({t},{f}) conflicts)"
                    )
    return signs


def edge_loop(tri: Triangulation, edge: EdgeClass) -> NormalPath:
    """The normal path that circles the edge, one step per incidence."""
    return NormalPath(tuple(
        PathStep(tet, enter_face, exit_face)
        for (tet, _pair, _), (enter_face, exit_face)
        in zip(edge.incidences, edge.faces)
    ))


def link_step(
    tri: Triangulation, tet: int, vertex: int, enter: int, exit_: int
) -> tuple[tuple[int, int, int], tuple[int, tuple[int, int], int]]:
    """The state entered across face ``exit_`` from (tet, vertex, enter),
    and what the step passes: (tet, edge pair, rotation sign around the
    edge as viewed from the vertex, +1 for counterclockwise), which is the
    parity of (vertex, other end, enter, exit)."""
    other = 6 - vertex - enter - exit_  # the fourth of 0..3
    target, perm = tri.gluings[tet][exit_]
    return (
        (target, perm[vertex], perm[exit_]),
        (tet, _PAIRS[_PAIR_INDEX[vertex][other]],
         _PERM_PARITY[vertex, other, enter, exit_]),
    )


def path_passes(
    tri: Triangulation, path: NormalPath
) -> list[tuple[int, tuple[int, int], int]]:
    """Per step: (tet, passed edge pair, rotation sign as viewed from the
    tracked vertex).

    The steps must be linked by the gluings into a closed path in one
    vertex link, whose vertex is an endpoint of every passed edge.  Edge
    loops admit both endpoints; the smaller one of step 0's edge is taken.
    """
    steps = path.steps
    if not steps:
        raise TriangulationError("normal path must have at least one step")
    gluings = tri.gluings
    for i, (tet, enter, exit_) in enumerate(steps):
        if not 0 <= tet < len(gluings):
            raise TriangulationError(f"path step {i} references bad tet")
        if enter not in _FACES or exit_ not in _FACES:
            raise TriangulationError(f"path step {i} has bad faces")
        if enter == exit_:
            raise TriangulationError(
                f"path step {i} enters and exits the same face"
            )
        j = (i + 1) % len(steps)
        target, perm = gluings[tet][exit_]
        if target != steps[j].tet or perm[exit_] != steps[j].enter_face:
            raise TriangulationError(
                f"path steps {i} -> {j} are not linked by a gluing"
            )
    for start in range(4):
        if start in (steps[0].enter_face, steps[0].exit_face):
            continue
        vertex, passes = start, []
        for tet, enter, exit_ in steps:
            if vertex == enter or vertex == exit_:
                break
            (_, vertex, _), passed = link_step(tri, tet, vertex, enter, exit_)
            passes.append(passed)
        else:
            if vertex == start:
                return passes
    raise TriangulationError("path does not stay in a single vertex link")


def path_terms(tri: Triangulation, path: NormalPath) -> list[Term]:
    """The path's log-parameter condition as (tet, slot, rotation sign)."""
    return _terms(path_passes(tri, path))


def _terms(
    passes: list[tuple[int, tuple[int, int], int]]
) -> list[Term]:
    return [(tet, EDGE_SLOT[pair], rot) for tet, pair, rot in passes]

