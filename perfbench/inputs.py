"""Seeded triangulation documents for the benchmark.

Three generators, all working on the JSON document format that
``cvol`` reads, and none of them calling into ``cvol``, so that the
inputs stay the same whatever a change does to the program:

* ``cyclic_cover(doc, n)``: the n-fold cyclic cover of a triangulation
  with b_1 > 0.  An integer 1-cocycle on the glued face pairs (a vector
  in the kernel of the edge-loop rows that is not a coboundary) gives
  every face crossing a sheet shift; n sheets are stacked and glued with
  those shifts.  A cusp path whose total shift is k is traversed
  n / gcd(n, k) times, so its lift closes and the cover keeps a
  meridian / longitude pair.
* ``relabel(doc, rng)``: shuffles the tetrahedra and applies an even
  permutation to the vertices of each tetrahedron, conjugating every
  gluing permutation and every cusp-path face.  Even permutations keep
  the orientation, so (vol, cs) is unchanged.  With ``vertices=False``
  it only shuffles the tetrahedra.
* ``vertex_classes`` / ``is_connected``: the checks every generated
  document must pass (one vertex class, one component).

Shape hints are never written, so Newton starts from its default.
"""

from __future__ import annotations

import itertools
import math
import random

#: The two-tetrahedron figure-eight knot complement, with a meridian and a
#: longitude as cusp paths (the same document as the repository fixture).
FIG8 = {
    "name": "figure-eight",
    "tetrahedra": [
        {"gluings": [
            {"tet": 1, "perm": [0, 2, 1, 3]}, {"tet": 1, "perm": [3, 1, 2, 0]},
            {"tet": 1, "perm": [1, 2, 3, 0]}, {"tet": 1, "perm": [3, 0, 1, 2]},
        ]},
        {"gluings": [
            {"tet": 0, "perm": [0, 2, 1, 3]}, {"tet": 0, "perm": [3, 1, 2, 0]},
            {"tet": 0, "perm": [1, 2, 3, 0]}, {"tet": 0, "perm": [3, 0, 1, 2]},
        ]},
    ],
    "cusp_paths": [
        [{"tet": 0, "enter_face": 1, "exit_face": 3},
         {"tet": 1, "enter_face": 2, "exit_face": 1}],
        [{"tet": 0, "enter_face": 0, "exit_face": 3},
         {"tet": 1, "enter_face": 2, "exit_face": 3},
         {"tet": 0, "enter_face": 2, "exit_face": 3},
         {"tet": 1, "enter_face": 2, "exit_face": 1},
         {"tet": 0, "enter_face": 1, "exit_face": 2},
         {"tet": 1, "enter_face": 3, "exit_face": 0}],
    ],
}

FIG8_VOLUME = 2.029883212819307

EVEN_PERMS = [
    p for p in itertools.permutations(range(4))
    if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
]


def _glue(doc: dict, tet: int, face: int) -> tuple[int, list[int]]:
    g = doc["tetrahedra"][tet]["gluings"][face]
    return g["tet"], g["perm"]


def face_pairs(doc: dict) -> dict[tuple[int, int], tuple[int, int]]:
    """Each face (tet, face) -> (index of its glued pair, +1 or -1).

    The side with the smaller (tet, face) is +1; a cocycle value on the
    pair is the sheet shift when crossing from the +1 side.
    """
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for t in range(len(doc["tetrahedra"])):
        for f in range(4):
            if (t, f) in out:
                continue
            t2, perm = _glue(doc, t, f)
            index = len(out) // 2
            out[(t, f)] = (index, 1)
            out[(t2, perm[f])] = (index, -1)
    return out


def edge_loop_rows(doc: dict) -> list[list[int]]:
    """One row per edge class: signed count of the face pairs the loop
    around the edge crosses."""
    pairs = face_pairs(doc)
    n_pairs = len(pairs) // 2
    seen: set[tuple[int, tuple[int, int]]] = set()
    rows = []
    for t0 in range(len(doc["tetrahedra"])):
        for pair0 in itertools.combinations(range(4), 2):
            if (t0, pair0) in seen:
                continue
            row = [0] * n_pairs
            tet, pair = t0, pair0
            cross = max(set(range(4)) - set(pair))
            while True:
                seen.add((tet, pair))
                index, sign = pairs[(tet, cross)]
                row[index] += sign
                tet2, perm = _glue(doc, tet, cross)
                entered = perm[cross]
                tet, pair = tet2, tuple(sorted(perm[v] for v in pair))
                cross = next(f for f in set(range(4)) - set(pair)
                             if f != entered)
                if (tet, pair) == (t0, pair0):
                    break
            rows.append(row)
    return rows


def _stack(doc: dict, cocycle: list[int], n: int) -> dict:
    pairs = face_pairs(doc)
    t_base = len(doc["tetrahedra"])

    def shift(tet: int, face: int) -> int:
        index, sign = pairs[(tet, face)]
        return sign * cocycle[index]

    tets = []
    for sheet in range(n):
        for t in range(t_base):
            gluings = []
            for f in range(4):
                t2, perm = _glue(doc, t, f)
                target = (sheet + shift(t, f)) % n
                gluings.append({"tet": target * t_base + t2,
                                "perm": list(perm)})
            tets.append({"gluings": gluings})
    paths = []
    for path in doc.get("cusp_paths", []):
        total = sum(shift(s["tet"], s["exit_face"]) for s in path)
        laps = n // math.gcd(n, total % n)
        steps, sheet = [], 0
        for _ in range(laps):
            for s in path:
                steps.append({"tet": sheet * t_base + s["tet"],
                              "enter_face": s["enter_face"],
                              "exit_face": s["exit_face"]})
                sheet = (sheet + shift(s["tet"], s["exit_face"])) % n
        paths.append(steps)
    return {"name": f"{doc['name']}-cover{n}", "tetrahedra": tets,
            "cusp_paths": paths}


def find_cocycle(doc: dict) -> list[int]:
    """First integer 1-cocycle (entries searched in the order 1, 0, -1)
    whose 2-fold cover is connected, i.e. whose class is nonzero mod 2;
    on fig8 that is [1, 1, 0, 0]."""
    rows = edge_loop_rows(doc)
    width = len(rows[0])
    for vec in itertools.product((1, 0, -1), repeat=width):
        if not any(vec):
            continue
        if any(sum(r * v for r, v in zip(row, vec)) for row in rows):
            continue
        if is_connected(_stack(doc, list(vec), 2)):
            return list(vec)
    raise ValueError(f"{doc['name']} has no cocycle with a connected cover")


def cyclic_cover(doc: dict, n: int) -> dict:
    """The n-fold cyclic cover, T(cover) = n * T(doc)."""
    cover = _stack(doc, find_cocycle(doc), n)
    check_document(cover)
    return cover


def relabel(doc: dict, rng: random.Random, vertices: bool = True) -> dict:
    """Shuffle tetrahedra and, unless ``vertices`` is false, apply an even
    vertex permutation to each."""
    n = len(doc["tetrahedra"])
    new_index = list(range(n))
    rng.shuffle(new_index)
    sigma = [rng.choice(EVEN_PERMS) if vertices else EVEN_PERMS[0]
             for _ in range(n)]
    tets: list[dict | None] = [None] * n
    for t in range(n):
        gluings: list[dict | None] = [None] * 4
        for f in range(4):
            t2, perm = _glue(doc, t, f)
            conj = [0] * 4
            for v in range(4):
                conj[sigma[t][v]] = sigma[t2][perm[v]]
            gluings[sigma[t][f]] = {"tet": new_index[t2], "perm": conj}
        tets[new_index[t]] = {"gluings": gluings}
    paths = [
        [{"tet": new_index[s["tet"]],
          "enter_face": sigma[s["tet"]][s["enter_face"]],
          "exit_face": sigma[s["tet"]][s["exit_face"]]} for s in path]
        for path in doc.get("cusp_paths", [])
    ]
    out = {"name": doc["name"] + "-relabeled", "tetrahedra": tets,
           "cusp_paths": paths}
    check_document(out)
    return out


def vertex_classes(doc: dict) -> list[list[tuple[int, int]]]:
    """Orbits of (tet, vertex) slots under the face gluings."""
    seen: set[tuple[int, int]] = set()
    classes = []
    for t0 in range(len(doc["tetrahedra"])):
        for v0 in range(4):
            if (t0, v0) in seen:
                continue
            orbit, stack = [], [(t0, v0)]
            while stack:
                slot = stack.pop()
                if slot in seen:
                    continue
                seen.add(slot)
                orbit.append(slot)
                tet, v = slot
                for f in range(4):
                    if f != v:
                        t2, perm = _glue(doc, tet, f)
                        stack.append((t2, perm[v]))
            classes.append(orbit)
    return classes


def is_connected(doc: dict) -> bool:
    n = len(doc["tetrahedra"])
    seen, stack = {0}, [0]
    while stack:
        t = stack.pop()
        for f in range(4):
            t2, _ = _glue(doc, t, f)
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    return len(seen) == n


def check_document(doc: dict) -> None:
    """Raise ValueError unless the document is one connected, one-cusped
    complex whose cusp paths are linked by the gluings."""
    if not is_connected(doc):
        raise ValueError(f"{doc['name']} is not connected")
    if len(vertex_classes(doc)) != 1:
        raise ValueError(f"{doc['name']} has more than one vertex class")
    for k, path in enumerate(doc.get("cusp_paths", [])):
        for i, step in enumerate(path):
            nxt = path[(i + 1) % len(path)]
            t2, perm = _glue(doc, step["tet"], step["exit_face"])
            if (t2, perm[step["exit_face"]]) != (nxt["tet"],
                                                 nxt["enter_face"]):
                raise ValueError(f"{doc['name']}: cusp path {k} is broken "
                                 f"after step {i}")
