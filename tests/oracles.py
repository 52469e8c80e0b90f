"""Independent oracles used to freeze expected values.

The dilogarithm oracle integrates -log(1-t)/t along the straight segment
from 0 to z by adaptive quadrature; it shares no code with the series
implementation under test.  ``dilog_mp`` evaluates Li2 in 72-bit mpmath
arithmetic with exact Bernoulli coefficients, about 1e-21 relative; it is
the accuracy reference, itself checked against ``mpmath.polylog``, which
takes milliseconds a call.  The link-walk oracle draws closed normal paths
in the vertex links from the gluings alone, sharing no code with the link
walk that the flattening solver prunes its kernel with.  ``nu_reference``
is the symbolic wedge map written generator by generator on
``SymbolVector``s, ``wedge`` and ``combine``; ``nu_symbolic`` computes the
same exact image from wedge tables built at import.  ``r_sum_reference`` is the
lifted Rogers sum as one ``lifted_rogers_raw`` per generator, the loop
``r_of_element`` ran before generators sharing a shape shared their
logarithms; ``rogers_sum_mp`` is the same sum in 50-digit mpmath, for
the rounding of the float one.  ``relabel_document`` renames the
tetrahedra and vertices of a triangulation document, for checks that a
result does not depend on the labels; ``relabeled_cover`` does the same
with the benchmark's generator (``perfbench_inputs``) to its cyclic covers
of fig8.  ``t2_documents`` enumerates every gluing of two tetrahedra in a
fixed order; ``fixtures/t2_outcomes.json`` freezes the first of each
outcome class.  ``reference_edge_classes``,
``reference_vertex_classes``, ``reference_orientation_signs``,
``reference_path_passes`` and ``reference_link_arcs`` are the earlier walks
of ``cvol.triangulation``, kept as a differential reference: the edge walk
that collects the entered and exited faces in separate lists, the vertex
and sign walks over sets of (tet, vertex) slots and a list of optional
signs, read through ``tri.gluing``, the path passes from a validation
pass, a vertex inference pass and a per-step lookup of the passed edge and
its rotation sign, and the vertex-link state graph built as a dict of
every state's steps.  ``reference_prune_kernel`` is the earlier kernel
pruning, walking that graph, with a second integer solve on every
off-tree functional followed by a matrix product.  ``rogers_shift`` is
the closed-form change of the Rogers sum under a kernel vector, for
checks that the flattening chosen does not change cs.
``reduce_mod_lattice`` is the reduction of a solution modulo a kernel
lattice that the flattening solver ran after its solve, before the solve's
own Hermite form gave the reduced solution; ``hnf`` is the unique row HNF
basis of a lattice, for checks that a basis does not depend on the one
the computation started from, and ``random_unimodular`` draws the change
of basis.
``disjoint_union`` puts triangulation documents side by side, one cusp
or more each, for inputs with several cusps.  ``reference_pass_rows`` (dense
rows of a given width), ``reference_exponent_row`` and ``reference_beta``
are the condition-to-row code as it stood before ``pass_rows`` returned
sparse rows and became its one home; ``random_terms`` draws the term lists
they are compared on.  ``reference_generator`` and the other
``reference_*`` element builders are ``cvol.bloch`` and ``cvol.verify``'s
builders as they stood before each became one ``EBElement`` constructor
call: chains of single generators combined by ``+`` and ``-``, and the
trusted dicts of ``five_term_instance`` and ``super_transfer_rhs``.
``omega`` and ``reference_defect`` are the paper's edge defect
(1/pi i) beta*(omega) written out with logarithms of the shapes, orientation
signs included; the flattening solver reads the same integers off its
system's right-hand side.  The last few helpers
(``cross_ratio``, ``edge_parameter``, ``xi``, ``matmul``,
``chain_complex_composites``, ``alternate_assignment``) have no caller in
the package and live here for the tests that use them.
"""

import cmath
import importlib.util
import itertools
import math
import pathlib
import random

import mpmath
from scipy.integrate import quad

from cvol.bloch import EBElement, lifted_rogers_raw
from cvol.errors import (
    DegenerateGeometryError,
    DomainError,
    NonIntegralError,
    SymbolMatchError,
)
from cvol.flattening import _assignment_from_vector
from cvol.geometry import EDGE_SLOT, SLOT_PQ_COEFF
from cvol.intlinalg import row_hnf, solve_integer_system, transpose
from cvol.params import ExtendedParam
from cvol.polylog import principal_log
from cvol.pruning import _prune_kernel
from cvol.triangulation import NormalPath, PathStep
from cvol.wedge import combine, sym, wedge

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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


_MP = mpmath.MPContext()
_MP.prec = 72
#: B_2k / (2k+1)! for k = 14 .. 1: the series below is exact to 6^-28
#: relative on |u| <= pi/3
_MP_COEFFS = [_MP.bernoulli(2 * k) / _MP.factorial(2 * k + 1)
              for k in range(14, 0, -1)]


def _mp_series(u):
    """Li2(1 - exp(-u)) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)!."""
    u2 = u * u
    acc = 0
    for c in _MP_COEFFS:
        acc = acc * u2 + c
    return u * (1 + u * (-0.25 + u * acc))


def dilog_mp(z: complex):
    """Li2(z) as a 72-bit mpmath number (z off the cut [1, inf))."""
    z = complex(z)
    w = _MP.mpc(z)
    pi2_6 = _MP.pi ** 2 / 6
    if z.real <= 0.5 and abs(z) <= 1:
        return _mp_series(-_MP.log(1 - w))
    if abs(1 - z) <= 1:
        log_w = _MP.log(w)
        return pi2_6 - log_w * _MP.log(1 - w) - _mp_series(-log_w)
    log_mw = _MP.log(-w)
    return -_mp_series(-_MP.log(1 - 1 / w)) - pi2_6 - log_mw * log_mw / 2


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


EVEN_PERMS = [
    p for p in itertools.permutations(range(4))
    if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
]


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def reference_edge_classes(tri):
    """(incidences, faces) of every edge class: walk around the edge,
    crossing the larger free face first, and pair the face entered by the
    crossing before each incidence with the face it exits."""
    seen = set()
    classes = []
    for t0 in range(tri.num_tetrahedra):
        for pair0 in itertools.combinations(range(4), 2):
            if (t0, pair0) in seen:
                continue
            incidences, exits, entries = [], [], []
            tet, pair, orient = t0, pair0, +1
            cross_face = max(set(range(4)) - set(pair))
            while True:
                incidences.append((tet, pair, orient))
                exits.append(cross_face)
                seen.add((tet, pair))
                g = tri.gluing(tet, cross_face)
                directed = pair if orient > 0 else (pair[1], pair[0])
                image = (g.perm[directed[0]], g.perm[directed[1]])
                entered_through = g.perm[cross_face]
                entries.append(entered_through)
                tet = g.tet
                pair = _pair(*image)
                orient = +1 if image[0] < image[1] else -1
                cross_face = next(
                    f for f in set(range(4)) - set(pair)
                    if f != entered_through
                )
                if (tet, pair) == (t0, pair0):
                    assert orient == +1, "edge link is not orientable"
                    break
            faces = tuple(zip(entries[-1:] + entries[:-1], exits))
            classes.append((tuple(incidences), faces))
    return classes


def reference_vertex_classes(tri):
    """Orbits of (tet, vertex) slots under the face gluings, each sorted."""
    seen = set()
    classes = []
    for start in itertools.product(range(tri.num_tetrahedra), range(4)):
        if start in seen:
            continue
        seen.add(start)
        orbit, stack = [], [start]
        while stack:
            tet, v = slot = stack.pop()
            orbit.append(slot)
            for f in range(4):
                g = tri.gluing(tet, f)
                if f != v and (g.tet, g.perm[v]) not in seen:
                    seen.add((g.tet, g.perm[v]))
                    stack.append((g.tet, g.perm[v]))
        classes.append(sorted(orbit))
    return classes


def reference_orientation_signs(tri):
    """Signs with eps' = -sign(sigma) * eps across every gluing, +1 on the
    first tetrahedron of each component; raises ``ValueError`` with the
    program's message for a non-orientable complex."""
    n = tri.num_tetrahedra
    signs = [None] * n
    for start in range(n):
        if signs[start] is not None:
            continue
        signs[start] = +1
        stack = [start]
        while stack:
            t = stack.pop()
            for f in range(4):
                g = tri.gluing(t, f)
                parity = 1 if tuple(g.perm) in EVEN_PERMS else -1
                expected = -parity * signs[t]
                if signs[g.tet] is None:
                    signs[g.tet] = expected
                    stack.append(g.tet)
                elif signs[g.tet] != expected:
                    raise ValueError(
                        "complex is not orientable (gluing at "
                        f"({t},{f}) conflicts)"
                    )
    return signs


def _reference_validate(tri, path):
    n = len(path.steps)
    if n == 0:
        raise ValueError("normal path must have at least one step")
    for i, step in enumerate(path.steps):
        if not 0 <= step.tet < tri.num_tetrahedra:
            raise ValueError(f"path step {i} references bad tet")
        if not ({step.enter_face, step.exit_face} <= {0, 1, 2, 3}):
            raise ValueError(f"path step {i} has bad faces")
        if step.enter_face == step.exit_face:
            raise ValueError(f"path step {i} enters and exits the same face")
        nxt = path.steps[(i + 1) % n]
        g = tri.gluing(step.tet, step.exit_face)
        if g.tet != nxt.tet or g.perm[step.exit_face] != nxt.enter_face:
            raise ValueError(
                f"path steps {i} -> {(i + 1) % n} are not linked by a gluing"
            )


def _reference_vertices(tri, path):
    """The tracked vertex of each step: the first endpoint of step 0's
    passed edge that every step keeps off its faces and that comes back."""
    first = path.steps[0]
    for v_start in sorted(set(range(4)) - {first.enter_face,
                                           first.exit_face}):
        vertices = [v_start]
        for step in path.steps:
            v = vertices[-1]
            if v in (step.enter_face, step.exit_face):
                break
            vertices.append(tri.gluing(step.tet, step.exit_face).perm[v])
        else:
            if vertices[-1] == v_start:
                return vertices[:-1]
    raise ValueError("path does not stay in a single vertex link")


def _reference_pass(vertex, enter_face, exit_face):
    """The edge pair passed while tracking ``vertex``, and the rotation
    sign: the parity of (vertex, other end, enter, exit)."""
    other = 6 - vertex - enter_face - exit_face
    order = (vertex, other, enter_face, exit_face)
    return _pair(vertex, other), 1 if order in EVEN_PERMS else -1


def reference_path_passes(tri, path):
    """Per step (tet, passed pair, rotation sign); raises ``ValueError``
    with the program's message for a malformed path."""
    _reference_validate(tri, path)
    return [
        (step.tet, *_reference_pass(v, step.enter_face, step.exit_face))
        for step, v in zip(path.steps, _reference_vertices(tri, path))
    ]


def reference_link_arcs(tri):
    """From each link state (tet, vertex, enter), per exit face in
    increasing order: the state entered across it and the pass."""
    arcs = {}
    for tet, v, f_in, f_out in itertools.product(
        range(tri.num_tetrahedra), range(4), range(4), range(4)
    ):
        if len({v, f_in, f_out}) == 3:
            g = tri.gluing(tet, f_out)
            arcs.setdefault((tet, v, f_in), []).append((
                (g.tet, g.perm[v], g.perm[f_out]),
                (tet, *_reference_pass(v, f_in, f_out)),
            ))
    return arcs


def r_sum_reference(e) -> complex:
    """Unreduced lifted Rogers sum of an element, term by term."""
    total = 0j
    for param, coeff in e.terms.items():
        total += coeff * lifted_rogers_raw(param.numeric_z(), param.p, param.q)
    return total


def rogers_sum_mp(terms, dps: int = 50):
    """sum coeff * R(z; p, q) over {generator: coeff}, summed in ``dps``
    digits from each generator's float z and its integers:
    Li2(z) + log z log(1-z) / 2 + (pi i / 2)(p log(1-z) + q log z) - pi^2/6
    on principal branches, Li2 by ``mpmath.polylog``.  Compare with it
    inside ``mpmath.workdps(dps)``."""
    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for param, coeff in terms.items():
            z = mpmath.mpc(param.numeric_z())
            log_z, log_1mz = mpmath.log(z), mpmath.log(1 - z)
            total += coeff * (mpmath.polylog(2, z) + log_z * log_1mz / 2
                              + mpmath.j * mpmath.pi / 2
                              * (param.p * log_1mz + param.q * log_z)
                              - mpmath.pi ** 2 / 6)
        return total


def relabel_document(doc: dict, rng, perms=EVEN_PERMS) -> dict:
    """The triangulation document with its tetrahedra shuffled and the
    vertices of each renamed by a random sigma_t from ``perms``: the gluing
    of face f of t becomes the gluing of face sigma_t(f), with permutation
    sigma_u o perm o sigma_t^-1 into tetrahedron u.  An even sigma_t keeps
    the orientation sign of t, an odd one turns it."""
    n = len(doc["tetrahedra"])
    new_index = list(range(n))
    rng.shuffle(new_index)
    sigma = [rng.choice(perms) for _ in range(n)]
    tets = [None] * n
    for t, entry in enumerate(doc["tetrahedra"]):
        gluings = [None] * 4
        for f, g in enumerate(entry["gluings"]):
            u = g["tet"]
            perm = [0] * 4
            for v in range(4):
                perm[sigma[t][v]] = sigma[u][g["perm"][v]]
            gluings[sigma[t][f]] = {"tet": new_index[u], "perm": perm}
        tets[new_index[t]] = {"gluings": gluings}
    paths = [
        [{"tet": new_index[s["tet"]],
          "enter_face": sigma[s["tet"]][s["enter_face"]],
          "exit_face": sigma[s["tet"]][s["exit_face"]]} for s in path]
        for path in doc.get("cusp_paths", [])
    ]
    return {"name": doc.get("name", ""), "tetrahedra": tets,
            "cusp_paths": paths}


def disjoint_union(*docs) -> dict:
    """The triangulation documents side by side: the tetrahedra of each
    document, and the tets its gluings and cusp-path steps name, offset by
    the tetrahedra of the documents before it.  Shape hints are dropped."""
    tets, paths, offset = [], [], 0
    for doc in docs:
        tets += [
            {"gluings": [{"tet": g["tet"] + offset, "perm": list(g["perm"])}
                         for g in entry["gluings"]]}
            for entry in doc["tetrahedra"]
        ]
        paths += [
            [{**step, "tet": step["tet"] + offset} for step in path]
            for path in doc.get("cusp_paths", [])
        ]
        offset += len(doc["tetrahedra"])
    return {"name": "+".join(doc.get("name", "") for doc in docs),
            "tetrahedra": tets, "cusp_paths": paths}


def perfbench_inputs():
    """The benchmark's input generator, ``perfbench/inputs.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def relabeled_cover(n, vertices):
    """The benchmark's n-fold cyclic cover of fig8, relabeled with seed n:
    tetrahedra shuffled, and with ``vertices`` their vertices renamed."""
    inputs = perfbench_inputs()
    cover = inputs.cyclic_cover(inputs.FIG8, n)
    return inputs.relabel(cover, random.Random(n), vertices)


def _face_matchings(faces):
    """Every pairing of the ``faces`` list: the first face with each later
    one, then the pairings of the rest."""
    if not faces:
        yield []
        return
    first, rest = faces[0], faces[1:]
    for k, other in enumerate(rest):
        for matching in _face_matchings(rest[:k] + rest[k + 1:]):
            yield [(first, other), *matching]


def t2_documents():
    """Every gluing of two tetrahedra, in a fixed order: each pairing of
    the 8 faces (tet, face), each pair glued by each of the 6 vertex
    bijections that carry one face to the other.  136 080 documents."""
    perms = list(itertools.permutations(range(4)))
    faces = [(t, f) for t in range(2) for f in range(4)]
    for matching in _face_matchings(faces):
        choices = [[p for p in perms if p[f] == g]
                   for (_, f), (_, g) in matching]
        for chosen in itertools.product(*choices):
            gluings = [[None] * 4, [None] * 4]
            for ((t, f), (u, g)), perm in zip(matching, chosen):
                gluings[t][f] = {"tet": u, "perm": list(perm)}
                gluings[u][g] = {"tet": t, "perm": [perm.index(v)
                                                    for v in range(4)]}
            yield {"name": "t2",
                   "tetrahedra": [{"gluings": g} for g in gluings]}


def _reference_candidates(x, y):
    """Monomials in x, 1-x, y, 1-y, x-y with their symbol vectors, and the
    numeric values of the base logarithms."""
    numeric = {"log_x": principal_log(x), "log_1mx": principal_log(1 - x)}
    cands = [(x, sym("log_x")), (1 - x, sym("log_1mx"))]
    if y is not None:
        numeric["log_y"] = principal_log(y)
        numeric["log_1my"] = principal_log(1 - y)
        numeric["log_xmy"] = principal_log(x - y)
        lx, l1mx = sym("log_x"), sym("log_1mx")
        ly, l1my, lxmy = sym("log_y"), sym("log_1my"), sym("log_xmy")
        cands += [
            (y, ly),
            (1 - y, l1my),
            (y / x, ly - lx),
            ((x - y) / x, lxmy - lx),
            (y * (1 - x) / (x * (1 - y)), ly + l1mx - lx - l1my),
            ((x - y) / (x * (1 - y)), lxmy - lx - l1my),
            ((1 - x) / (1 - y), l1mx - l1my),
            ((x - y) / (1 - y), lxmy - l1my),
        ]
    return cands, numeric


def _reference_decompose(value, cands, numeric, match_tol, round_tol):
    for cand_value, vec in cands:
        if abs(value - cand_value) <= match_tol * max(1.0, abs(cand_value)):
            symbolic = sum(
                (c * numeric[s] for s, c in vec.terms.items()), start=0j
            )
            c_float = (principal_log(value) - symbolic) / (1j * math.pi)
            c = round(c_float.real)
            if abs(c_float - c) > round_tol:
                raise SymbolMatchError(f"branch correction {c_float!r}")
            return vec + sym("pi_i", c)
    raise SymbolMatchError(f"value {value!r} is not a known monomial")


def nu_reference(e, base_point, match_tol=1e-9, round_tol=1e-6):
    """sum coeff * (log z + p pi i) ^ (-log(1-z) + q pi i), one generator
    at a time."""
    x, y = base_point if isinstance(base_point, tuple) else (base_point, None)
    cands, numeric = _reference_candidates(
        complex(x), None if y is None else complex(y)
    )
    pieces = []
    for param, coeff in e.terms.items():
        z = param.numeric_z()
        left = _reference_decompose(z, cands, numeric, match_tol, round_tol)
        right = _reference_decompose(1 - z, cands, numeric, match_tol, round_tol)
        pieces.append((coeff, wedge(left + sym("pi_i", param.p),
                                    -right + sym("pi_i", param.q))))
    return combine(pieces)


# Helpers that only tests call, and the earlier kernel pruning.

INF = complex("inf")


def _is_inf(v) -> bool:
    try:
        return cmath.isinf(complex(v))
    except (TypeError, OverflowError):
        return False


def cross_ratio(z1, z2, z3, z4) -> complex:
    """[z1 : z2 : z3 : z4] = (z3-z2)(z4-z1) / ((z3-z1)(z4-z2)).

    Points live on the Riemann sphere; at most one may be the point at
    infinity, which is handled by cancelling its two factors.
    """
    pts = [z1, z2, z3, z4]
    inf_at = [i for i, v in enumerate(pts) if _is_inf(v)]
    finite = [complex(v) for v in pts if not _is_inf(v)]
    if len(inf_at) > 1:
        raise DegenerateGeometryError("cross-ratio needs pairwise distinct points")
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            if finite[i] == finite[j]:
                raise DegenerateGeometryError(
                    "cross-ratio needs pairwise distinct points"
                )
    if not inf_at:
        a, b, c, d = (complex(v) for v in pts)
        value = ((c - b) * (d - a)) / ((c - a) * (d - b))
    else:
        a, b, c = finite
        which = inf_at[0]
        if which == 0:      # (z4-z1)/(z3-z1) -> 1, leaves (z3-z2)/(z4-z2)
            value = (b - a) / (c - a)
        elif which == 1:    # (z3-z2)/(z4-z2) -> 1, leaves (z4-z1)/(z3-z1)
            value = (c - a) / (b - a)
        elif which == 2:    # (z3-z2)/(z3-z1) -> 1, leaves (z4-z1)/(z4-z2)
            value = (c - a) / (c - b)
        else:               # (z4-z1)/(z4-z2) -> 1, leaves (z3-z2)/(z3-z1)
            value = (c - b) / (c - a)
    if value == 0 or value == 1 or _is_inf(value):
        raise DegenerateGeometryError("degenerate cross-ratio value %r" % value)
    return value


def edge_pair(a: int, b: int) -> tuple[int, int]:
    if a == b or not {a, b} <= {0, 1, 2, 3}:
        raise ValueError(f"invalid vertex pair ({a}, {b})")
    return (a, b) if a < b else (b, a)


def edge_parameter(shape, edge: tuple[int, int]) -> complex:
    """Cross-ratio parameter attached to an edge (01/23 -> z, 12/03 -> z',
    02/13 -> z'')."""
    return shape.parameter(EDGE_SLOT[edge_pair(*edge)])


def xi(flattening) -> tuple[complex, complex]:
    """J_Delta (x) C coordinates (w1, -w0) of a flattening."""
    return (flattening.w1, -flattening.w0)


def matmul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _compose(a, b, width):
    """The product of sparse rows a and b as a dense matrix."""
    out = []
    for row in a:
        acc = [0] * width
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] += x * y
        out.append(acc)
    return out


def chain_complex_composites(jc):
    """The three consecutive composites of the J-complex, as dense
    matrices; all must be zero."""
    beta_star = jc.beta_star
    return (
        _compose(jc.beta, jc.alpha, len(jc.vertices)),
        _compose(beta_star, jc.beta, len(jc.edges)),
        _compose(jc.alpha_star, beta_star, jc.j_rank),
    )


def omega(shapes) -> list[complex]:
    """The element of J (x) C with Delta-component -(log(1-z) e_0 +
    log(z) e_1), as a coordinate vector over the (e_0, e_1) bases."""
    out = []
    for z in shapes:
        out.append(-principal_log(1 - z))
        out.append(-principal_log(z))
    return out


def reference_defect(tri, shapes, tol=1e-9) -> list[int]:
    """(1/pi i) beta*(omega) with every term weighted by the orientation
    sign of its simplex.  beta's column of an edge is its condition-table
    ``pq`` row, which carries those signs; beta* is its adjoint under
    <e_0, e_1> = 1, so slot 2t+1 pairs with omega[2t] and slot 2t with
    -omega[2t+1].  Off a solution of the gluing equations some entry misses
    every multiple of pi i, and ``NonIntegralError`` is raised."""
    w = omega(shapes)
    defect = []
    for k, edge in enumerate(tri.combinatorics.edge_rows):
        total = sum(c * (w[j - 1] if j & 1 else -w[j + 1])
                    for j, c in edge.pq.items())
        ratio = total / (1j * math.pi)
        nearest = round(ratio.real)
        if abs(ratio - nearest) > tol:
            raise NonIntegralError(
                f"beta*(omega) at edge {k} is {total!r}, not an integer "
                "multiple of pi i")
        defect.append(nearest)
    return defect


def alternate_assignment(tri, shapes, base, kernel_coeffs):
    """Another particular solution: base + integer combination of the
    pruned kernel vectors ``_prune_kernel(tri, base.kernel)``, which keep
    every path condition (used to exercise solver-choice invariance).  The
    defect and the kernel depend on the shapes and the system only, so
    they are the base's."""
    pruned = _prune_kernel(tri, base.kernel)
    if len(kernel_coeffs) != len(pruned):
        raise ValueError("need one coefficient per pruned kernel vector")
    x = [p for pair in base.pq() for p in pair]
    x = x + [0] * (len(pruned[0]) - len(x) if pruned else 0)
    for c, vec in zip(kernel_coeffs, pruned):
        x = [a + c * b for a, b in zip(x, vec)]
    return _assignment_from_vector(tri, shapes, x, base.defect, base.kernel)


def rogers_shift(tri, shapes, k) -> complex:
    """The change of the signed Rogers sum sum_t eps_t R(z_t; p_t, q_t)
    when (p, q) moves by the kernel vector ``k``.  R is affine in (p, q),
    so it is (pi i / 2) sum_t eps_t (k[2t] log(1 - z_t) + k[2t+1] log z_t),
    with no dilogarithm; entries of ``k`` past 2T are ignored."""
    total = sum(
        eps * (k[2 * t] * cmath.log(1 - z) + k[2 * t + 1] * cmath.log(z))
        for t, (eps, z) in enumerate(zip(tri.combinatorics.signs, shapes))
    )
    return 1j * math.pi / 2 * total


def reduce_mod_lattice(x: list[int], basis: list[list[int]]) -> list[int]:
    """Canonical representative of x modulo the lattice spanned by basis.

    The basis is brought to row HNF; each pivot coordinate of x is reduced
    into [0, pivot) from the top row down, which is deterministic.
    """
    if any(len(row) != len(x) for row in basis):
        raise ValueError("every basis row must be as wide as x")
    if not basis:
        return list(map(int, x))
    out = list(map(int, x))
    for row in row_hnf(basis):
        piv_col = next((j for j, v in enumerate(row) if v != 0), None)
        if piv_col is None:
            continue
        f = out[piv_col] // row[piv_col]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return out


def hnf(rows):
    """The nonzero rows of the row HNF of ``rows``: the unique basis of
    their lattice."""
    return [row for row in row_hnf(rows) if any(row)]


def random_unimodular(rng, size, steps=12):
    """A product of random elementary row operations on the identity: row
    additions, swaps and negations."""
    u = [[int(i == k) for k in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.randrange(size), rng.randrange(size)
        kind = rng.choice(("add", "swap", "negate"))
        if kind == "add" and i != j:
            c = rng.choice([-2, -1, 1, 2])
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        elif kind == "negate":
            u[i] = [-x for x in u[i]]
    return u


def reference_prune_kernel(tri, kernel):
    """The pruned kernel as first computed: every off-tree arc of a
    spanning forest of the link state graph gives one row of functionals,
    duplicates kept; the integer kernel of those rows, from a second
    ``solve_integer_system``, is multiplied into the kernel basis."""
    if not kernel:
        return []
    arcs = reference_link_arcs(tri)
    potential = {}
    action = []
    for root in arcs:
        if root in potential:
            continue
        potential[root] = [0] * len(kernel)
        queue = [root]
        for state in queue:
            for nxt, (tet, pair, weight) in arcs[state]:
                cp, cq = SLOT_PQ_COEFF[EDGE_SLOT[pair]]
                value = [
                    p + weight * (cp * k[2 * tet] + cq * k[2 * tet + 1])
                    for p, k in zip(potential[state], kernel)
                ]
                if nxt not in potential:
                    potential[nxt] = value
                    queue.append(nxt)
                elif value != potential[nxt]:
                    action.append(
                        [a - b for a, b in zip(value, potential[nxt])]
                    )
    if not action:
        return [list(v) for v in kernel]
    combos = solve_integer_system(action, [0] * len(action))
    assert combos is not None  # homogeneous systems are always consistent
    return matmul(combos.kernel, kernel)


def reference_pass_rows(terms, width, values=None):
    """The condition-to-row helper as first written: dense ``pq`` and
    ``parity`` rows of the given width, zero entries kept, returned as
    (pq, parity, parity_const, value)."""
    pq = [0] * width
    parity = [0] * width
    parity_const = 0
    value = 0j
    for tet, slot, weight in terms:
        cp, cq = SLOT_PQ_COEFF[slot]
        pq[2 * tet] += weight * cp
        pq[2 * tet + 1] += weight * cq
        parity[2 * tet] += abs(cp)
        parity[2 * tet + 1] += abs(cq)
        parity_const += slot == 2
        if values is not None:
            value += weight * values[tet][slot]
    return pq, parity, parity_const, value


def reference_exponent_row(terms):
    """A Newton exponent row as ``gluing_equations`` first summed it:
    (tet, a, b, c) by tetrahedron, all-zero triples dropped."""
    exponents = {}
    for tet, slot, weight in terms:
        exponents.setdefault(tet, [0, 0, 0])[slot] += weight
    return [(tet, *abc) for tet, abc in sorted(exponents.items())
            if any(abc)]


def reference_beta(comb, num_tetrahedra):
    """beta as first built: each edge's unsigned slots, read off the terms
    of its condition-table entry, added into the two rows of their simplex,
    zero entries dropped afterwards."""
    beta = [{} for _ in range(2 * num_tetrahedra)]
    for col, edge in enumerate(comb.edge_rows):
        for tet, slot, _ in edge.terms:
            for row, c in zip(beta[2 * tet:2 * tet + 2], SLOT_PQ_COEFF[slot]):
                if c:
                    row[col] = row.get(col, 0) + c
    return [{j: v for j, v in row.items() if v} for row in beta]


def random_terms(rng, tets):
    """A seeded (tet, slot, weight) condition on ``tets`` simplices, with
    weights +-1 and +-2; about one list in three also undoes one of its
    own passes, so whole slots cancel, and short lists on few simplices
    repeat tetrahedra and cancel across slots."""
    terms = [(rng.randrange(tets), rng.randrange(3),
              rng.choice((1, -1, 2, -2)))
             for _ in range(rng.randint(0, 8))]
    if terms and rng.random() < 0.35:
        tet, slot, weight = rng.choice(terms)
        terms.insert(rng.randint(0, len(terms)), (tet, slot, -weight))
    return terms


# ---------------------------------------------------------------------------
# Element builders as generator chains
# ---------------------------------------------------------------------------

def reference_generator(z, p, q, mode="ep", cut_side=None):
    """[z, p, q] as ``generator`` made it: the checks, then one trusted
    single-key dict."""
    param = ExtendedParam(z, p, q, cut_side)
    if mode not in ("ep", "eep"):
        raise ValueError("mode must be 'ep' or 'eep'")
    if mode == "eep" and (p % 2 or q % 2):
        raise DomainError("eep elements need even branch indices")
    return EBElement._trusted({param: 1}, mode)


def reference_transfer_instance(z, p, q, p2, q2):
    g = reference_generator
    return g(z, p, q) + g(z, p2, q2) - g(z, p, q2) - g(z, p2, q)


def reference_chi(z, cut_side=None):
    g = reference_generator
    return g(z, 0, 1, cut_side=cut_side) - g(z, 0, 0, cut_side=cut_side)


def reference_chi_hat(z, cut_side=None):
    g = reference_generator
    return (g(z, 0, 2, mode="eep", cut_side=cut_side)
            - g(z, 0, 0, mode="eep", cut_side=cut_side))


def reference_kappa_element(z):
    g = reference_generator
    return g(z, 1, 1) + g(z, 0, 0) - g(z, 1, 0) - g(z, 0, 1)


def reference_super_transfer_rhs(z, p, q):
    coeffs = {
        (1, 1): p * q,
        (1, 0): -(p * q - p),
        (0, 1): -(p * q - q),
        (0, 0): p * q - p - q + 1,
    }
    return EBElement._trusted(
        {ExtendedParam(z, i, j): c for (i, j), c in coeffs.items() if c}, "ep")


def reference_five_term_instance(t):
    terms = {}
    for i, (shape, (p, q)) in enumerate(zip(t.shapes(), t.indices())):
        terms[ExtendedParam(shape, p, q)] = (-1) ** i
    return EBElement._trusted(terms, "ep")


def reference_three_equations_elements(z, p, q, p2, q2, s):
    g = reference_generator
    first = g(z, p, q) - g(z, p, q2) - g(z, p, q - 1) + g(z, p, q2 - 1)
    second = g(z, p, q) - g(z, p2, q) - g(z, p - 1, q) + g(z, p2 - 1, q)
    third = (g(z, p, q) - g(z, p + s, q - s) - g(z, p + 1, q - 1)
             + g(z, p + s + 1, q - s - 1))
    return ("q", first), ("p", second), ("diag", third)


def reference_homo_element(x, y, p0, p1, q0, q1, q2):
    g = reference_generator
    p2 = p1 - p0
    lhs = g(x, p0, q0) - g(y, p1, q1) + g(y / x, p2, q2)
    rhs = g(x, p0, q0 - 1) - g(y, p1, q1 - 1) + g(y / x, p2, q2 - 1)
    return lhs - rhs


def reference_cycle_difference(simplices):
    """The original less the primed element of ``cycle_relation_check``,
    each summed by hand into a dict first."""
    original, primed = {}, {}
    for s in simplices:
        key = ExtendedParam(s.shape, s.p, s.q)
        dp = s.sign * ((s.top_slot == 0) - (s.bottom_slot == 0))
        dq = s.sign * ((s.top_slot == 1) - (s.bottom_slot == 1))
        key2 = key.shifted(dp, dq)
        original[key] = original.get(key, 0) + s.sign
        primed[key2] = primed.get(key2, 0) + s.sign
    return EBElement(original) - EBElement(primed)
