"""Every function the benchmark traces is still defined by its module.

``perfbench/tracer.py`` wraps functions by (module, name) and counts a name
that is gone as absent instead of failing, so a rename or a deletion in
``cvol`` would silently drop that layer's figures.  It reports the time of
each ``verify`` suite as ``verify.<suite>.s`` by the suite's name, so a
renamed suite would read 0 without any warning.
"""

import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

KNOWN_ABSENT = {
    # gone since kernel pruning grows one spanning forest of the
    # vertex-link states, stepping by triangulation.link_step in place
    "triangulation.vertex_link_cycles",
    # the defect is read off the flattening system's right-hand side
    "flattening.integral_defect",
    # the solve's second Hermite form gives the reduced solution
    "intlinalg.reduce_mod_lattice",
}


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_traced_functions_are_defined():
    # resolved as the tracer resolves them: in the named module, else in
    # whichever cvol module defines the name now
    tracer = _tracer()
    modules = tracer._import_cvol()
    missing = {
        name
        for name, (module, func) in tracer.LAYER_FUNCTIONS.items()
        if tracer._find_function(modules, module, func) is None
    }
    assert missing <= KNOWN_ABSENT


def test_traced_functions_have_one_definition():
    # judged by ``__module__``: a function moved to another module leaves no
    # stale copy behind, and the tracer wraps the one that runs
    tracer = _tracer()
    modules = tracer._import_cvol()
    for name, (module, func) in tracer.LAYER_FUNCTIONS.items():
        if name in KNOWN_ABSENT:
            continue
        homes = [m.__name__ for m in modules
                 if getattr(getattr(m, func, None), "__module__", None)
                 == m.__name__]
        found = tracer._find_function(modules, module, func)
        assert homes == [found.__module__], name


def test_traced_suites_are_the_verify_suites_in_order():
    from cvol.verify import ALL_SUITES

    assert _tracer().VERIFY_SUITES == tuple(s.__name__ for s in ALL_SUITES)
