"""Complex volume of hyperbolic 3-manifolds from ideal triangulations.

The pipeline: parse a triangulation, Newton-solve the gluing equations for
the simplex shapes, solve an integer linear system for combinatorial
flattenings (branch indices) meeting the edge and cusp-path conditions, and
evaluate the lifted Rogers dilogarithm on the resulting element.  The
imaginary part is the hyperbolic volume; minus the real part is the
Chern-Simons invariant, well defined modulo pi^2.

The formal layer (wedge expressions and pre-Bloch elements) verifies the
algebraic identities the construction rests on at desk scale.

``import cvol`` loads no submodule: each name below is resolved on first
use (PEP 562), so ``cvol.solve_shapes`` imports ``cvol.gluing`` when it is
first read, and a command loads only the modules it runs.
"""

import importlib
import sys
import types

#: defining module -> the names the package re-exports from it
_EXPORTS = {
    "bloch": (
        "CycleSimplex", "EBElement", "FiveTermTuple", "Flattening",
        "bloch_wigner", "chi", "chi_hat", "cycle_relation_check", "dilog",
        "epsilon_parity", "five_point_edge_conditions", "five_point_shapes",
        "five_term_instance", "flatten", "generator", "kappa_element",
        "lifted_rogers",
        "nu_symbolic", "r_of_element", "rogers", "super_transfer_rhs",
        "transfer_instance", "unflatten",
    ),
    "errors": (
        "ConvergenceError", "CVolError", "DegenerateGeometryError",
        "DomainError", "InconsistentSystemError", "NonIntegralError",
        "SymbolMatchError", "TriangulationError",
    ),
    "flattening": (
        "FlatteningAssignment", "complex_volume", "fundamental_element",
        "solve_flattenings",
    ),
    "geometry": ("IdealSimplexShape",),
    "gluing": (
        "GluingSystem", "ShapeSolution", "gluing_equations", "solve_shapes",
    ),
    "jcomplex": ("JComplex", "build_j_complex", "homology_of_j"),
    "params": ("ExtendedParam",),
    "polylog": ("ModPiSquared", "principal_log", "reduce_mod"),
    "triangulation": (
        "Combinatorics", "EdgeClass", "NormalPath", "PathStep",
        "Triangulation", "edge_classes", "edge_loop", "orientation_signs",
        "parse_triangulation", "path_passes",
    ),
    "wedge": ("SymbolVector", "WedgeExpr", "combine", "is_zero", "sym",
              "wedge"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
#: submodules the package has always bound as attributes
_SUBMODULES = (*_EXPORTS, "intlinalg")

__version__ = "0.1.0"

__all__ = sorted({*_MODULE_OF, *_SUBMODULES})


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The import system binds a submodule on its package when it first
    loads it.  ``cvol.wedge`` names the function ``wedge.wedge``, so the
    submodule of that name is not bound over it."""

    def __setattr__(self, name: str, value) -> None:
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
