"""Complex volume of hyperbolic 3-manifolds from ideal triangulations.

The pipeline: parse a triangulation, Newton-solve the gluing equations for
the simplex shapes, solve an integer linear system for combinatorial
flattenings (branch indices) meeting the edge and cusp-path conditions, and
evaluate the lifted Rogers dilogarithm on the resulting element.  The
imaginary part is the hyperbolic volume; minus the real part is the
Chern-Simons invariant, well defined modulo pi^2.

The formal layer (wedge expressions and pre-Bloch elements) verifies the
algebraic identities the construction rests on at desk scale.
"""

from .bloch import (
    EBElement,
    FiveTermTuple,
    chi,
    chi_hat,
    epsilon_parity,
    five_term_instance,
    generator,
    kappa_element,
    nu_symbolic,
    r_of_element,
    super_transfer_rhs,
    transfer_instance,
)
from .errors import (
    ConvergenceError,
    CVolError,
    DegenerateGeometryError,
    DomainError,
    InconsistentSystemError,
    NonIntegralError,
    SymbolMatchError,
    TriangulationError,
)
from .flattening import (
    CycleSimplex,
    FlatteningAssignment,
    JComplex,
    build_j_complex,
    complex_volume,
    cycle_relation_check,
    fundamental_element,
    homology_of_j,
    integral_defect,
    omega,
    solve_flattenings,
)
from .geometry import (
    IdealSimplexShape,
    cross_ratio,
    edge_parameter,
    five_point_edge_conditions,
    five_point_shapes,
    flatten,
    unflatten,
)
from .gluing import GluingSystem, ShapeSolution, gluing_equations, solve_shapes
from .params import ExtendedParam, Flattening
from .polylog import (
    ModPiSquared,
    bloch_wigner,
    dilog,
    lifted_rogers,
    principal_log,
    reduce_mod,
    rogers,
)
from .triangulation import (
    Combinatorics,
    EdgeClass,
    NormalPath,
    PathStep,
    Triangulation,
    edge_classes,
    edge_loop,
    orientation_signs,
    parse_triangulation,
    path_passes,
)
from .wedge import SymbolVector, WedgeExpr, combine, is_zero, sym, wedge

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
