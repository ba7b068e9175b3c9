"""febvp: functional dependence maps of two-point boundary value problems.

The package solves xdd = f(tau, x, xd) under endpoint or average-slope
data, exposes the solution value as a map of all its inputs, checks the
functional laws that map satisfies (composition, boundary, smooth
extension, interpolation identities), reconstructs f back from the map,
and evaluates geodesic interpolation on flat and half-plane connections.
"""

from .errors import FebvpError
from .ode_core import (
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteRhs,
    OutOfSpan,
    SecondOrderOde,
    StatePoint,
    StepSizeUnderflow,
    Trajectory,
    integrate_ivp,
)
from .bvp_shooting import (
    ConjugatePoint,
    DEFAULT_SHOOTING,
    IntegralConditions,
    NeumannConditions,
    NoConvergence,
    ShootingConfig,
    ShootingResult,
    clear_cache,
    eval_F,
    eval_S,
    eval_state,
    solve_integral,
    solve_neumann,
)
from .closed_forms import (
    AFFINE_BASIS,
    COS_SIN_BASIS,
    ConicParams,
    DegenerateBasis,
    LinearBasis,
    angelesco_residual,
    conic_F,
    conic_S,
    cos_sin_S,
    free_fall_F,
    free_fall_S,
    linear_F,
    neuman_det,
)
from .functional_laws import (
    DependenceEvaluator,
    EvalDomain,
    EvaluatorFailure,
    LawReport,
    SampleSpec,
    Splitmix64,
    check_boundary,
    check_composition,
    check_extension,
    check_lemma1_equivalence,
    evaluator_from_ode,
    evaluator_from_scalar,
)
from .geodesics import (
    Connection,
    GeodesicMap,
    check_klapka,
    connection_asymmetry,
    flat_connection,
    geodesic_ode,
    half_plane_connection,
    half_plane_geodesic_point,
    jensen_midpoint_check,
)
from .reconstruction import (
    EvaluationFailure,
    MidpointViolation,
    ReconstructionConfig,
    noise_aware_step,
    reconstruct_f,
    roundtrip_check,
)
from .rhs_parser import (
    EvaluationError,
    ParseError,
    UnboundReference,
    bind,
    eval_expr,
    parse,
    pretty,
)
from .catalog import (
    CATALOG,
    CatalogEntry,
    catalog_names,
    check_angelesco,
    closed_evaluator,
    make_ode,
    numeric_evaluator,
    rhs_true,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
