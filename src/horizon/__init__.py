"""Endpoint maps, bracket steering, homotopy lifts, and L^p geodesics
for affine control systems with piecewise-constant controls."""

from .errors import (
    AdmissibilityError,
    ChartRadiusError,
    ConfigError,
    ConvergenceError,
    DomainEscapeError,
    HorizonError,
    NotBracketGeneratingError,
    SingularFiberError,
    UnsupportedRepresentationError,
    UnsupportedStepError,
)
from .signals import (
    ControlSignal,
    EnergyParams,
    concatenate_rescaled,
    constant_signal,
    dual_map,
    energy,
    energy_gradient,
    flow_segment,
    zero_signal,
)
from .systems import (
    RANK_TOL,
    BracketWord,
    ControlSystem,
    SymbolicField,
    bracket_frame,
    catalog_load,
    catalog_names,
    displacement,
    lie_bracket,
    polynomial_field,
    state_symbols,
    system_from_json,
    system_to_json,
)
from .endpoint import (
    EndpointDifferential,
    Trajectory,
    differential,
    endpoint,
    fiber_project,
    integrate,
    regular_value_test,
)
from .steering import (
    SteeringChart,
    SteeringPlan,
    build_chart,
    check_admissibility,
    critical_exponent,
    cross_section,
    cross_section_drift,
)
from .lifting import (
    LiftResult,
    TargetPath,
    continuity_report,
    lift_path,
)
from .geodesics import (
    CoincidenceReport,
    GeodesicOptions,
    GeodesicRecord,
    MultistartReport,
    coincidence_check,
    lagrange_residual,
    multistart,
    solve_critical,
)

__version__ = "0.1.0"
