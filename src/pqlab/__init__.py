"""Numerical laboratory for degenerate parabolic p,q-growth problems.

Solves Cauchy-Dirichlet problems for double-phase parabolic equations with
degenerate coefficients by implicit time stepping, and verifies the
machinery of the a-priori sup-bound theory at desk scale: exponent
arithmetic and the growth-gap condition, the time mollification and
analysis lemmas, the truncation energy (Caccioppoli) inequality, level
choices and shrinking-cylinder iterations, energy bounds for the
regularization sweep, and the variational inequality of the limit map.

The imports below are the one declaration of the public API.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    ParameterError,
    PreconditionError,
    RegionError,
    StepFailure,
)
from .exponents import (
    DerivedExponents,
    GapReport,
    StructureParams,
    check_gap,
    derive,
    epsilon_threshold,
)
from .grid import (
    CoefficientNorms,
    Cylinder,
    Domain,
    SpaceTimeField,
    coefficient_norms,
    constant_field,
    cylinder_in_domain,
    ess_sup,
    field_from_function,
    load_field_dump,
    lp_norm,
    mean_integral,
    region_measure,
    save_field_csv,
    save_field_dump,
    slice_sup_l2,
    truncate_plus,
)
from .lemmas import (
    AbsorptionParams,
    GeometricIteration,
    IterationResult,
    absorption_bound,
    geometric_iterate,
    interpolation_ratio,
    mollifier_derivative_residual,
    mollify_time,
)
from .model import (
    Coefficient,
    CoefficientSpec,
    IntegrandSpec,
    flux,
    integrand,
)
from .solver import (
    BoundaryDatum,
    ComparisonMap,
    EnergyData,
    SolveConfig,
    SolveStats,
    StepHistory,
    comparison_maps,
    energy_report,
    face_divergence,
    face_gradients,
    solve,
    solve_levels,
    variational_gap_curve,
    weak_residual,
)
from .degiorgi import (
    BoundReport,
    CaccioppoliSides,
    DeGiorgiTrace,
    caccioppoli_sides,
    choose_level_k,
    theorem_bound,
    trace,
    verify_sup_bound,
)
from .harness import (
    ExperimentConfig,
    SweepReport,
    emit_config,
    emit_reports,
    load_config,
    run_sweep,
)

__version__ = "0.1.0"
