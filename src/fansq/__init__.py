"""Higher-order amplitude squeezing of fan states.

A fan state of order k superposes 2k nonlinear coherent states whose
eigenvalues fan out symmetrically in phase space.  This package
computes its Nth-order quadrature squeezing through closed-form series
(log-domain, compensated), checks every number against a brute-force
truncated Fock-space oracle, and maps squeezing regions, boundaries,
and direction patterns over the model parameters.
"""

from .errors import (
    DomainError,
    EmptyBoundary,
    FansqError,
    SeriesNotConverged,
    SingularNonlinearity,
    TruncationTooSmall,
)
from .fanstate import (
    DEFAULT_CONTROL,
    DriveParams,
    FanConfig,
    Identity,
    NonlinearModel,
    SeriesControl,
    TrappedIon,
    moment,
    normalization,
    xi_from_drive,
)
from .fockoracle import (
    FockVector,
    eigen_residual,
    fock_coefficients,
    moment_oracle,
    oracle_vector,
    quadrature_moment,
    support_check,
    support_level,
    vacuum,
)
from .squeeze import (
    ApproxResult,
    DirectionReport,
    LeadingOrderTerms,
    Regime,
    SqueezeCoeffs,
    classify_directions,
    coefficients,
    leading_order_squeeze,
    leading_order_terms,
    min_order,
    squeeze_approx,
    squeeze_parameter,
    vacuum_benchmark,
)
from .atlas import (
    AxisRange,
    GridSpec,
    IntersectionSet,
    PhaseDiagram,
    PolarProfile,
    find_intersections,
    polar_profile,
    scan,
    trace_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EmptyBoundary",
    "FansqError",
    "SeriesNotConverged",
    "SingularNonlinearity",
    "TruncationTooSmall",
    "DEFAULT_CONTROL",
    "DriveParams",
    "FanConfig",
    "Identity",
    "NonlinearModel",
    "SeriesControl",
    "TrappedIon",
    "moment",
    "normalization",
    "xi_from_drive",
    "FockVector",
    "eigen_residual",
    "fock_coefficients",
    "moment_oracle",
    "oracle_vector",
    "quadrature_moment",
    "support_check",
    "support_level",
    "vacuum",
    "ApproxResult",
    "DirectionReport",
    "LeadingOrderTerms",
    "Regime",
    "SqueezeCoeffs",
    "classify_directions",
    "coefficients",
    "leading_order_squeeze",
    "leading_order_terms",
    "min_order",
    "squeeze_approx",
    "squeeze_parameter",
    "vacuum_benchmark",
    "AxisRange",
    "GridSpec",
    "IntersectionSet",
    "PhaseDiagram",
    "PolarProfile",
    "find_intersections",
    "polar_profile",
    "scan",
    "trace_boundary",
]
