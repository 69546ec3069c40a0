"""Reciprocal gamma and two-parameter Mittag-Leffler functions via rotated
Hankel-type loop integrals, with series/closed-form/legacy-loop cross-checks.
"""

from .errors import (
    ContourValidityError,
    ConvergenceError,
    IntegrandError,
    MlcError,
    PreconditionError,
)
from .gamma import (
    DEFAULT_GAMMA_SPEC,
    is_gamma_pole,
    log_gamma,
    recip_gamma_contour,
    recip_gamma_oracle,
    recip_gamma_points,
    reflection_residual,
)
from .geometry import (
    GammaContourSpec,
    PolarComplex,
    default_ml_deltas,
    gamma_psi_window,
    ml_arg_window,
    validate_gamma_contour,
)
from .mittag_leffler import (
    ComparisonReport,
    MethodOutcome,
    MLParams,
    SeriesDiagnostics,
    compare_methods,
    evaluate_ml,
    ml_bateman,
    ml_closed_form,
    ml_contour,
    ml_dzhrbashyan,
    ml_route,
    ml_series,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    Evaluation,
    QuadratureConfig,
    QuadratureResult,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ContourValidityError",
    "ConvergenceError",
    "DEFAULT_GAMMA_SPEC",
    "DEFAULT_QUADRATURE",
    "Evaluation",
    "GammaContourSpec",
    "IntegrandError",
    "MethodOutcome",
    "MLParams",
    "MlcError",
    "PolarComplex",
    "PreconditionError",
    "QuadratureConfig",
    "QuadratureResult",
    "SeriesDiagnostics",
    "compare_methods",
    "default_ml_deltas",
    "evaluate_ml",
    "gamma_psi_window",
    "is_gamma_pole",
    "log_gamma",
    "ml_arg_window",
    "ml_bateman",
    "ml_closed_form",
    "ml_contour",
    "ml_dzhrbashyan",
    "ml_route",
    "ml_series",
    "recip_gamma_contour",
    "recip_gamma_oracle",
    "recip_gamma_points",
    "reflection_residual",
    "validate_gamma_contour",
]
