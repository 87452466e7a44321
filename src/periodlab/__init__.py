"""periodlab: exact and convergent-series periods of polynomial anharmonic wells.

The library factors the classical period integral against a harmonic reference
sharing the turning points, which turns the inverse-square-root singularities
into a smooth angle integral.  Balancing the reference frequency against the
extrema of the residual makes the resulting binomial series converge for every
energy with periodic motion.  Exact quadrature, closed-form elliptic routes
(canonical quartic and cubic wells) and a direct equation-of-motion oracle
cross-check every value.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    NoMinimumError,
    PeriodLabError,
    SeparatrixError,
)
from .frame import (
    BALANCED,
    FIXED,
    NAYFEH,
    BalancedFrame,
    balanced_frame,
    delta_at,
    extrema_of_R,
    fixed_frame,
    nayfeh_frame,
    x_of_theta,
)
from .oracle import OracleReport, TrajectoryState, integrate, measure_period
from .period import (
    BOUNDARY,
    CONVERGENT,
    DIVERGENT,
    EllipticForm,
    PeriodResult,
    SeriesResult,
    best_series,
    binom_minus_half,
    cubic_elliptic,
    cubic_elliptic_form,
    cubic_series_balanced,
    duffing_balanced_large_rho_limit,
    duffing_elliptic,
    duffing_elliptic_form,
    duffing_large_rho_constant,
    duffing_series_balanced,
    duffing_series_nayfeh,
    elliptic_K,
    period_from_series,
    period_quadrature,
    period_quadratures,
    period_series_generic,
)
from .potential import (
    BarrierInfo,
    EnergyShell,
    PolynomialPotential,
    barrier_info,
    cubic_factorization,
    cubic_potential,
    duffing_potential,
    from_physical,
    harmonic_potential,
    shells,
    turning_points,
)

__version__ = "0.1.0"

__all__ = [
    "BALANCED",
    "BOUNDARY",
    "BalancedFrame",
    "BarrierInfo",
    "CONVERGENT",
    "ConvergenceError",
    "DIVERGENT",
    "DomainError",
    "EllipticForm",
    "EnergyShell",
    "FIXED",
    "NAYFEH",
    "NoMinimumError",
    "OracleReport",
    "PeriodLabError",
    "PeriodResult",
    "PolynomialPotential",
    "SeparatrixError",
    "SeriesResult",
    "TrajectoryState",
    "balanced_frame",
    "barrier_info",
    "best_series",
    "binom_minus_half",
    "cubic_elliptic",
    "cubic_elliptic_form",
    "cubic_factorization",
    "cubic_potential",
    "cubic_series_balanced",
    "delta_at",
    "duffing_balanced_large_rho_limit",
    "duffing_elliptic",
    "duffing_elliptic_form",
    "duffing_large_rho_constant",
    "duffing_potential",
    "duffing_series_balanced",
    "duffing_series_nayfeh",
    "elliptic_K",
    "extrema_of_R",
    "fixed_frame",
    "from_physical",
    "harmonic_potential",
    "integrate",
    "measure_period",
    "nayfeh_frame",
    "period_from_series",
    "period_quadrature",
    "period_quadratures",
    "period_series_generic",
    "shells",
    "turning_points",
    "x_of_theta",
]
