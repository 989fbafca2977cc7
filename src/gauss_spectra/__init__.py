"""Thermodynamic pressure of the Gauss continued-fraction system and the
dimension spectra built on it: Khintchine and Lyapunov spectra, bounded-digit
set dimensions, and fast-growth spectra."""

from .cf import (
    Convergent,
    Cylinder,
    ExpansionTerminatedError,
    OrbitStats,
    PartialQuotients,
    PrecisionLossError,
    construct_point,
    continuant,
    convergents,
    cylinder,
    expand,
    exponent_estimates,
    gauss_density,
    gauss_map,
    orbit_stats_from_digits,
)
from .zeta import (
    golden_constant,
    hurwitz_zeta,
    khintchine_constant,
    khintchine_exponent,
    lyapunov_constant,
    riemann_zeta,
)
from .transfer import (
    Alphabet,
    ConvergenceError,
    CylinderSumEstimate,
    Discretization,
    DomainError,
    GibbsApprox,
    PressureProvider,
    PressureResult,
    apply_operator,
    cylinder_sum_estimate,
    gibbs,
    pressure,
    sample_digits,
)
from .spectra import (
    CantorDimensionEstimate,
    GrowthRatioEstimate,
    ShapeReport,
    SpectrumCurve,
    SpectrumPoint,
    WindowError,
    bounded_digit_dimension,
    cantor_dimension,
    default_provider,
    fast_spectrum_dim,
    growth_ratio,
    khintchine_curve,
    khintchine_point,
    lyapunov_curve,
    lyapunov_point,
    lyapunov_point_2d,
    spectrum_shape_report,
)

__version__ = "0.1.0"
