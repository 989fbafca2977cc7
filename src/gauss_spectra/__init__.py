"""Thermodynamic pressure of the Gauss continued-fraction system and the
dimension spectra built on it: Khintchine and Lyapunov spectra, bounded-digit
set dimensions, and fast-growth spectra.

The submodules and the names they export resolve on first access (PEP 562),
so importing the package, or one submodule of it, loads only what is used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cf": (
        "Convergent", "OrbitStats", "PartialQuotients", "construct_point", "continuant",
        "convergents", "orbit_stats_from_digits",
    ),
    "zeta": (
        "golden_constant", "hurwitz_zeta", "khintchine_constant", "khintchine_exponent",
        "lyapunov_constant", "riemann_zeta",
    ),
    "transfer": (
        "Alphabet", "ConvergenceError", "Discretization", "DomainError", "GibbsApprox",
        "PressureProvider", "PressureResult", "cylinder_sum_estimate", "gibbs", "pressure",
        "sample_digits",
    ),
    "spectra": (
        "GrowthRatioEstimate", "ShapeReport", "SpectrumCurve", "SpectrumPoint",
        "WindowError", "bounded_digit_dimension", "cantor_dimension",
        "default_provider", "fast_spectrum_dim", "growth_ratio", "khintchine_curve",
        "khintchine_point", "lyapunov_curve", "lyapunov_point", "lyapunov_point_2d",
        "spectrum_shape_report",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
