"""Correctness checks run after the timed phase.

Reference values come from ``mpmath`` at ``DPS`` digits and from properties
the exact pressure has; none of them is a stored copy of the program's
output.  Each check returns a list of failure messages (empty when it
passes), so ``selftest.py`` can show each one rejecting a perturbed result.
"""

from __future__ import annotations

import mpmath

from gauss_spectra import spectra

DPS = 50
PEAK_T_TOL = 1e-10        # |t - 1| at the peak exponent
PEAK_Q_TOL = 1e-9         # |q| at the peak exponent
SANDWICH_TOL = 1e-12      # slack on the zeta sandwich
# |P - q x| and |P' - x| re-solved at a point's (t, q): the solver's own tolerance
RESIDUAL_TOL = spectra.SolverConfig().residual_tol
REPEAT_TOL = 1e-8         # a repeated round must give the same outputs


class References:
    """Constants of the Gauss map, computed with mpmath alone."""

    def __init__(self):
        with mpmath.workdps(DPS):
            self.xi0 = float(mpmath.log(mpmath.khinchin))
            self.lam0 = float(mpmath.pi ** 2 / (6 * mpmath.log(2)))
            self.gamma0 = float(2 * mpmath.log((1 + mpmath.sqrt(5)) / 2))

    @staticmethod
    def log_zeta(s: float):
        with mpmath.workdps(DPS):
            return mpmath.log(mpmath.zeta(mpmath.mpf(s)))


def _sandwich(value: float, s: float, t: float, tol: float = SANDWICH_TOL) -> bool:
    """log zeta(s) - t log 4 <= value <= log zeta(s): the cylinder bounds on P."""
    with mpmath.workdps(DPS):
        upper = References.log_zeta(s)
        lower = upper - mpmath.mpf(t) * mpmath.log(4)
        v = mpmath.mpf(value)
        return lower - tol <= v <= upper + tol


# -- spectrum curves: points are (exponent, t, q) sorted by exponent ------------

def curve_peak(points, peak: float) -> list[str]:
    at = [p for p in points if p[0] == peak]
    if not at:
        return [f"peak exponent {peak!r} not among the solved points"]
    _, t, q = at[0]
    if abs(t - 1.0) > PEAK_T_TOL or abs(q) > PEAK_Q_TOL:
        return [f"peak {peak!r} solved to (t, q) = ({t!r}, {q!r}), not (1, 0)"]
    return []


def curve_sandwich(points, kind: str) -> list[str]:
    bad = []
    for x, t, q in points:
        if kind == "khintchine":
            ok = _sandwich(q * x, 2.0 * t - q, t)
        else:  # Lyapunov: P(u, 0) = q beta with u = t - q
            u = t - q
            ok = _sandwich(q * x, 2.0 * u, u)
        if not ok:
            bad.append(f"{kind} point {x!r}: (t, q) = ({t!r}, {q!r}) outside the zeta sandwich")
    return bad


def curve_residuals(points, kind: str) -> list[str]:
    """Re-solve each point's equations on a fresh provider.

    Khintchine: P(t, q) = q xi and dP/dq(t, q) = xi.  Lyapunov (u = t - q):
    P(u, 0) = q beta and -dP/dt(u, 0) = beta.
    """
    prov = spectra.default_provider()
    bad = []
    for x, t, q in points:
        if kind == "khintchine":
            r = (prov.pressure(t, q) - q * x, prov.dP_dq(t, q) - x)
        else:
            r = (prov.pressure(t - q, 0.0) - q * x, -prov.dP_dt(t - q, 0.0) - x)
        if max(map(abs, r)) > RESIDUAL_TOL:
            bad.append(f"{kind} point {x!r}: (t, q) = ({t!r}, {q!r}) leaves residuals "
                       f"{r[0]:.3g}, {r[1]:.3g}")
    return bad


def curve_shape(points, peak: float) -> list[str]:
    bad = []
    left = [p for p in points if p[0] <= peak]
    right = [p for p in points if p[0] >= peak]
    if any(b[1] <= a[1] for a, b in zip(left, left[1:])):
        bad.append("t does not rise before the peak")
    if any(b[1] >= a[1] for a, b in zip(right, right[1:])):
        bad.append("t does not fall after the peak")
    if any(q >= 0.0 for x, _, q in points if x < peak):
        bad.append("q >= 0 before the peak")
    if any(q <= 0.0 for x, _, q in points if x > peak):
        bad.append("q <= 0 after the peak")
    if any(t <= 0.5 for x, t, _ in points if x > peak):
        bad.append("t <= 1/2 after the peak")
    return bad


CHECKS = {
    "khintchine-curve": (
        lambda pts, refs: curve_peak(pts, refs.xi0),
        lambda pts, refs: curve_sandwich(pts, "khintchine"),
        lambda pts, refs: curve_shape(pts, refs.xi0),
        lambda pts, refs: curve_residuals(pts, "khintchine"),
    ),
    "lyapunov-curve": (
        lambda pts, refs: curve_peak(pts, refs.lam0),
        lambda pts, refs: curve_sandwich(pts, "lyapunov"),
        lambda pts, refs: curve_shape(pts, refs.lam0),
        lambda pts, refs: curve_residuals(pts, "lyapunov"),
    ),
}


def check_round(workload: str, outputs, refs) -> list[str]:
    return [msg for check in CHECKS[workload] for msg in check(outputs, refs)]


def _numbers(outputs):
    for row in outputs:
        for v in row:
            if isinstance(v, float):
                yield v


def same_outputs(first, again) -> bool:
    """A repeated round must reproduce its first outputs."""
    if len(first) != len(again):
        return False
    a, b = list(_numbers(first)), list(_numbers(again))
    return len(a) == len(b) and all(abs(x - y) <= REPEAT_TOL * max(1.0, abs(x))
                                    for x, y in zip(a, b))
