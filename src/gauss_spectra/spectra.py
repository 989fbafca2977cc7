"""Dimension spectra of the Gauss map.

The Khintchine spectrum point at exponent xi solves the two-equation
system

    P(t, q) = q xi,        dP/dq (t, q) = xi,

whose unique solution (t, q) has t = dim of the level set.  It is found by
damped Newton iteration on F(t, q) = (P - q xi, dP/dq - xi), started from
the neighbouring solved point when a curve is marched outward from the
peak (implicit-function continuation), else from the peak (1, 0).

The Lyapunov spectrum reduces to the one-parameter pressure P(u) = P(u, 0):
find u with P'(u) = -beta (brentq), then q = P(u)/beta and t = u + q.  The
same Newton iteration on the two-parameter form, with u = t - q, is kept
alongside as an independent consistency route.

Also here: the flat fast spectrum 1/(b+1), the growth-ratio estimator for
b, the Cantor-set dimension quotient for digit ranges s_n <= a_n < N s_n,
and bounded-digit set dimensions as zeros of restricted pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import brentq

from . import transfer
from .transfer import Alphabet, Discretization, PressureProvider
from .zeta import golden_constant, khintchine_exponent, lyapunov_constant


class WindowError(ValueError):
    """Requested exponent lies outside the supported solver window."""


class BracketError(RuntimeError):
    """A monotone root could not be bracketed; diagnostics in the message."""


class HypothesisError(ValueError):
    """Input sequence violates a hypothesis of the formula being applied."""


class InsufficientGridError(ValueError):
    """Too few or too one-sided curve points for a shape analysis."""


@dataclass(frozen=True)
class SolverConfig:
    """Windows and tolerances of the spectrum solvers.

    ``xi_window`` and ``beta_window`` bound the exponents a point or curve
    accepts.  ``residual_tol`` is the largest max |F| a Newton solve may
    end at when its step stalls before reaching NEWTON_TOL; ``inner_xtol``
    is the brentq tolerance on u in the 1-D Lyapunov route.
    """

    xi_window: tuple[float, float] = (0.05, 50.0)
    beta_window: tuple[float, float] | None = None  # default (gamma0 + 1e-3, 150)
    residual_tol: float = 1e-8
    inner_xtol: float = 1e-13

    def resolved_beta_window(self) -> tuple[float, float]:
        if self.beta_window is not None:
            return self.beta_window
        return (golden_constant() + 1e-3, 150.0)


@dataclass(frozen=True)
class SpectrumPoint:
    """One solved spectrum point: level-set exponent, dimension, multiplier q."""

    exponent: float
    dimension: float
    q_value: float
    residuals: tuple[float, float]
    t_slope: float | None = None      # analytic d(dimension)/d(exponent)
    kind: str = "khintchine"


@dataclass
class SpectrumCurve:
    kind: str
    points: list[SpectrumPoint]
    metadata: dict = field(default_factory=dict)

    @property
    def exponents(self) -> np.ndarray:
        return np.array([p.exponent for p in self.points])

    @property
    def dimensions(self) -> np.ndarray:
        return np.array([p.dimension for p in self.points])


def default_provider(cutoff: int = 64, order: int = 16) -> PressureProvider:
    return PressureProvider(Alphabet.full(cutoff), Discretization.chebyshev(order))


# ---------------------------------------------------------------------------
# damped Newton solver for the two-parameter systems
# ---------------------------------------------------------------------------

NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-12       # max |F| at which an iterate is accepted outright
NEWTON_MIN_STEP = 1e-15  # a damped step this small ends the iteration
NEWTON_FD_STEP = 1e-6    # difference step for the second Jacobian row


def _newton(residual: Callable[[float, float], tuple[float, float]],
            first_row: Callable[[float, float], tuple[float, float]],
            t: float, q: float, tol: float) -> tuple[float, float]:
    """Damped Newton iteration for F(t, q) = 0 from (t, q).

    ``residual`` returns F; ``first_row`` returns the exact gradient of its
    first component.  The gradient of the second component is a one-sided
    difference of F2; both offsets (t + h and q - h) move away from the
    divergence line 2t - q = 1.  A step is halved until t stays positive,
    the pressure is defined and max |F| decreases.  The iteration ends at
    max |F| <= NEWTON_TOL, or when the damped step falls below
    NEWTON_MIN_STEP with max |F| <= ``tol``; otherwise it raises
    ``ConvergenceError``.
    """
    h = NEWTON_FD_STEP
    F = np.asarray(residual(t, q))
    norm = float(np.max(np.abs(F)))
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL:
            return t, q
        jac = np.array([first_row(t, q),
                        [(residual(t + h, q)[1] - F[1]) / h,
                         (F[1] - residual(t, q - h)[1]) / h]])
        try:
            dt, dq = np.linalg.solve(jac, -F)
        except np.linalg.LinAlgError:
            raise transfer.ConvergenceError(
                f"singular Newton Jacobian at (t, q) = ({t}, {q})") from None
        scale = 1.0
        while True:
            if scale * max(abs(dt), abs(dq)) < NEWTON_MIN_STEP:
                if norm <= tol:
                    return t, q
                raise transfer.ConvergenceError(
                    f"Newton stalled at (t, q) = ({t}, {q}) with max |F| = {norm:.3e}")
            t_new, q_new = t + scale * dt, q + scale * dq
            if t_new > 0.0:
                try:
                    F_new = np.asarray(residual(t_new, q_new))
                except transfer.DomainError:
                    F_new = None
                if F_new is not None and float(np.max(np.abs(F_new))) < norm:
                    break
            scale *= 0.5
        t, q, F = t_new, q_new, F_new
        norm = float(np.max(np.abs(F)))
    if norm <= tol:
        return t, q
    raise transfer.ConvergenceError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations; "
        f"max |F| = {norm:.3e} at (t, q) = ({t}, {q})")


def _start(hint: SpectrumPoint | None) -> tuple[float, float]:
    return (hint.dimension, hint.q_value) if hint is not None else (1.0, 0.0)


# ---------------------------------------------------------------------------
# Khintchine spectrum
# ---------------------------------------------------------------------------

def khintchine_point(xi: float, provider: PressureProvider | None = None,
                     config: SolverConfig | None = None,
                     hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Dimension of the level set of mean log-digit equal to ``xi``."""
    cfg = config or SolverConfig()
    lo, hi = cfg.xi_window
    if not lo <= xi <= hi:
        raise WindowError(f"xi = {xi} outside the solver window [{lo}, {hi}]")
    prov = provider or default_provider()

    def residual(t: float, q: float) -> tuple[float, float]:
        return prov.pressure(t, q) - q * xi, prov.dP_dq(t, q) - xi

    def first_row(t: float, q: float) -> tuple[float, float]:
        return prov.dP_dt(t, q), prov.dP_dq(t, q) - xi

    t, q = _newton(residual, first_row, *_start(hint), cfg.residual_tol)
    r1, r2 = residual(t, q)
    return SpectrumPoint(
        exponent=xi, dimension=t, q_value=q, residuals=(abs(r1), abs(r2)),
        t_slope=q / prov.dP_dt(t, q), kind="khintchine",
    )


def _lyapunov_slope_gap(u: float, prov: PressureProvider, beta: float) -> float:
    """P'(u) + beta; module-level so brentq's wrapper holds no provider."""
    return prov.dP_dt(u, 0.0) + beta


def lyapunov_point(beta: float, provider: PressureProvider | None = None,
                   config: SolverConfig | None = None,
                   hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Dimension of the level set of expansion rate ``beta`` (Legendre route).

    Solves P'(u) = -beta for u, sets q = P(u)/beta, t = u + q; the returned
    residuals re-check the two-parameter system at (t, q).
    """
    cfg = config or SolverConfig()
    lo, hi = cfg.resolved_beta_window()
    if not lo <= beta <= hi:
        raise WindowError(f"beta = {beta} outside the solver window [{lo}, {hi}]")
    prov = provider or default_provider()

    u_lo = 0.5 + 0.006
    if _lyapunov_slope_gap(u_lo, prov, beta) >= 0.0:
        raise BracketError(f"P' at the domain edge already exceeds -beta = {-beta}")
    u_hi = hint.dimension - hint.q_value + 0.5 if hint is not None else 1.0
    u_hi = max(u_hi, 1.0)
    while _lyapunov_slope_gap(u_hi, prov, beta) <= 0.0:
        u_hi *= 1.6
        if u_hi > 60.0:
            raise BracketError(f"P'(u) = {-beta} not bracketed below u = 60")
    u = float(brentq(_lyapunov_slope_gap, u_lo, u_hi, args=(prov, beta),
                     xtol=cfg.inner_xtol, rtol=8.9e-16))
    q = prov.pressure(u, 0.0) / beta
    t = u + q
    u_back = t - q
    r1 = abs(prov.pressure(u_back, 0.0) - q * beta)
    r2 = abs(-prov.dP_dt(u_back, 0.0) - beta)
    return SpectrumPoint(
        exponent=beta, dimension=t, q_value=q, residuals=(r1, r2),
        t_slope=-q / beta, kind="lyapunov",
    )


def lyapunov_point_2d(beta: float, provider: PressureProvider | None = None,
                      config: SolverConfig | None = None,
                      hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Lyapunov point by Newton on the two-parameter system (cross-route).

    With u = t - q the system is P(u, 0) = q beta, -dP/dt(u, 0) = beta; it
    shares no root-finding code with ``lyapunov_point``.
    """
    cfg = config or SolverConfig()
    lo, hi = cfg.resolved_beta_window()
    if not lo <= beta <= hi:
        raise WindowError(f"beta = {beta} outside the solver window [{lo}, {hi}]")
    prov = provider or default_provider()

    def residual(t: float, q: float) -> tuple[float, float]:
        u = t - q
        return prov.pressure(u, 0.0) - q * beta, -prov.dP_dt(u, 0.0) - beta

    def first_row(t: float, q: float) -> tuple[float, float]:
        slope = prov.dP_dt(t - q, 0.0)
        return slope, -slope - beta

    t, q = _newton(residual, first_row, *_start(hint), cfg.residual_tol)
    r1, r2 = residual(t, q)
    return SpectrumPoint(
        exponent=beta, dimension=t, q_value=q, residuals=(abs(r1), abs(r2)),
        t_slope=-q / beta, kind="lyapunov",
    )


def _solve_curve(kind: str, grid: Sequence[float], solver, center: float,
                 provider: PressureProvider, cfg: SolverConfig) -> SpectrumCurve:
    grid = np.asarray(sorted(float(g) for g in grid))
    start = int(np.argmin(np.abs(grid - center)))
    solved: dict[int, SpectrumPoint] = {}
    failures: list[dict] = []

    def march(indices):
        hint = solved.get(start)
        for idx in indices:
            try:
                pt = solver(grid[idx], provider, cfg, hint)
                solved[idx] = pt
                hint = pt
            except (BracketError, WindowError, transfer.DomainError,
                    transfer.ConvergenceError) as exc:
                failures.append({"exponent": float(grid[idx]), "error": str(exc)})

    march(range(start, len(grid)))          # peak outward to the right
    march(range(start - 1, -1, -1))         # then outward to the left
    points = [solved[i] for i in sorted(solved)]
    meta = {
        "kind": kind,
        "grid_size": len(grid),
        "failures": failures,
        "center": center,
        "residual_tol": cfg.residual_tol,
        "collocation_order": provider.disc.order,
        "alphabet_kind": provider.alphabet.kind,
        "alphabet_cutoff": provider.alphabet.cutoff,
    }
    return SpectrumCurve(kind=kind, points=points, metadata=meta)


def khintchine_curve(xi_grid: Sequence[float],
                     provider: PressureProvider | None = None,
                     config: SolverConfig | None = None) -> SpectrumCurve:
    """Khintchine spectrum on a grid, warm-started outward from the peak."""
    cfg = config or SolverConfig()
    lo, hi = cfg.xi_window
    grid = np.asarray([float(x) for x in xi_grid])
    if np.any(grid < lo) or np.any(grid > hi):
        raise WindowError(f"grid extends outside the xi window [{lo}, {hi}]")
    prov = provider or default_provider()
    return _solve_curve("khintchine", grid, khintchine_point,
                        khintchine_exponent(), prov, cfg)


def lyapunov_curve(beta_grid: Sequence[float],
                   provider: PressureProvider | None = None,
                   config: SolverConfig | None = None) -> SpectrumCurve:
    """Lyapunov spectrum on a grid (Legendre route per point)."""
    cfg = config or SolverConfig()
    lo, hi = cfg.resolved_beta_window()
    grid = np.asarray([float(x) for x in beta_grid])
    if np.any(grid < lo) or np.any(grid > hi):
        raise WindowError(f"grid extends outside the beta window [{lo}, {hi}]")
    prov = provider or default_provider()
    return _solve_curve("lyapunov", grid, lyapunov_point,
                        lyapunov_constant(), prov, cfg)


# ---------------------------------------------------------------------------
# closed-form spectra and dimension formulas
# ---------------------------------------------------------------------------

def fast_spectrum_dim(b: float) -> float:
    """Dimension 1/(b+1) of fast-growth level sets, independent of the level."""
    if b < 1.0:
        raise ValueError(f"growth ratio b must be >= 1, got {b}")
    return 1.0 / (b + 1.0)


@dataclass(frozen=True)
class GrowthRatioEstimate:
    b: float
    increments_increasing: bool
    increments_unbounded: bool
    fit_residual: float

    @property
    def hypothesis_ok(self) -> bool:
        return self.increments_increasing and self.increments_unbounded and self.b >= 1.0 - 1e-9


def growth_ratio(phi_samples: Sequence[float]) -> GrowthRatioEstimate:
    """Estimate b = lim phi(n+1)/phi(n) from samples phi(1..N).

    Fits the tail ratios against 1 + c/n + d/n^2, which removes the leading
    finite-n bias of polynomially growing normalizations.  Hypothesis
    violations (non-increasing increments, bounded increments, b < 1) are
    reported in the diagnostics, not raised.
    """
    phi = np.asarray([float(v) for v in phi_samples])
    if len(phi) < 16:
        raise ValueError("need at least 16 samples")
    if np.any(phi <= 0.0) or np.any(np.diff(phi) <= 0.0):
        raise ValueError("samples must be positive and strictly increasing")
    increments = np.diff(phi)
    inc_diffs = np.diff(increments)
    scale = float(np.max(increments))
    increasing = bool(np.all(inc_diffs >= -1e-12 * scale))
    unbounded = bool(increments[-1] > increments[0])

    ratios = phi[1:] / phi[:-1]
    m = min(8, len(ratios))
    n = np.arange(len(ratios) - m + 1, len(ratios) + 1, dtype=float)
    design = np.stack([np.ones(m), 1.0 / n, 1.0 / n ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, ratios[-m:], rcond=None)
    resid = float(np.max(np.abs(design @ coef - ratios[-m:])))
    return GrowthRatioEstimate(
        b=float(coef[0]),
        increments_increasing=increasing,
        increments_unbounded=unbounded,
        fit_residual=resid,
    )


@dataclass(frozen=True)
class CantorDimensionEstimate:
    value: float                  # liminf proxy: min over the trailing window
    global_min: float
    last_values: tuple[float, ...]
    horizon: int

    @property
    def stabilization(self) -> float:
        """Spread of the trailing quotients; small means the liminf settled."""
        return max(self.last_values) - min(self.last_values)


def cantor_dimension(log_s: Callable[[int], float], horizon: int,
                     tail_window: int | None = None) -> CantorDimensionEstimate:
    """Dimension quotient for the digit-range Cantor sets.

    ``log_s(n)`` must return log s_n (log domain, because interesting rules
    like s_n = 2^(2^n) overflow any fixed-size float long before the
    quotient stabilizes).  The estimate is

        min over the trailing window of
            sum_{k<=n} log s_k / (2 sum_{k<=n} log s_k + log s_{n+1}),

    a finite-horizon proxy for the liminf: the early transient is excluded
    because the liminf only sees the tail.
    """
    if horizon < 32:
        raise ValueError("horizon must be >= 32")
    window = tail_window if tail_window is not None else max(10, horizon // 4)
    log3 = math.log(3.0)
    acc = 0.0
    quotients = np.empty(horizon)
    ls_next = float(log_s(1))
    for n in range(1, horizon + 1):
        ls = ls_next
        if ls < log3 - 1e-12:
            raise HypothesisError(f"s_{n} = e^{ls:.3f} < 3 violates the range hypothesis")
        acc += ls
        ls_next = float(log_s(n + 1))
        quotients[n - 1] = acc / (2.0 * acc + ls_next)
    tail = quotients[-window:]
    return CantorDimensionEstimate(
        value=float(np.min(tail)),
        global_min=float(np.min(quotients)),
        last_values=tuple(float(v) for v in quotients[-10:]),
        horizon=horizon,
    )


def bounded_digit_dimension(digits: Iterable[int],
                            disc: Discretization | None = None) -> float:
    """Hausdorff dimension of continued fractions with digits in a finite set.

    The unique zero of the restricted-alphabet pressure t -> P_digits(t);
    a single digit gives a single point, dimension 0.
    """
    ds = tuple(sorted(set(int(d) for d in digits)))
    if not ds:
        raise ValueError("digit set must be nonempty")
    if len(ds) == 1:
        return 0.0
    alphabet = Alphabet.restricted(ds)
    disc = disc or Discretization.chebyshev()

    def f(t: float) -> float:
        return transfer.pressure_1d(t, alphabet, disc).value

    return float(brentq(f, 1e-9, 1.0, xtol=1e-13, rtol=8.9e-16))


# ---------------------------------------------------------------------------
# curve shape analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeReport:
    kind: str
    n_points: int
    peak_exponent: float
    peak_dimension: float
    slope_sign_changes: int
    slope_change_interval: tuple[float, float] | None
    curvature_at_peak: float
    convexity_witness: tuple[float, float] | None  # (exponent, curvature > 0)
    q_sign_consistent: bool
    slope_identity_max_err: float


def _central_derivatives(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives at interior points of a nonuniform grid."""
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    d1 = (y[2:] * h1 ** 2 - y[:-2] * h2 ** 2 + y[1:-1] * (h2 ** 2 - h1 ** 2)) / (
        h1 * h2 * (h1 + h2))
    d2 = 2.0 * (y[:-2] * h2 + y[2:] * h1 - y[1:-1] * (h1 + h2)) / (
        h1 * h2 * (h1 + h2))
    return d1, d2


def spectrum_shape_report(curve: SpectrumCurve,
                          peak_reference: float | None = None) -> ShapeReport:
    """Finite-difference shape diagnostics along a solved spectrum curve.

    Reports the peak, the single sign change of the slope, the sign of the
    curvature at the peak, the first point past the peak where the
    curvature turns positive (the witness that the curve is not concave),
    the q-sign pattern around the peak, and the worst mismatch between
    finite-difference slopes and the analytic slope stored on each point.
    """
    pts = curve.points
    if len(pts) < 20:
        raise InsufficientGridError("need at least 20 solved points")
    x = curve.exponents
    y = curve.dimensions
    q = np.array([p.q_value for p in pts])
    i_peak = int(np.argmax(y))
    if i_peak < 3 or i_peak > len(pts) - 4:
        raise InsufficientGridError("curve must span both sides of its peak")

    secants = np.diff(y) / np.diff(x)
    signs = np.sign(secants)
    changes = np.nonzero(signs[1:] * signs[:-1] < 0)[0]
    interval = None
    if len(changes) > 0:
        j = int(changes[0])
        interval = (float(x[j]), float(x[j + 2]))

    d1, d2 = _central_derivatives(x, y)
    curvature_at_peak = float(d2[i_peak - 1])
    witness = None
    for j in range(i_peak, len(d2)):
        if d2[j] > 0.0:
            witness = (float(x[j + 1]), float(d2[j]))
            break

    center = peak_reference if peak_reference is not None else float(x[i_peak])
    left_ok = bool(np.all(q[x < center - 0.01] < 0.0))
    right_ok = bool(np.all(q[x > center + 0.01] > 0.0))
    near = np.abs(x - center) < 1e-3
    near_ok = bool(np.all(np.abs(q[near]) < 1e-3)) if near.any() else True

    slopes_analytic = np.array([p.t_slope for p in pts])
    ident_err = float(np.max(np.abs(d1 - slopes_analytic[1:-1])))

    return ShapeReport(
        kind=curve.kind,
        n_points=len(pts),
        peak_exponent=float(x[i_peak]),
        peak_dimension=float(y[i_peak]),
        slope_sign_changes=int(len(changes)),
        slope_change_interval=interval,
        curvature_at_peak=curvature_at_peak,
        convexity_witness=witness,
        q_sign_consistent=left_ok and right_ok and near_ok,
        slope_identity_max_err=ident_err,
    )
