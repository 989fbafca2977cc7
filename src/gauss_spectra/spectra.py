"""Dimension spectra of the Gauss map.

The Khintchine spectrum point at exponent xi solves the two-equation
system

    P(t, q) = q xi,        dP/dq (t, q) = xi,

whose unique solution (t, q) has t = dim of the level set.  It is found by
damped Newton iteration on F(t, q) = (P - q xi, dP/dq - xi), started from
the neighbouring solved point when a curve is marched outward from the
peak (implicit-function continuation), else from the peak (1, 0).  The
Jacobian is exact, built from the pressure's gradient and Hessian, so each
iterate costs one eigen-solve.

Each step is Newton's on the reciprocal slope equation 1/xi - 1/P_q = 0.
Near the divergence line 2t - q = 1, P ~ -log(2t - q - 1), so P_q grows
like 1/(2t - q - 1) while 1/P_q is nearly linear, and the plain step would
overshoot toward the line.  Only the step changes: F, its residuals, the
damping test and the tolerances stay those of the plain system.

The Lyapunov spectrum reduces to the one-parameter pressure P(u) = P(u, 0):
find u with P'(u) = -beta by a damped 1-D Newton iteration on u with the
exact P''(u), its step taken from 1/beta + 1/P'(u) = 0 likewise, then
q = P(u)/beta and t = u + q.  The 2x2 Newton iteration on the
two-parameter form, with u = t - q, is kept alongside as an independent
consistency route with the plain step; the two share no root-finding code.
The windows XI_WINDOW, BETA_WINDOW and the tolerance RESIDUAL_TOL are module
constants.  The shape report of a solved curve reads the analytic curvature
each point carries; finite differences only check the analytic slope, in the
tests and in the CLI's ``slope_fd`` column.

Also here: the flat fast spectrum 1/(b+1), the growth-ratio estimator for
b, the Cantor-set dimension quotient for digit ranges s_n <= a_n < N s_n,
and bounded-digit set dimensions as zeros of restricted pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import transfer
from .transfer import Alphabet, Discretization, PressureProvider
from .zeta import golden_constant, khintchine_exponent, lyapunov_constant


class WindowError(ValueError):
    """Requested exponent lies outside the supported solver window."""


class HypothesisError(ValueError):
    """Input sequence violates a hypothesis of the formula being applied."""


class InsufficientGridError(ValueError):
    """Too few or too one-sided curve points for a shape analysis."""


XI_WINDOW = (0.05, 50.0)                        # Khintchine exponents accepted
BETA_WINDOW = (golden_constant() + 1e-3, 150.0)  # Lyapunov exponents accepted
RESIDUAL_TOL = 1e-8  # largest max |F| a Newton solve may end at once its step stalls


class SolverConfig:
    """``SolverConfig().residual_tol`` is RESIDUAL_TOL.

    The solvers read the module constants; this field-less class stays
    because the benchmark's checks (``spectra_bench/checks.py``) read the
    tolerance through it.
    """

    residual_tol = RESIDUAL_TOL


def _check_window(name: str, values: Iterable[float], window: tuple[float, float]) -> None:
    lo, hi = window
    for v in map(float, values):
        if not lo <= v <= hi:
            raise WindowError(f"{name} = {v} outside the solver window [{lo}, {hi}]")


@dataclass(frozen=True)
class SpectrumPoint:
    """One solved spectrum point: level-set exponent, dimension, multiplier q."""

    exponent: float
    dimension: float
    q_value: float
    residuals: tuple[float, float]
    t_slope: float | None = None      # analytic d(dimension)/d(exponent)
    t_curvature: float | None = None  # analytic d^2(dimension)/d(exponent)^2


@dataclass
class SpectrumCurve:
    """Solved points; ``metadata["failures"]`` lists the exponent and error of
    each unsolved grid point and ``metadata["solves"]`` counts new provider
    eigen-solves."""

    kind: str
    points: list[SpectrumPoint]
    metadata: dict = field(default_factory=dict)

    @property
    def exponents(self) -> np.ndarray:
        return np.array([p.exponent for p in self.points])

    @property
    def dimensions(self) -> np.ndarray:
        return np.array([p.dimension for p in self.points])


def default_provider() -> PressureProvider:
    """A provider on the full alphabet (cutoff 64) at collocation order 16."""
    return PressureProvider()


# ---------------------------------------------------------------------------
# damped Newton solver for the two-parameter systems
# ---------------------------------------------------------------------------

NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-12       # max |F| at which an iterate is accepted outright
NEWTON_MIN_STEP = 1e-15  # a damped step this small ends the iteration
LYAPUNOV_U_MIN = 0.506   # 1-D Newton iterates stay above this u (domain edge 0.505)
DIMENSION_XTOL = 1e-13   # Newton step at which bounded_digit_dimension stops


def _newton(system: Callable[[float, float], tuple[tuple[float, float], np.ndarray]],
            t: float, q: float, tol: float) -> tuple[float, float]:
    """Damped Newton iteration for F(t, q) = 0 from (t, q).

    ``system`` returns F and the Jacobian the step uses (jac @ step = -F),
    from one pressure result, so an iterate costs one eigen-solve.  A row
    of the exact Jacobian scaled by a positive factor gives the step of an
    equation with the same roots; damping and termination read F alone.
    A step is halved until t stays positive, the pressure is defined and
    max |F| decreases.  The iteration ends at max |F| <= NEWTON_TOL, or
    when the damped step falls below NEWTON_MIN_STEP with max |F| <=
    ``tol``; otherwise it raises ``ConvergenceError``.
    """
    F, jac = system(t, q)
    norm = max(abs(F[0]), abs(F[1]))
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL:
            return t, q
        try:
            dt, dq = np.linalg.solve(jac, -np.asarray(F))
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
                    F_new, jac_new = system(t_new, q_new)
                except transfer.DomainError:
                    F_new = None
                if F_new is not None and max(abs(F_new[0]), abs(F_new[1])) < norm:
                    break
            scale *= 0.5
        t, q, F, jac = t_new, q_new, F_new, jac_new
        norm = max(abs(F[0]), abs(F[1]))
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
                     hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Dimension of the level set of mean log-digit equal to ``xi``.

    The Newton step is that of (P - q xi, 1/xi - 1/P_q) = 0: the exact
    Jacobian of F = (P - q xi, P_q - xi) with its second row scaled by
    xi / P_q, while F and the residuals are the plain ones.  P_q <= 0 (only
    on the alphabet {1}) raises ``ConvergenceError``.

    ``t_slope`` and ``t_curvature`` come from implicit differentiation of
    P(t, q) = q xi, P_q(t, q) = xi: t' = q / P_t, q' = (1 - P_tq t') / P_qq
    and t'' = (q' P_t - q (P_tt t' + P_tq q')) / P_t^2.
    """
    _check_window("xi", [xi], XI_WINDOW)
    prov = provider or default_provider()

    def system(t: float, q: float):
        r = prov.result(t, q)
        if r.dP_dq <= 0.0:
            raise transfer.ConvergenceError(
                f"dP/dq = {r.dP_dq} <= 0 at (t, q) = ({t}, {q}); xi = {xi} is unreachable")
        scale = xi / r.dP_dq
        return ((r.value - q * xi, r.dP_dq - xi),
                np.array([[r.dP_dt, r.dP_dq - xi],
                          [scale * r.d2P_dtdq, scale * r.d2P_dq2]]))

    t, q = _newton(system, *_start(hint), RESIDUAL_TOL)
    r = prov.result(t, q)
    slope = q / r.dP_dt
    dq = (1.0 - r.d2P_dtdq * slope) / r.d2P_dq2
    curvature = (dq * r.dP_dt - q * (r.d2P_dt2 * slope + r.d2P_dtdq * dq)) / r.dP_dt ** 2
    return SpectrumPoint(
        exponent=xi, dimension=t, q_value=q,
        residuals=(abs(r.value - q * xi), abs(r.dP_dq - xi)),
        t_slope=slope, t_curvature=curvature,
    )


# ---------------------------------------------------------------------------
# Lyapunov spectrum
# ---------------------------------------------------------------------------

def _lyapunov_point(beta: float, t: float, q: float,
                    res: transfer.PressureResult) -> SpectrumPoint:
    """The point (t, q) with its residuals from the result at u = t - q.

    With u' = -1 / P''(u) and q' = -u' - q / beta, the slope is -q / beta and
    the curvature t'' = -q' / beta + q / beta^2.
    """
    dq = 1.0 / res.d2P_dt2 - q / beta
    return SpectrumPoint(
        exponent=beta, dimension=t, q_value=q,
        residuals=(abs(res.value - q * beta), abs(res.dP_dt + beta)),
        t_slope=-q / beta, t_curvature=-dq / beta + q / beta ** 2,
    )


def lyapunov_point(beta: float, provider: PressureProvider | None = None,
                   hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Dimension of the level set of expansion rate ``beta`` (Legendre route).

    Solves P'(u) = -beta for u, sets q = P(u)/beta, t = u + q; the returned
    residuals re-check the two-parameter system at (t, q).  P' is increasing
    in u and behaves like -2/(2u - 1) near the domain edge, where 1/P' is
    nearly linear.  So the step is Newton's on 1/beta + 1/P'(u) = 0: the
    plain step on P' + beta times -P'(u)/beta, shorter right of the root
    (where |P'| < beta), so a step toward the edge does not overshoot it.
    A step that would still leave the domain is halved until u stays above
    LYAPUNOV_U_MIN.  The iteration starts from the hint's u (else 1) and
    stops at |P' + beta| <= NEWTON_TOL * beta, or when the step stops
    shrinking once |P' + beta| is within RESIDUAL_TOL (the rounding floor
    of P').
    """
    _check_window("beta", [beta], BETA_WINDOW)
    prov = provider or default_provider()

    u = hint.dimension - hint.q_value if hint is not None else 1.0
    last_step = math.inf
    for _ in range(NEWTON_MAX_ITER):
        res = prov.result(u, 0.0)
        gap = res.dP_dt + beta
        step = gap * res.dP_dt / (beta * res.d2P_dt2)
        if abs(gap) <= NEWTON_TOL * beta or (
                abs(step) >= last_step and abs(gap) <= RESIDUAL_TOL):
            q = res.value / beta
            return _lyapunov_point(beta, u + q, q, res)
        last_step = abs(step)
        while u + step <= LYAPUNOV_U_MIN:
            step *= 0.5
        u += step
    raise transfer.ConvergenceError(
        f"P'(u) = {-beta} not reached in {NEWTON_MAX_ITER} Newton steps; u = {u}")


def lyapunov_point_2d(beta: float, provider: PressureProvider | None = None,
                      hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Lyapunov point by Newton on the two-parameter system (cross-route).

    With u = t - q the system is P(u, 0) = q beta, -dP/dt(u, 0) = beta; it
    shares no root-finding code with ``lyapunov_point``.
    """
    _check_window("beta", [beta], BETA_WINDOW)
    prov = provider or default_provider()

    def system(t: float, q: float):
        r = prov.result(t - q, 0.0)
        return ((r.value - q * beta, -r.dP_dt - beta),
                np.array([[r.dP_dt, -r.dP_dt - beta], [-r.d2P_dt2, r.d2P_dt2]]))

    t, q = _newton(system, *_start(hint), RESIDUAL_TOL)
    return _lyapunov_point(beta, t, q, prov.result(t - q, 0.0))


def _solve_curve(kind: str, grid: Sequence[float], solver, center: float,
                 provider: PressureProvider | None) -> SpectrumCurve:
    provider = provider or default_provider()
    grid = np.asarray(sorted(float(g) for g in grid))
    start = int(np.argmin(np.abs(grid - center)))
    solved: dict[int, SpectrumPoint] = {}
    failures: list[dict] = []
    solves_before = provider.solves

    def march(indices):
        hint = solved.get(start)
        for idx in indices:
            try:
                pt = solver(grid[idx], provider, hint)
                solved[idx] = pt
                hint = pt
            except (WindowError, transfer.DomainError,
                    transfer.ConvergenceError) as exc:
                failures.append({"exponent": float(grid[idx]), "error": str(exc)})

    march(range(start, len(grid)))          # peak outward to the right
    march(range(start - 1, -1, -1))         # then outward to the left
    points = [solved[i] for i in sorted(solved)]
    meta = {"failures": failures, "solves": provider.solves - solves_before}
    return SpectrumCurve(kind=kind, points=points, metadata=meta)


def khintchine_curve(xi_grid: Sequence[float],
                     provider: PressureProvider | None = None) -> SpectrumCurve:
    """Khintchine spectrum on a grid, warm-started outward from the peak."""
    _check_window("xi", xi_grid, XI_WINDOW)
    return _solve_curve("khintchine", xi_grid, khintchine_point, khintchine_exponent(), provider)


def lyapunov_curve(beta_grid: Sequence[float],
                   provider: PressureProvider | None = None) -> SpectrumCurve:
    """Lyapunov spectrum on a grid (Legendre route per point)."""
    _check_window("beta", beta_grid, BETA_WINDOW)
    return _solve_curve("lyapunov", beta_grid, lyapunov_point, lyapunov_constant(), provider)


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
    return GrowthRatioEstimate(
        b=float(coef[0]),
        increments_increasing=increasing,
        increments_unbounded=unbounded,
    )


@dataclass(frozen=True)
class CantorDimensionEstimate:
    value: float                  # liminf proxy: min over the trailing window
    last_values: tuple[float, ...]

    @property
    def stabilization(self) -> float:
        """Spread of the trailing quotients; small means the liminf settled."""
        return max(self.last_values) - min(self.last_values)


def cantor_dimension(log_s: Callable[[int], float], horizon: int) -> CantorDimensionEstimate:
    """Dimension quotient for the digit-range Cantor sets.

    ``log_s(n)`` must return log s_n (log domain, because interesting rules
    like s_n = 2^(2^n) overflow any fixed-size float long before the
    quotient stabilizes).  The estimate is

        min over the trailing max(10, horizon // 4) quotients of
            sum_{k<=n} log s_k / (2 sum_{k<=n} log s_k + log s_{n+1}),

    a finite-horizon proxy for the liminf: the early transient is excluded
    because the liminf only sees the tail.
    """
    if horizon < 32:
        raise ValueError("horizon must be >= 32")
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
    tail = quotients[-max(10, horizon // 4):]
    return CantorDimensionEstimate(
        value=float(np.min(tail)),
        last_values=tuple(float(v) for v in quotients[-10:]),
    )


def bounded_digit_dimension(digits: Iterable[int],
                            disc: Discretization | None = None) -> float:
    """Hausdorff dimension of continued fractions with digits in a finite set.

    The unique zero of the restricted-alphabet pressure t -> P_D(t); a
    single digit gives a single point, dimension 0.  P_D is decreasing and
    convex with P_D(0) = log |D| > 0, so Newton on the exact P_D' from
    t = 0 climbs monotonically to the zero; it stops at a step of at most
    DIMENSION_XTOL or once steps stop shrinking (the rounding floor).
    """
    ds = tuple(sorted(set(int(d) for d in digits)))
    if not ds:
        raise ValueError("digit set must be nonempty")
    if len(ds) == 1:
        return 0.0
    alphabet = Alphabet.restricted(ds)
    disc = disc or Discretization.chebyshev()

    t, last_step = 0.0, math.inf
    for _ in range(NEWTON_MAX_ITER):
        res = transfer.pressure(t, 0.0, alphabet, disc)
        step = -res.value / res.dP_dt
        if abs(step) >= last_step:
            return t
        t += step
        if abs(step) <= DIMENSION_XTOL:
            return t
        last_step = abs(step)
    raise transfer.ConvergenceError(
        f"P_D(t) = 0 not reached in {NEWTON_MAX_ITER} Newton steps for D = {ds}; t = {t}")


# ---------------------------------------------------------------------------
# curve shape analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeReport:
    peak_exponent: float
    peak_dimension: float
    slope_sign_changes: int
    curvature_at_peak: float
    convexity_witness: tuple[float, float] | None  # (exponent, curvature > 0)
    q_sign_consistent: bool


def spectrum_shape_report(curve: SpectrumCurve, peak_reference: float) -> ShapeReport:
    """Shape diagnostics along a solved spectrum curve.

    Reports the peak, the single sign change of the secant slope, the
    analytic curvature ``t_curvature`` at the peak, the first point past the
    peak where it turns positive (the witness that the curve is not
    concave) and the q-sign pattern around ``peak_reference``.
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

    curvature = np.array([p.t_curvature for p in pts])
    witness = None
    for j in range(i_peak + 1, len(pts)):
        if curvature[j] > 0.0:
            witness = (float(x[j]), float(curvature[j]))
            break

    left_ok = bool(np.all(q[x < peak_reference - 0.01] < 0.0))
    right_ok = bool(np.all(q[x > peak_reference + 0.01] > 0.0))
    near = np.abs(x - peak_reference) < 1e-3
    near_ok = bool(np.all(np.abs(q[near]) < 1e-3)) if near.any() else True

    return ShapeReport(
        peak_exponent=float(x[i_peak]),
        peak_dimension=float(y[i_peak]),
        slope_sign_changes=int(len(changes)),
        curvature_at_peak=float(curvature[i_peak]),
        convexity_witness=witness,
        q_sign_consistent=left_ok and right_ok and near_ok,
    )
