"""Dimension spectra of the Gauss map.

The Khintchine spectrum point at exponent xi solves the two-equation
system

    P(t, q) = q xi,        dP/dq (t, q) = xi,

whose unique solution (t, q) has t = dim of the level set.  It is found by
damped Newton iteration on F(t, q) = (P - q xi, dP/dq - xi), started from
the peak (1, 0), or, when a curve is marched outward from the peak, from
the neighbouring solved point with a first step to the Hermite
extrapolation through the last three points solved on the march
(``_predict``; the march to the left of the peak starts from the peak and
the two points right of it).  Toward large xi the extrapolated pair is
(t, log(xi (2t - q - 1))), whose second entry levels off as the curve
nears the divergence line.  The Jacobian is exact, built from the
pressure's gradient and Hessian, so each iterate costs one eigen-solve.

Each step is taken on the reciprocal slope equation 1/xi - 1/P_q = 0:
Newton's from the peak, and from a warm start Chebyshev's where the stop
measure is above CHEBYSHEV_FROM, with the mixed third derivatives P_ttq,
P_tqq and P_qqq the provider computes from that solve on request.
Near the divergence line 2t - q = 1, P ~ -log(2t - q - 1), so P_q grows
like 1/(2t - q - 1) while 1/P_q is nearly linear, and the plain step would
overshoot toward the line.  Only the step changes: F, its residuals and
the damping test stay those of the plain system.

The Lyapunov spectrum reduces to the one-parameter pressure P(u) = P(u, 0):
find u with P'(u) = -beta by a 1-D Newton iteration on u with the exact
P''(u), then q = P(u)/beta and t = u + q.  Above the peak lambda0 the step
is taken from 1/beta + 1/P'(u) = 0 likewise; below it from
log(-P'(u) - gamma0) = log(beta - gamma0), because -P'(u) - gamma0 decays
exponentially in u as beta falls to gamma0.  Each step is Chebyshev's
third-order step on that form, from the exact P'''(u) the provider gives
for each iterate (``PressureProvider.d3P_dt3``), and falls back to the
damped Newton step where it does not lower the residual.  On a curve the
first step goes to the u extrapolated likewise, as log(beta (u - 1/2))
toward large beta, with the curvature u'' at the nearest solved point.
The 2x2 Newton iteration on the two-parameter form, with u = t - q, is
kept alongside as a cross-check with the plain step: independent
equations, the same driver.

These solves and the bounded-digit zeros below run on one damped Newton
driver, ``_newton``; each caller gives it the residual of the form it steps
on, that residual's Jacobian, optionally its Hessian, and its own stop
measure.  A predicted first step and a Chebyshev step are
kept only if they lower the residual.  The windows XI_WINDOW,
BETA_WINDOW and the tolerance RESIDUAL_TOL are module constants.  The
shape report of a solved curve reads the analytic curvature each point
carries; finite differences only check the analytic slope, in the tests and
in the CLI's ``slope_fd`` column.

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


class UnreachableExponentError(WindowError, transfer.ConvergenceError):
    """A Khintchine exponent outside (log min D, log max D), the range of the
    mean log-digit on a finite alphabet D: outside the window, and a
    ``ConvergenceError`` too, as no Newton iteration can reach it."""


class HypothesisError(ValueError):
    """Input sequence violates a hypothesis of the formula being applied."""


class InsufficientGridError(ValueError):
    """Too few or too one-sided curve points for a shape analysis."""


XI_WINDOW = (0.05, 50.0)                        # Khintchine exponents accepted
BETA_WINDOW = (golden_constant() + 1e-6, 150.0)  # Lyapunov exponents accepted
RESIDUAL_TOL = 1e-8  # largest stop measure a Newton solve may end at once it stalls


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
    lyapunov_u: float | None = None   # u = t - q of the Lyapunov routes' final solve


@dataclass
class SpectrumCurve:
    """Solved points; ``metadata["failures"]`` lists the exponent and error of
    each unsolved grid point and ``metadata["solves"]`` counts new provider
    eigen-solves."""

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
# damped Newton driver
# ---------------------------------------------------------------------------

NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-12       # stop measure at which an iterate is accepted outright
NEWTON_MIN_STEP = 1e-15  # a damped step this small ends the iteration
# stop measure above which a warm Khintchine iterate takes Chebyshev's step:
# below it a Newton step already lands under NEWTON_TOL
CHEBYSHEV_FROM = math.sqrt(NEWTON_TOL)
LYAPUNOV_U_MIN = 0.506   # 1-D Newton iterates stay above this u (domain edge 0.505)
HERMITE_REACH = 8.0      # node spacings beyond its nearer node the cubic predictor may reach


def _solve(jac, rhs, x: tuple) -> tuple:
    """J^-1 rhs for the rows ``jac`` of a 1x1 or 2x2 Jacobian at ``x``: a
    division, or Cramer's rule.  A zero or non-finite determinant raises
    ``ConvergenceError``."""
    if len(rhs) == 1:
        det, out = jac[0][0], rhs
    else:
        (a, b), (c, d) = jac
        det, out = a * d - b * c, (d * rhs[0] - b * rhs[1], a * rhs[1] - c * rhs[0])
    if det == 0.0 or not math.isfinite(det):
        raise transfer.ConvergenceError(f"singular Newton Jacobian at {x}")
    return tuple([v / det for v in out])


def _newton(system: Callable[[tuple], tuple], x: tuple, step: tuple | None = None) -> tuple:
    """Damped Newton iteration for r(x) = 0 from the 1- or 2-tuple ``x``.

    ``system(x)`` returns (r, J, H, err) from one pressure result, so an
    iterate costs one eigen-solve: the residual r of the form whose step is
    taken, the rows J of its Jacobian (J @ step = -r), the Hessians H[i] of
    the r[i] (or a function returning them or ``None``, called only when a
    Chebyshev step is tried) or ``None``, and the caller's stop measure
    err.  A row of the exact Jacobian scaled by a positive factor gives the
    step of an equation with the same roots.  A zero or non-finite
    determinant raises ``ConvergenceError``.

    A trial point passes if ``system`` is defined there (raises neither
    ``DomainError`` nor ``ConvergenceError``; errors at the starting point
    propagate) and max |r| falls.  ``step``, if given, is a predicted first
    step: it is taken whole if it passes, and otherwise dropped, since a
    prediction need not point downhill.  With H, the step tried next is
    Chebyshev's third-order one, dx - J^-1 H(dx, dx) / 2 for the Newton
    step dx, taken whole if it passes.  Otherwise the Newton step is halved
    until it passes.  The iteration ends at err <= NEWTON_TOL; once the
    damped step falls below NEWTON_MIN_STEP, or after NEWTON_MAX_ITER
    iterations, it ends if err <= RESIDUAL_TOL and raises
    ``ConvergenceError`` otherwise.
    """
    def trial(dx, norm: float):
        """(x + dx, ``system`` there) if it is defined there and max |r| < ``norm``."""
        x_new = tuple([v + s for v, s in zip(x, dx)])
        try:
            out = system(x_new)
        except (transfer.DomainError, transfer.ConvergenceError):
            return None
        return (x_new, out) if max(map(abs, out[0])) < norm else None

    r, jac, hess, err = system(x)
    for _ in range(NEWTON_MAX_ITER):
        if err <= NEWTON_TOL:
            return x
        norm = max(map(abs, r))
        accepted = None
        if step is not None:
            accepted, step = trial(step, norm), None
        if accepted is None:
            dx = _solve(jac, [-v for v in r], x)
            if callable(hess):
                hess = hess()
            if hess is not None:
                curve = [sum([dx[j] * row[j][k] * dx[k] for j in range(len(dx))
                              for k in range(len(dx))]) for row in hess]
                accepted = trial([a - 0.5 * b for a, b in zip(dx, _solve(jac, curve, x))],
                                 norm)
            scale = 1.0
            while accepted is None:
                if scale * max(map(abs, dx)) < NEWTON_MIN_STEP:
                    if err <= RESIDUAL_TOL:
                        return x
                    raise transfer.ConvergenceError(
                        f"Newton stalled at {x} with stop measure {err:.3e}")
                accepted = trial([scale * s for s in dx], norm)
                scale *= 0.5
        x, (r, jac, hess, err) = accepted
    if err <= RESIDUAL_TOL:
        return x
    raise transfer.ConvergenceError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations; "
        f"stop measure {err:.3e} at {x}")


# ---------------------------------------------------------------------------
# predictor along a curve
# ---------------------------------------------------------------------------

def _coordinate(x: float, forward: bool, floor: float) -> tuple[float, float, float]:
    """(s, dx/ds, d^2x/ds^2) in the coordinate where a curve is nearly linear
    at the end a march heads toward: s = 1/x toward x -> infinity,
    s = log(x - floor) toward the bottom of the window."""
    if forward:
        return 1.0 / x, -x * x, 2.0 * x * x * x
    return math.log(x - floor), x - floor, x - floor


def _predict(x: float, floor: float, nodes):
    """Values at exponent ``x`` extrapolated from solved ``nodes``.

    ``nodes`` holds one to three (exponent, value, d value/d exponent), the
    nearest to ``x`` first; a node may carry d^2 value/d exponent^2 as a
    fourth entry.  Value, slope and curvature are floats, or tuples of
    floats, one entry per curve extrapolated on the same exponents, and the
    result is of the same kind.  The extrapolation is taken in the
    coordinate s of ``_coordinate``.  It is the Hermite polynomial through
    the value and slope at every node and the curvatures given, in Newton
    form on the confluent divided differences of the repeated nodes: one
    node gives the tangent line, two the cubic, three the quintic, and a
    curvature at the nearest node raises the degree by one.  Callers give a
    curvature at the nearest node only: with curvatures at all three nodes
    the extrapolation overshoots on some sparse grids until the solve's exp
    overflows.  If ``x`` lies more than HERMITE_REACH spacings of the two
    nearest nodes beyond the nearer one, it is the Taylor polynomial at the
    nearest node (the tangent line, or the parabola): farther out the terms
    of the other nodes swamp the step, and at 32 spacings damped Newton from
    the cubic through two nodes fails on some grids.
    """
    if isinstance(nodes[0][1], tuple):
        return tuple([_hermite(x, floor, [(node[0],) + tuple([v[c] for v in node[1:]])
                                          for node in nodes])
                      for c in range(len(nodes[0][1]))])
    return _hermite(x, floor, nodes)


def _hermite(x: float, floor: float, nodes) -> float:
    """``_predict`` of one curve, its nodes carrying floats."""
    forward = x > nodes[0][0]
    s = _coordinate(x, forward, floor)[0]
    z, derivs = [], []                  # derivs[i]: value, d/ds, d^2/ds^2 / 2 at z[i]
    for xk, yk, mk, *curvature in nodes:
        sk, dk, ddk = _coordinate(xk, forward, floor)
        jet = [yk, mk * dk]
        if curvature:
            jet.append(0.5 * (curvature[0] * dk * dk + mk * ddk))
        z += [sk] * len(jet)
        derivs += [jet] * len(jet)
    near = len(derivs[0])
    if len(nodes) > 1 and abs(s - z[0]) > HERMITE_REACH * abs(z[0] - z[near]):
        z, derivs = z[:near], derivs[:near]
    n = len(z)
    coef = [d[0] for d in derivs]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            if z[i] == z[i - j]:        # confluent: the j-th Taylor coefficient
                coef[i] = derivs[i][j]
            else:
                coef[i] = (coef[i] - coef[i - 1]) / (z[i] - z[i - j])
    value = coef[-1]
    for i in range(n - 2, -1, -1):
        value = value * (s - z[i]) + coef[i]
    return value


def _log_gap(x: float, gap: float, slope: float) -> tuple[float, float]:
    """log(x gap) and its derivative in x, from a gap to the divergence line
    and its derivative ``slope``.  The gap falls like 1/x as x -> infinity,
    so log(x gap) levels off there; the gap is e^g / x again."""
    return math.log(x * gap), 1.0 / x + slope / gap


def _marching(x: float, hint: SpectrumPoint,
              prior: Sequence[SpectrumPoint]) -> list[SpectrumPoint]:
    """The points to extrapolate to ``x`` from: ``hint``, then those of
    ``prior`` (the points solved before it, the nearest first) as long as
    each step from one to the next nearer heads toward ``x``."""
    nodes = [hint]
    for p in prior:
        if (nodes[-1].exponent - p.exponent) * (x - hint.exponent) <= 0.0:
            break
        nodes.append(p)
    return nodes


# ---------------------------------------------------------------------------
# Khintchine spectrum
# ---------------------------------------------------------------------------

def _khintchine_slopes(r: transfer.PressureResult, q: float) -> tuple[float, float]:
    """(t', q') along the Khintchine curve at the point of result ``r``."""
    slope = q / r.dP_dt
    return slope, (1.0 - r.d2P_dtdq * slope) / r.d2P_dq2


def khintchine_point(xi: float, provider: PressureProvider | None = None,
                     hint: SpectrumPoint | None = None,
                     prior: Sequence[SpectrumPoint] = ()) -> SpectrumPoint:
    """Dimension of the level set of mean log-digit equal to ``xi``.

    The Newton step is that of (P - q xi, 1/xi - 1/P_q) = 0: the exact
    Jacobian of F = (P - q xi, P_q - xi) with its second row scaled by
    xi / P_q, while F and the damping test on max |F| are the plain ones.
    It stops at max(|P - q xi|, |P_q - xi| / xi) <= NEWTON_TOL, since P_q
    is known only to a few ulps of xi.  On a finite alphabet D, P_q is a
    mean of log a_1 over D, so an xi outside (log min D, log max D) raises
    ``UnreachableExponentError`` before any solve.  P_q <= 0 at an iterate
    raises ``ConvergenceError``; t <= 0 is outside the domain.

    Newton starts from the peak (1, 0), or from ``hint`` with a predicted
    first step (see ``_newton``) to the (t, q) that ``_predict``
    extrapolates from ``hint`` and ``prior`` (the points solved before it,
    the nearest first; see ``_marching``) with the slopes t', q' below, read
    from the provider at those points (cache hits along a curve).  For
    xi > hint.exponent on the full alphabet the pair extrapolated is
    (t, g) with g = log(xi (2t - q - 1)) and g' = 1/xi + (2t' - q')/(2t - q - 1),
    since P ~ -log(2t - q - 1) near the divergence line makes 2t - q - 1
    fall like 1/xi; then q = 2t - 1 - e^g / xi.

    From a warm start, an iterate whose stop measure exceeds CHEBYSHEV_FROM
    offers ``_newton`` the Hessians of the step form for Chebyshev's step:
    Hess P and (xi/P_q) Hess P_q - (2 xi/P_q^2) grad P_q grad P_q^T, with
    the mixed third derivatives in Hess P_q read from the provider
    (``PressureProvider.mixed_thirds``) only when that step is tried.  Below
    CHEBYSHEV_FROM a Newton step squares the stop measure to below
    NEWTON_TOL, so the thirds would buy nothing.  From the cold start (1, 0)
    a Chebyshev step toward xi = 50 lands beyond the divergence line, so it
    takes Newton's.

    ``t_slope`` and ``t_curvature`` come from implicit differentiation of
    P(t, q) = q xi, P_q(t, q) = xi: t' = q / P_t, q' = (1 - P_tq t') / P_qq
    and t'' = (q' P_t - q (P_tt t' + P_tq q')) / P_t^2.
    """
    _check_window("xi", [xi], XI_WINDOW)
    prov = provider or default_provider()
    digits = prov.alphabet.digits
    if digits is not None and not math.log(digits[0]) < xi < math.log(digits[-1]):
        raise UnreachableExponentError(
            f"xi = {xi} outside (log {digits[0]}, log {digits[-1]}), the range of the "
            f"mean log-digit on the digits {digits}")

    def system(x):
        t, q = x
        if t <= 0.0:
            raise transfer.DomainError(f"t = {t} <= 0")
        r = prov.result(t, q)
        P_q = r.dP_dq
        if P_q <= 0.0:
            raise transfer.ConvergenceError(
                f"dP/dq = {P_q} <= 0 at (t, q) = ({t}, {q}); xi = {xi} is unreachable")
        scale = xi / P_q
        F = (r.value - q * xi, P_q - xi)
        jac = ((r.dP_dt, P_q - xi), (scale * r.d2P_dtdq, scale * r.d2P_dq2))
        err = max(abs(F[0]), abs(F[1]) / xi)

        def hess():
            thirds = prov.mixed_thirds(t, q)
            if thirds is None:
                return None
            P_ttq, P_tqq, P_qqq = thirds
            tq, qq = jac[1]                 # (xi/P_q) grad P_q
            cross = 2.0 / xi
            tqq = scale * P_tqq - cross * tq * qq
            return (((r.d2P_dt2, r.d2P_dtdq), (r.d2P_dtdq, r.d2P_dq2)),
                    ((scale * P_ttq - cross * tq * tq, tqq),
                     (tqq, scale * P_qqq - cross * qq * qq)))

        return F, jac, hess if hint is not None and err > CHEBYSHEV_FROM else None, err

    step = None
    if hint is not None:
        gap_form = xi > hint.exponent and prov.alphabet.has_tail
        nodes = []
        for p in _marching(xi, hint, prior):
            t, q = p.dimension, p.q_value
            dt, dq = _khintchine_slopes(prov.result(t, q), q)
            if gap_form:
                q, dq = _log_gap(p.exponent, 2.0 * t - q - 1.0, 2.0 * dt - dq)
            nodes.append((p.exponent, (t, q), (dt, dq)))
        t_new, q_new = _predict(xi, 0.0, nodes)
        if gap_form:
            q_new = 2.0 * t_new - 1.0 - math.exp(q_new) / xi
        step = (t_new - hint.dimension, q_new - hint.q_value)
    start = (hint.dimension, hint.q_value) if hint is not None else (1.0, 0.0)
    t, q = _newton(system, start, step)
    r = prov.result(t, q)
    slope, dq = _khintchine_slopes(r, q)
    curvature = (dq * r.dP_dt - q * (r.d2P_dt2 * slope + r.d2P_dtdq * dq)) / r.dP_dt ** 2
    return SpectrumPoint(
        exponent=xi, dimension=t, q_value=q,
        residuals=(abs(r.value - q * xi), abs(r.dP_dq - xi)),
        t_slope=slope, t_curvature=curvature,
    )


# ---------------------------------------------------------------------------
# Lyapunov spectrum
# ---------------------------------------------------------------------------

def _lyapunov_point(beta: float, t: float, q: float, u: float,
                    res: transfer.PressureResult) -> SpectrumPoint:
    """The point (t, q) with its residuals from the result ``res`` at
    u = t - q; ``u`` is kept exactly, so a warm start from the point queries
    the provider at the u it solved.

    With u' = -1 / P''(u) and q' = -u' - q / beta, the slope is -q / beta and
    the curvature t'' = -q' / beta + q / beta^2.
    """
    dq = 1.0 / res.d2P_dt2 - q / beta
    return SpectrumPoint(
        exponent=beta, dimension=t, q_value=q,
        residuals=(abs(res.value - q * beta), abs(res.dP_dt + beta)),
        t_slope=-q / beta, t_curvature=-dq / beta + q / beta ** 2, lyapunov_u=u,
    )


def _lyapunov_u(p: SpectrumPoint) -> float:
    """The u = t - q a point was solved at: its exact ``lyapunov_u`` when a
    Lyapunov route set it, else t - q."""
    return p.lyapunov_u if p.lyapunov_u is not None else p.dimension - p.q_value


def lyapunov_point(beta: float, provider: PressureProvider | None = None,
                   hint: SpectrumPoint | None = None,
                   prior: Sequence[SpectrumPoint] = ()) -> SpectrumPoint:
    """Dimension of the level set of expansion rate ``beta`` (Legendre route).

    Solves P'(u) = -beta for u, sets q = P(u)/beta, t = u + q; the returned
    residuals re-check the two-parameter system at (t, q).  P' increases in
    u from -infinity at the domain edge u = 1/2 to -gamma0, and each Newton
    step is taken on a form of the equation that is nearly linear in u:

    - beta >= lambda0: 1/beta + 1/P'(u) = 0, since P' ~ -2/(2u - 1) near
      the edge; this is the plain step times -P'(u)/beta, so a step toward
      the edge does not overshoot it.
    - beta < lambda0: log(-P'(u) - gamma0) = log(beta - gamma0), since the
      gap -P'(u) - gamma0 decays exponentially in u.  A gap <= 0 raises
      ``ConvergenceError``.

    ``_newton`` tries Chebyshev's step on that form first, with its second
    derivative r'' = -P'''/P'^2 + 2 P''^2/P'^3 (reciprocal form) or
    -P'''/e - (P''/e)^2 with e = -P' - gamma0 (log-gap form); otherwise it
    damps the Newton step on the residual of that form.  P''' is read from
    the provider (``PressureProvider.d3P_dt3``) at every iterate, so every
    point a march passes through keeps it; where the provider has none (a
    point another caller solved earlier) the step is Newton's and the
    curvature below is left out.  It treats u <= LYAPUNOV_U_MIN as outside
    the domain.  The iteration starts from
    u = 1, or from the hint's u (``_lyapunov_u``), so a warm start's first
    query hits the provider cache; its predicted first step then goes to the
    u that ``_predict`` extrapolates from ``hint`` and ``prior`` with
    u' = -1/P''(u), and u'' = P''' u'/P''^2 at the nearest node, or, for
    beta above hint.exponent on the full alphabet, from
    v = log(beta (u - 1/2)) with v' = 1/beta + u'/(u - 1/2) and
    v'' = -1/beta^2 + u''/(u - 1/2) - (u'/(u - 1/2))^2, giving
    u = 1/2 + e^v / beta.  It stops at |P' + beta| / beta <= NEWTON_TOL.
    """
    _check_window("beta", [beta], BETA_WINDOW)
    prov = provider or default_provider()
    gamma0 = golden_constant()
    log_gap = beta < lyapunov_constant()

    u, step = 1.0, None
    if hint is not None:
        u = _lyapunov_u(hint)
        gap_form = beta > hint.exponent and prov.alphabet.has_tail
        nodes = []
        for p in _marching(beta, hint, prior):
            v = _lyapunov_u(p)
            res = prov.result(v, 0.0)
            dv = -1.0 / res.d2P_dt2
            # the curvature goes in at the nearest node only
            P3 = None if nodes else prov.d3P_dt3(v, 0.0)
            curvature = ()
            if P3 is not None:
                ddv = P3 * dv / res.d2P_dt2 ** 2
                if gap_form:
                    ddv = -1.0 / p.exponent ** 2 + ddv / (v - 0.5) - (dv / (v - 0.5)) ** 2
                curvature = (ddv,)
            if gap_form:
                v, dv = _log_gap(p.exponent, v - 0.5, dv)
            nodes.append((p.exponent, v, dv) + curvature)
        predicted = _predict(beta, gamma0, nodes)
        if gap_form:
            predicted = 0.5 + math.exp(predicted) / beta
        step = (predicted - u,)

    def system(x):
        u, = x
        if u <= LYAPUNOV_U_MIN:
            raise transfer.DomainError(f"u = {u} <= {LYAPUNOV_U_MIN}")
        res = prov.result(u, 0.0)
        P1, P2 = res.dP_dt, res.d2P_dt2
        if log_gap:
            e = -P1 - gamma0
            if e <= 0.0:
                raise transfer.ConvergenceError(
                    f"-P'(u) - gamma0 = {e} <= 0 at u = {u}; no log-gap step")
            r, dr = math.log(e / (beta - gamma0)), -P2 / e
        else:
            r, dr = (P1 + beta) / (beta * P1), -P2 / P1 ** 2
        P3 = prov.d3P_dt3(u, 0.0)
        if P3 is None:
            return (r,), ((dr,),), None, abs(P1 + beta) / beta
        ddr = -P3 / e - dr * dr if log_gap else -P3 / P1 ** 2 + 2.0 * P2 * P2 / P1 ** 3
        return (r,), ((dr,),), (((ddr,),),), abs(P1 + beta) / beta

    u, = _newton(system, (u,), step)
    res = prov.result(u, 0.0)
    q = res.value / beta
    return _lyapunov_point(beta, u + q, q, u, res)


def lyapunov_point_2d(beta: float, provider: PressureProvider | None = None,
                      hint: SpectrumPoint | None = None) -> SpectrumPoint:
    """Lyapunov point by Newton on the two-parameter system (cross-route).

    With u = t - q the system is P(u, 0) = q beta, -dP/dt(u, 0) = beta,
    stepped on plainly and stopped at max |F| <= NEWTON_TOL: equations
    independent of ``lyapunov_point``'s, on the same ``_newton`` driver.
    """
    _check_window("beta", [beta], BETA_WINDOW)
    prov = provider or default_provider()

    def system(x):
        t, q = x
        if t <= 0.0:
            raise transfer.DomainError(f"t = {t} <= 0")
        r = prov.result(t - q, 0.0)
        F = (r.value - q * beta, -r.dP_dt - beta)
        return (F, ((r.dP_dt, -r.dP_dt - beta), (-r.d2P_dt2, r.d2P_dt2)),
                None, max(map(abs, F)))

    start = (hint.dimension, hint.q_value) if hint is not None else (1.0, 0.0)
    t, q = _newton(system, start)
    return _lyapunov_point(beta, t, q, t - q, prov.result(t - q, 0.0))


def _solve_curve(grid: Sequence[float], solver, center: float,
                 provider: PressureProvider | None) -> SpectrumCurve:
    """Solve ``solver`` on the sorted grid, marching outward from the grid
    point nearest ``center`` (the peak).

    The first march goes from the peak to the right, the second from the
    point left of the peak to the left.  Each point is solved with the
    last three points solved on its march as ``hint`` and ``prior``, so its
    predictor has up to three nodes.  The second march starts from the
    peak and the first two points of the first, so its first point is
    extrapolated through the peak rather than along the tangent there.  A
    point that fails is recorded in ``metadata["failures"]`` and skipped.
    """
    provider = provider or default_provider()
    grid = sorted(float(g) for g in grid)         # floats, not numpy scalars, in the points
    start = min(range(len(grid)), key=lambda i: abs(grid[i] - center))
    solved: dict[int, SpectrumPoint] = {}
    failures: list[dict] = []
    solves_before = provider.solves

    def march(indices, trail):
        # trail: the last three points solved along this march, the nearest first
        for idx in indices:
            try:
                pt = solver(grid[idx], provider, trail[0] if trail else None, trail[1:])
                solved[idx] = pt
                trail = [pt] + trail[:2]
            except (WindowError, transfer.DomainError,
                    transfer.ConvergenceError) as exc:
                failures.append({"exponent": float(grid[idx]), "error": str(exc)})

    march(range(start, len(grid)), [])      # peak outward to the right
    # then outward to the left, from the peak and the two points right of it
    march(range(start - 1, -1, -1), [solved[i] for i in range(start, start + 3) if i in solved])
    points = [solved[i] for i in sorted(solved)]
    meta = {"failures": failures, "solves": provider.solves - solves_before}
    return SpectrumCurve(points=points, metadata=meta)


def khintchine_curve(xi_grid: Sequence[float],
                     provider: PressureProvider | None = None) -> SpectrumCurve:
    """Khintchine spectrum on a grid, warm-started outward from the peak."""
    _check_window("xi", xi_grid, XI_WINDOW)
    return _solve_curve(xi_grid, khintchine_point, khintchine_exponent(), provider)


def lyapunov_curve(beta_grid: Sequence[float],
                   provider: PressureProvider | None = None) -> SpectrumCurve:
    """Lyapunov spectrum on a grid (Legendre route per point)."""
    _check_window("beta", beta_grid, BETA_WINDOW)
    return _solve_curve(beta_grid, lyapunov_point, lyapunov_constant(), provider)


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


def cantor_dimension(log_s: Callable[[int], float], horizon: int) -> float:
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
    return float(np.min(quotients[-max(10, horizon // 4):]))


def bounded_digit_dimension(digits: Iterable[int],
                            disc: Discretization | None = None) -> float:
    """Hausdorff dimension of continued fractions with digits in a finite set.

    The unique zero of the restricted-alphabet pressure t -> P_D(t); a
    single digit gives a single point, dimension 0.  P_D is decreasing and
    convex with P_D(0) = log |D| > 0, so Newton on the exact P_D' from
    t = 0 climbs monotonically to the zero; ``_newton`` stops it at
    |P_D(t)| <= NEWTON_TOL.  The steps stay Newton's: a third-order step
    from P_D'' ends just inside the tolerance, 4e-13 from the {1, 2}
    reference value, where Newton's last step lands on it.
    """
    alphabet = Alphabet.restricted(digits)
    if len(alphabet.digits) == 1:
        return 0.0
    disc = disc or Discretization.chebyshev()

    def system(x):
        res = transfer.pressure(x[0], 0.0, alphabet, disc)
        return (res.value,), ((res.dP_dt,),), None, abs(res.value)

    return _newton(system, (0.0,))[0]


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
