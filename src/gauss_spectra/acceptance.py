"""Self-verification harness: every headline numeric contract in one place.

Each criterion is a function taking a :class:`VerifyConfig` and returning a
:class:`CriterionResult` with the measured quantity, the expected value, the
tolerance it was held to, and whether it passed (including its runtime
budget).  The CLI ``verify`` command and the acceptance test module both run
this registry, so there is exactly one definition of "done".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import cf, spectra, transfer, zeta


@dataclass(frozen=True)
class VerifyConfig:
    cutoff: int = 64
    order: int = 16
    seed: int = 0

    def alphabet(self) -> transfer.Alphabet:
        return transfer.Alphabet.full(self.cutoff)

    def disc(self) -> transfer.Discretization:
        return transfer.Discretization.chebyshev(self.order)

    def provider(self) -> transfer.PressureProvider:
        return transfer.PressureProvider(self.alphabet(), self.disc())


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    measured: str
    expected: str
    tolerance: str
    runtime: float
    budget: float


def _result(cid, start, budget, ok, measured, expected, tolerance):
    runtime = time.perf_counter() - start
    title = next(title for c, title, _ in CRITERIA if c == cid)
    return CriterionResult(
        cid=cid, title=title, passed=bool(ok) and runtime <= budget,
        measured=measured, expected=expected, tolerance=tolerance,
        runtime=runtime, budget=budget,
    )


# ---------------------------------------------------------------------------

N_CYLINDERS = 20_000   # the cylinders [1/(n+1), 1/n], n <= N_CYLINDERS, cover [1/20001, 1]


def _gauss_cylinder_integrals(g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Gauss-measure integrals of g over the cylinders [1/(n+1), 1/n] by 8-point Gauss-Legendre."""
    glx, glw = np.polynomial.legendre.leggauss(8)
    n = np.arange(1, N_CYLINDERS + 1, dtype=float)
    a, b = 1.0 / (n + 1.0), 1.0 / n
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    pts = mid[:, None] + half[:, None] * glx[None, :]
    return (g(pts) / ((1.0 + pts) * math.log(2.0)) * glw[None, :]).sum(axis=1) * half


def _gauss_log_tail() -> float:
    """The integral of -log x against the Gauss measure over (0, eps), eps = 1/(N_CYLINDERS + 1),
    with 1/(1+x) expanded in powers of x: the k-th term is of order eps^(k+1)."""
    eps = 1.0 / (N_CYLINDERS + 1)
    return sum((-1) ** k * eps ** (k + 1) / (k + 1) * (1.0 / (k + 1) - math.log(eps))
               for k in range(6)) / math.log(2.0)


def c01_khintchine_constant(cfg: VerifyConfig) -> CriterionResult:
    """xi0 against E[log a_1]: log n times each cylinder's mass, -log x below them."""
    start = time.perf_counter()
    kc = zeta.khintchine_constant()
    xe = zeta.khintchine_exponent()
    masses = _gauss_cylinder_integrals(np.ones_like)
    oracle = float(np.sum(np.log(np.arange(1, N_CYLINDERS + 1)) * masses)) + _gauss_log_tail()
    ok = abs(kc - 2.6854) < 1e-4 and abs(xe - oracle) < 1e-6
    return _result(
        "c01", start, 1.0, ok,
        f"constant={kc:.7f} exponent={xe:.9f} oracle={oracle:.9f}",
        "constant 2.6854; series == oracle", "1e-4 (display); 1e-6 (oracle)")


def c02_lyapunov_constant(cfg: VerifyConfig) -> CriterionResult:
    """pi^2/(6 log 2) against E[-2 log x], by c01's cylinder quadrature and tail."""
    start = time.perf_counter()
    lam = zeta.lyapunov_constant()
    quad_val = float(np.sum(_gauss_cylinder_integrals(lambda x: -2.0 * np.log(x)))
                     + 2.0 * _gauss_log_tail())
    ok = abs(lam - 2.37314) < 1e-5 and abs(lam - quad_val) < 1e-10
    return _result(
        "c02", start, 1.0, ok,
        f"closed-form={lam:.9f} quadrature={quad_val:.9f}",
        "2.37314; quadrature equal", "1e-5 (display); 1e-10 (oracle)")


def c03_pressure_normalization(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    p = transfer.pressure(1.0, 0.0, cfg.alphabet(), cfg.disc()).value
    return _result(
        "c03", start, 1.0,
        abs(p) < 1e-6, f"P(1,0)={p:.3e}", "0", "1e-6")


def c04_pressure_boundary(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    worst = 0.0
    for q in (-1.5, -2.0, -3.0, -4.0):
        p = transfer.pressure(0.0, q, cfg.alphabet(), cfg.disc()).value
        worst = max(worst, abs(p - math.log(zeta.riemann_zeta(-q))))
    return _result(
        "c04", start, 2.0,
        worst < 1e-6, f"max |P - log zeta| = {worst:.3e}", "0", "1e-6")


def c05_derivative_anchors(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    res = transfer.pressure(1.0, 0.0, cfg.alphabet(), cfg.disc())
    dq, dt = res.dP_dq, res.dP_dt
    e_dq = abs(dq - zeta.khintchine_exponent())
    e_dt = abs(dt + zeta.lyapunov_constant())
    return _result(
        "c05", start, 2.0,
        e_dq < 1e-3 and e_dt < 1e-3,
        f"dP/dq={dq:.7f} (err {e_dq:.1e}), dP/dt={dt:.7f} (err {e_dt:.1e})",
        "mean log-digit; -mean log|T'|", "1e-3 each")


def c06_sandwich_convexity(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    prov = cfg.provider()
    # 2t - q - 1 >= 0.3 on the grid: at the divergence line the Hessian
    # degenerates to rank one
    ts = np.linspace(0.6, 0.95, 7)
    qs = np.linspace(-2.0, -0.1, 7)
    worst_sandwich = -1.0
    min_eig = np.inf
    for t in ts:
        for q in qs:
            res = prov.result(float(t), float(q))
            p = res.value
            eps = res.tail_error_bound + 1e-8
            lo = -t * math.log(4.0) + math.log(zeta.riemann_zeta(2 * t - q))
            hi = math.log(zeta.riemann_zeta(2 * t - q))
            worst_sandwich = max(worst_sandwich, lo - eps - p, p - hi - eps)
            hessian = [[res.d2P_dt2, res.d2P_dtdq], [res.d2P_dtdq, res.d2P_dq2]]
            min_eig = min(min_eig, float(np.linalg.eigvalsh(hessian).min()))
    ok = worst_sandwich <= 0.0 and min_eig > 0.0
    return _result(
        "c06", start, 30.0, ok,
        f"worst sandwich excess {worst_sandwich:.2e}; min Hessian eig {min_eig:.2e}",
        "inside zeta sandwich; positive definite Hessian", "tail bound + 1e-8; > 0")


_ORACLE_POINTS = ((1.0, 0.0), (0.95, -0.2), (0.9, -0.4), (0.85, -0.7), (0.8, -1.0))


def c07_cylinder_oracle(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    truncated = transfer.Alphabet.restricted(range(1, cfg.cutoff + 1))
    disc = cfg.disc()
    worst = 0.0
    for (t, q) in _ORACLE_POINTS:
        p = transfer.pressure(t, q, truncated, disc).value
        est = transfer.cylinder_sum_estimate(t, q, digit_cutoff=cfg.cutoff)
        worst = max(worst, abs(est - p))
    return _result(
        "c07", start, 60.0, worst < 0.02,
        f"max |estimate - pressure| = {worst:.2e} over {len(_ORACLE_POINTS)} points",
        "0", "0.02")


def c08_spectrum_peaks(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    prov = cfg.provider()
    kh = spectra.khintchine_point(zeta.khintchine_exponent(), prov)
    ly = spectra.lyapunov_point(zeta.lyapunov_constant(), prov)
    errs = (abs(kh.dimension - 1.0), abs(kh.q_value),
            abs(ly.dimension - 1.0), abs(ly.q_value))
    return _result(
        "c08", start, 10.0,
        max(errs) < 1e-4,
        f"khintchine ({kh.dimension:.8f}, {kh.q_value:.2e}); "
        f"lyapunov ({ly.dimension:.8f}, {ly.q_value:.2e})",
        "(1, 0) twice", "1e-4 per coordinate")


def c09_spectrum_shape(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    prov = cfg.provider()
    grid = np.geomspace(0.3, 40.0, 60)
    curve = spectra.khintchine_curve(grid, prov)
    n_failed = len(curve.metadata["failures"])
    if len(curve.points) < 20:
        return _result("c09", start, 300.0, False, f"only {len(curve.points)} points solved",
                       "60 solved", "-")
    rep = spectra.spectrum_shape_report(curve, peak_reference=zeta.khintchine_exponent())
    t40 = curve.points[-1].dimension
    ok = (n_failed == 0
          and rep.slope_sign_changes == 1
          and rep.q_sign_consistent
          and rep.curvature_at_peak < 0.0
          and rep.convexity_witness is not None
          and 0.5 < t40 < 0.56)
    witness = "none" if rep.convexity_witness is None else f"{rep.convexity_witness[0]:.3f}"
    return _result(
        "c09", start, 300.0, ok,
        f"failures={n_failed}, slope changes={rep.slope_sign_changes}, "
        f"t''(peak)={rep.curvature_at_peak:.3f}, witness at {witness}, t(40)={t40:.4f}",
        "0 failures; 1 change; concave peak; witness exists; t(40) in (0.5, 0.56)",
        "shape properties")


def c10_route_equivalence(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    prov = cfg.provider()
    g0 = zeta.golden_constant()
    betas = np.geomspace(g0 + 0.05, 30.0, 10)
    worst = 0.0
    hint1 = hint2 = None
    for b in betas:
        p1 = spectra.lyapunov_point(float(b), prov, hint=hint1)
        p2 = spectra.lyapunov_point_2d(float(b), prov, hint=hint2)
        hint1, hint2 = p1, p2
        worst = max(worst, abs(p1.dimension - p2.dimension), abs(p1.q_value - p2.q_value))
    return _result(
        "c10", start, 60.0,
        worst < 1e-8, f"max coordinate gap {worst:.2e} over 10 beta values",
        "0", "1e-8")


def c11_bounded_digits(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    d = spectra.bounded_digit_dimension({1, 2}, cfg.disc())
    err = abs(d - zeta.DIM_E2_REFERENCE)
    return _result(
        "c11", start, 5.0, err <= 1e-13,
        f"{d:.16f} (err {err:.1e})", f"{zeta.DIM_E2_REFERENCE}", "1e-13")


def c12_fast_spectrum(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    exact = all(spectra.fast_spectrum_dim(b) == 1.0 / (b + 1.0) for b in (1, 2, 3))
    doubling = spectra.cantor_dimension(lambda n: (2.0 ** n) * math.log(2.0), 40)
    linear = spectra.cantor_dimension(lambda n: math.log(n + 2.0), 10_000)
    e1 = abs(doubling - 1.0 / 3.0)
    e2 = abs(linear - 0.5)
    return _result(
        "c12", start, 2.0, exact and e1 < 1e-3 and e2 < 1e-3,
        f"1/(b+1) exact={exact}; s_n=2^2^n -> {doubling:.6f}; "
        f"s_n=n+2 -> {linear:.6f}",
        "exact; 1/3; 1/2", "exact; 1e-3; 1e-3")


def c13_constructed_point(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    stats = cf.orbit_stats_from_digits(cf.construct_point(1.0), 10_000)
    target = 2.0 + zeta.golden_constant()
    e_k = abs(stats.khintchine_estimate - 1.0)
    e_l = abs(stats.lyapunov_estimate - target)
    return _result(
        "c13", start, 1.0,
        e_k < 0.05 and e_l < 0.05,
        f"khintchine {stats.khintchine_estimate:.4f} (err {e_k:.3f}); "
        f"lyapunov {stats.lyapunov_estimate:.4f} (err {e_l:.3f})",
        f"1.0 and {target:.4f}", "0.05 each")


def c14_gibbs_sampling(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    g = transfer.gibbs(1.0, 0.0, cfg.alphabet(), cfg.disc())
    seq = transfer.sample_digits(g, 100_000, seed=cfg.seed)
    mean_log = float(np.mean(np.log(np.asarray(seq.digits, dtype=float))))
    err = abs(mean_log - zeta.khintchine_exponent())
    return _result(
        "c14", start, 5.0,
        err < 0.05, f"mean log digit {mean_log:.4f} (err {err:.3f})",
        f"{zeta.khintchine_exponent():.4f}", "0.05")


def _random_digit_tuple(rng, max_len=20) -> tuple[int, ...]:
    n = int(rng.integers(1, max_len + 1))
    digits = rng.integers(1, 30, size=n)
    # sprinkle in occasional huge digits to stress the exact arithmetic
    big = rng.random(n) < 0.1
    digits = np.where(big, rng.integers(100, 10 ** 6, size=n), digits)
    return tuple(int(d) for d in digits)


def c15_exact_arithmetic(cfg: VerifyConfig) -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    K = math.exp(4.0)
    checks = 0
    for _ in range(1000):
        ds = _random_digit_tuple(rng)
        cs = cf.convergents(ds)
        p_prev, q_prev = 0, 1  # (p_0, q_0)
        for n, c in enumerate(cs, start=1):
            if p_prev * c.q - c.p * q_prev != (-1) ** n:
                return _result("c15", start, 5.0,
                               False, f"determinant identity failed for {ds}", "-", "-")
            p_prev, q_prev = c.p, c.q
        if cf.continuant(ds) != cf.continuant(tuple(reversed(ds))):
            return _result("c15", start, 5.0,
                           False, f"mirror symmetry failed for {ds}", "-", "-")
        q_n = cs[-1].q
        prod_lo = math.prod(ds)
        prod_hi = math.prod(d + 1 for d in ds)
        if not (prod_lo <= q_n <= prod_hi):
            return _result("c15", start, 5.0,
                           False, f"continuant sandwich failed for {ds}", "-", "-")
        checks += 1
    # Jacobian window: q_n^2 / |(T^n)'(x)| in [1/(2K), K] on exact orbits
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        ds_full = tuple(int(d) for d in rng.integers(1, 50, size=n + 5))
        x = cf.convergents(ds_full)[-1].value  # rational deep inside the n-cylinder
        num, den = x.numerator, x.denominator
        deriv = Fraction(1)
        digits = []
        for _ in range(n):
            a = den // num
            deriv *= Fraction(den * den, num * num)  # |T'| = 1/x_j^2 exactly
            digits.append(a)
            num, den = den - a * num, num
        q_n = cf.continuant(digits)
        ratio = float(Fraction(q_n * q_n) / deriv)
        if not (1.0 / (2.0 * K) <= ratio <= K):
            return _result("c15", start, 5.0,
                           False, f"Jacobian window failed: ratio {ratio} for {digits}",
                           "-", "-")
        checks += 1
    return _result(
        "c15", start, 5.0, True,
        f"{checks} random digit blocks passed all identities",
        "determinant, mirror, sandwich, Jacobian window", "exact / K = e^4")


CRITERIA: tuple[tuple[str, str, Callable[[VerifyConfig], CriterionResult]], ...] = (
    ("c01", "Khintchine constant vs display value and Gauss-cylinder quadrature oracle",
     c01_khintchine_constant),
    ("c02", "Lyapunov constant vs display value and Gauss-cylinder quadrature oracle",
     c02_lyapunov_constant),
    ("c03", "Pressure normalization P(1, 0) = 0", c03_pressure_normalization),
    ("c04", "Boundary identity P(0, q) = log zeta(-q)", c04_pressure_boundary),
    ("c05", "Gibbs derivative anchors at (1, 0)", c05_derivative_anchors),
    ("c06", "Pressure sandwich and Hessian positivity on a 7x7 grid", c06_sandwich_convexity),
    ("c07", "Operator pressure vs depth-12 cylinder-sum estimate (digits <= cutoff)",
     c07_cylinder_oracle),
    ("c08", "Spectrum peaks solve to (t, q) = (1, 0)", c08_spectrum_peaks),
    ("c09", "Khintchine spectrum shape on a 60-point log grid", c09_spectrum_shape),
    ("c10", "Lyapunov 1-D Legendre route vs direct 2-D solve", c10_route_equivalence),
    ("c11", "Dimension of the digit-{1,2} set", c11_bounded_digits),
    ("c12", "Fast spectrum 1/(b+1) and Cantor dimension quotients", c12_fast_spectrum),
    ("c13", "Constructed point with prescribed exponent xi = 1", c13_constructed_point),
    ("c14", "Gibbs chain at (1, 0): ergodic mean log-digit", c14_gibbs_sampling),
    ("c15", "Exact-arithmetic property suite", c15_exact_arithmetic),
)


def run_criterion(cid: str, cfg: VerifyConfig | None = None) -> CriterionResult:
    cfg = cfg or VerifyConfig()
    for c, _, fn in CRITERIA:
        if c == cid:
            try:
                return fn(cfg)
            except Exception as exc:  # report, never crash the harness
                return CriterionResult(
                    cid=cid, title=f"{cid} raised", passed=False,
                    measured=f"{type(exc).__name__}: {exc}", expected="no exception",
                    tolerance="-", runtime=0.0, budget=0.0)
    raise KeyError(f"unknown criterion {cid}")
