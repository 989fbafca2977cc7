"""Spectrum solvers, closed-form spectra, and shape diagnostics."""

import ast
import gc
import math
import os
import pathlib
import re
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

import gauss_spectra
from gauss_spectra import spectra as sp
from gauss_spectra import transfer as tr
from gauss_spectra.zeta import (DIM_E2_REFERENCE, golden_constant, khintchine_exponent,
                                lyapunov_constant)

XI0 = khintchine_exponent()
LAM0 = lyapunov_constant()
GAMMA0 = golden_constant()


@pytest.fixture(scope="module")
def provider():
    return sp.default_provider()


def test_package_and_verify_oracles_run_without_scipy():
    # numpy is the only dependency: with scipy blocked, the package, its CLI and
    # verify's c01/c02 quadrature oracles run and load no scipy module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.modules['scipy'] = None; import gauss_spectra; "
            "gauss_spectra.khintchine_curve([0.5, 1.0, 2.0]); "
            "gauss_spectra.lyapunov_curve([2.0, 2.4, 3.0]); "
            "import gauss_spectra.cli; "
            "gauss_spectra.zeta.khintchine_exponent(); "
            "gauss_spectra.bounded_digit_dimension({1, 2}); "
            "from gauss_spectra import acceptance; "
            "print([acceptance.run_criterion(c).passed for c in ('c01', 'c02')]); "
            "print(sorted(m for m, mod in sys.modules.items() "
            "if m.split('.')[0] == 'scipy' and mod is not None))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[True, True]", "[]"]


PACKAGE_NAMES = [
    "Alphabet", "ConvergenceError", "Convergent", "Discretization", "DomainError",
    "GibbsApprox", "GrowthRatioEstimate", "OrbitStats", "PartialQuotients",
    "PressureProvider", "PressureResult", "ShapeReport", "SpectrumCurve", "SpectrumPoint",
    "WindowError", "bounded_digit_dimension", "cantor_dimension", "cf", "construct_point",
    "continuant", "convergents", "cylinder_sum_estimate", "default_provider",
    "fast_spectrum_dim", "gibbs", "golden_constant", "growth_ratio", "hurwitz_zeta",
    "khintchine_constant", "khintchine_curve", "khintchine_exponent", "khintchine_point",
    "lyapunov_constant", "lyapunov_curve", "lyapunov_point", "lyapunov_point_2d",
    "orbit_stats_from_digits", "pressure", "riemann_zeta", "sample_digits", "spectra",
    "spectrum_shape_report", "transfer", "zeta",
]


@pytest.mark.parametrize("code, absent, printed", [
    # a solve needs neither the continued-fraction module nor exact arithmetic
    ("from gauss_spectra import spectra; spectra.default_provider().result(1.0, 0.0)",
     ["gauss_spectra.cf", "gauss_spectra.acceptance", "fractions", "decimal"], ""),
    # only verify loads the acceptance criteria
    ("import runpy; sys.argv = ['gauss_spectra', 'pressure', '--t', '1', '--q', '0']\n"
     "try:\n    runpy.run_module('gauss_spectra', run_name='__main__')\n"
     "except SystemExit as exc:\n    assert not exc.code",
     ["gauss_spectra.acceptance", "gauss_spectra.cf"], ""),
    ("import gauss_spectra; print(gauss_spectra.zeta.riemann_zeta(2.0))",
     ["gauss_spectra.transfer", "gauss_spectra.cf"], "1.644934066848226"),
    ("ns = {}; exec('from gauss_spectra import *', ns); ns.pop('__builtins__'); "
     "print(sorted(ns))", [], str(PACKAGE_NAMES)),
])
def test_package_exports_load_on_first_access(code, absent, printed):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = (f"import sys\n{code}\n"
             f"print(sorted(m for m in {absent!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    *lines, loaded = proc.stdout.strip().splitlines()
    assert loaded == "[]"
    assert printed in "\n".join(lines)


def test_every_export_has_a_caller():
    # an exported name that only tests reach is dead code: some module of the
    # package, the benchmark harness or the README example must use it
    root = pathlib.Path(__file__).resolve().parent.parent
    sources = [path.read_text() for path in sorted((root / "src" / "gauss_spectra").glob("*.py"))
               if path.name != "__init__.py"]
    sources += [path.read_text() for path in sorted((root / "spectra_bench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    # growth_ratio waits for its caller in c12 (ROADMAP item 13)
    assert sorted(set(gauss_spectra.__all__) - used) == ["growth_ratio"]


# ---------------------------------------------------------------------------
# Khintchine points

def test_peak_solves_to_one_zero(provider):
    pt = sp.khintchine_point(XI0, provider)
    assert abs(pt.dimension - 1.0) <= 1e-12
    assert abs(pt.q_value) <= 1e-12
    assert max(pt.residuals) < 1e-8


def test_q_sign_law(provider):
    assert sp.khintchine_point(0.7, provider).q_value < 0.0
    assert abs(sp.khintchine_point(XI0, provider).q_value) < 1e-3
    pt = sp.khintchine_point(10.0, provider)
    assert pt.q_value > 0.0
    assert 0.5 < pt.dimension < 1.0


def test_residual_contract_and_domain_containment(provider):
    for xi in (0.3, 0.8, 2.5, 20.0):
        pt = sp.khintchine_point(xi, provider)
        assert max(pt.residuals) < 1e-8
        assert 2.0 * pt.dimension - pt.q_value > 1.0
        assert 0.0 <= pt.dimension <= 1.0


def test_window_errors(provider):
    with pytest.raises(sp.WindowError):
        sp.khintchine_point(0.01, provider)
    with pytest.raises(sp.WindowError):
        sp.khintchine_point(60.0, provider)
    with pytest.raises(sp.WindowError):
        sp.lyapunov_point(GAMMA0, provider)


def test_slope_identity_with_tight_steps(provider):
    for xi in (0.6, 2.0, 8.0):
        h = 1e-3
        up = sp.khintchine_point(xi + h, provider)
        dn = sp.khintchine_point(xi - h, provider)
        mid = sp.khintchine_point(xi, provider)
        fd = (up.dimension - dn.dimension) / (2 * h)
        assert abs(fd - mid.t_slope) < 1e-3


@pytest.mark.parametrize("point_fn, exponents", [
    (sp.khintchine_point, (0.3, 0.6, 2.0, 8.0, 30.0)),
    (sp.lyapunov_point, (GAMMA0 + 0.1, 1.8, 4.0, 20.0, 100.0)),
    (sp.lyapunov_point_2d, (GAMMA0 + 0.1, 4.0, 100.0)),
])
def test_curvature_matches_difference_of_slopes(provider, point_fn, exponents):
    for x in exponents:
        h = 1e-4 * x
        mid = point_fn(x, provider)
        up = point_fn(x + h, provider, hint=mid)
        dn = point_fn(x - h, provider, hint=mid)
        fd = (up.t_slope - dn.t_slope) / (2 * h)
        assert mid.t_curvature == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_near_zero_window_edge(provider):
    lo = sp.khintchine_point(0.05, provider)
    hi = sp.khintchine_point(0.07, provider)
    assert lo.dimension < 0.3
    assert (hi.dimension - lo.dimension) / 0.02 > 2.0  # steep ascent


def test_tail_dimension(provider):
    pt = sp.khintchine_point(40.0, provider)
    assert 0.5 < pt.dimension < 0.56



# ---------------------------------------------------------------------------
# the damped Newton driver, on stub systems with no eigen-solve

def _recorded(system):
    """``system`` wrapped to record every point it is called at."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return system(x)

    return wrapped, calls


def _sqrt2(x):
    return (x[0] ** 2 - 2.0,), ((2.0 * x[0],),), None, abs(x[0] ** 2 - 2.0)


def test_newton_driver_finds_1d_and_2d_roots():
    (root,) = sp._newton(_sqrt2, (1.0,))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def circle_and_diagonal(x):
        t, q = x
        F = (t * t + q * q - 4.0, t - q)
        return F, ((2.0 * t, 2.0 * q), (1.0, -1.0)), None, max(map(abs, F))

    t, q = sp._newton(circle_and_diagonal, (1.0, 0.5))
    assert (t, q) == pytest.approx((math.sqrt(2.0), math.sqrt(2.0)), abs=1e-15)


def test_newton_driver_keeps_a_downhill_prediction_and_drops_an_uphill_one():
    system, calls = _recorded(_sqrt2)
    sp._newton(system, (1.0,), step=(math.sqrt(2.0) - 1.0,))
    assert calls == [(1.0,), (math.sqrt(2.0),)]      # kept whole, and at the root
    system, calls = _recorded(_sqrt2)
    sp._newton(system, (1.0,), step=(2.0,))
    assert calls[:3] == [(1.0,), (3.0,), (1.5,)]      # dropped for the Newton step


@pytest.mark.parametrize("error", [tr.DomainError, tr.ConvergenceError])
def test_newton_driver_halves_a_step_to_an_undefined_point(error):
    # the Newton step from 1 goes to 1.5; beyond 1.45 the system is undefined
    def bounded(x):
        if x[0] > 1.45:
            raise error("undefined")
        return _sqrt2(x)

    system, calls = _recorded(bounded)
    (root,) = sp._newton(system, (1.0,))
    assert calls[1:3] == [(1.5,), (1.25,)]
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)
    with pytest.raises(error):                        # not caught at the start
        sp._newton(bounded, (2.0,))


@pytest.mark.parametrize("err, stops", [(0.5 * sp.RESIDUAL_TOL, True),
                                        (2.0 * sp.RESIDUAL_TOL, False)])
def test_newton_driver_stall_returns_only_within_the_residual_tolerance(err, stops):
    # the residual never falls, so the damped step shrinks below NEWTON_MIN_STEP
    def flat(x):
        return (1.0,), ((1.0,),), None, err

    if stops:
        assert sp._newton(flat, (0.3,)) == (0.3,)
    else:
        with pytest.raises(tr.ConvergenceError, match="stalled"):
            sp._newton(flat, (0.3,))


@pytest.mark.parametrize("x, jac", [((1.0,), ((0.0,),)),
                                    ((1.0, 2.0), ((1.0, 2.0), (2.0, 4.0))),
                                    ((1.0, 2.0), ((math.inf, 0.0), (0.0, 1.0)))])
def test_newton_driver_singular_jacobian_raises(x, jac):
    def singular(point):
        return (1.0,) * len(point), jac, None, 1.0

    with pytest.raises(tr.ConvergenceError, match="singular"):
        sp._newton(singular, x)


def _with_hessian(hessian):
    """u^2 - 2 with the constant Hessian ``hessian`` (2 is the true one)."""
    def system(x):
        r, jac, _, err = _sqrt2(x)
        return r, jac, (((hessian,),),), err

    return system


def test_newton_driver_keeps_a_chebyshev_step_that_lowers_the_residual():
    # from 1: the Newton step is 1/2 and the correction H dx^2 / (2 J) is 1/8
    system, calls = _recorded(_with_hessian(2.0))
    (root,) = sp._newton(system, (1.0,))
    assert calls[:2] == [(1.0,), (1.375,)]
    assert abs(root - math.sqrt(2.0)) <= sp.NEWTON_TOL       # stopped at |r| <= NEWTON_TOL
    # a wrong Hessian sends the step to 4, where |r| rises: dropped for Newton's
    system, calls = _recorded(_with_hessian(-40.0))
    sp._newton(system, (1.0,))
    assert calls[:3] == [(1.0,), (4.0,), (1.5,)]


def test_chebyshev_steps_take_fewer_iterations_than_newton():
    # e^u - 2 = 0 from u = 0: third-order against second-order convergence
    def exp_system(hessian):
        def system(x):
            e = math.exp(x[0])
            return (e - 2.0,), ((e,),), (((e,),),) if hessian else None, abs(e - 2.0)

        return system

    counts = []
    for hessian in (False, True):
        system, calls = _recorded(exp_system(hessian))
        (root,) = sp._newton(system, (0.0,))
        assert abs(root - math.log(2.0)) <= sp.NEWTON_TOL
        counts.append(len(calls))
    assert counts[1] < counts[0]


@pytest.mark.parametrize("hint_xi, xi", [(2.0, 5.0), (5.0, 30.0), (0.3, 0.06)])
def test_khintchine_warm_start_takes_fewer_system_calls_with_the_hessians(
        monkeypatch, hint_xi, xi):
    # the same warm-started point with the step form's Hessians dropped: the
    # Chebyshev steps save one system call (one eigen-solve) here
    newton = sp._newton
    counts = []
    for keep in (True, False):
        calls = []

        def counted(system, x, step=None):
            def recorded(y):
                calls.append(y)
                r, jac, hess, err = system(y)
                return r, jac, hess if keep else None, err

            return newton(recorded, x, step)

        monkeypatch.setattr(sp, "_newton", counted)
        prov = sp.default_provider()
        hint = sp.khintchine_point(hint_xi, prov)
        calls.clear()
        pt = sp.khintchine_point(xi, prov, hint=hint)
        assert max(pt.residuals) <= 1e-11
        counts.append(len(calls))
    assert counts[0] < counts[1]


def test_newton_cold_and_warm_starts_agree():
    cold = sp.khintchine_point(5.0, sp.default_provider())
    prov = sp.default_provider()
    warm = sp.khintchine_point(5.0, prov, hint=sp.khintchine_point(4.0, prov))
    assert abs(cold.dimension - warm.dimension) <= 1e-10
    assert abs(cold.q_value - warm.q_value) <= 1e-10


@pytest.mark.parametrize("xi", [0.05, 0.3, XI0, 5.0, 50.0])
def test_newton_cold_start_residuals_on_fresh_provider(xi):
    pt = sp.khintchine_point(xi, sp.default_provider())
    fresh = sp.default_provider()
    t, q = pt.dimension, pt.q_value
    assert abs(fresh.pressure(t, q) - q * xi) <= 1e-10
    assert abs(fresh.dP_dq(t, q) - xi) <= 1e-10


def test_newton_curve_solve_count():
    # a count of distinct eigen-solves, so the guard holds on any machine
    prov = sp.default_provider()
    curve = sp.khintchine_curve(np.geomspace(0.3, 40.0, 60), prov)
    assert len(curve.points) == 60
    assert curve.metadata["solves"] == len(prov._cache) <= 125


def test_lyapunov_curve_solve_count():
    prov = sp.default_provider()
    curve = sp.lyapunov_curve(np.geomspace(GAMMA0 + 0.01, 150.0, 25), prov)
    assert len(curve.points) == 25
    assert curve.metadata["solves"] == len(prov._cache) <= 55


def test_lyapunov_edge_curve_solve_count():
    # the log-gap step and the predictor down to the bottom of the window
    prov = sp.default_provider()
    curve = sp.lyapunov_curve(GAMMA0 + np.geomspace(1e-6, 0.04, 20), prov)
    assert len(curve.points) == 20
    assert max(max(p.residuals) for p in curve.points) <= 1e-10
    assert curve.metadata["solves"] == len(prov._cache) <= 41


@pytest.mark.parametrize("curve_fn, grid", [
    (sp.khintchine_curve, [0.05, XI0 * 0.9998, XI0 * 0.9999, XI0]),
    (sp.lyapunov_curve, [GAMMA0 + 1e-6, 2.2 * 0.999, 2.2, LAM0]),
])
def test_curve_predictor_far_beyond_its_nodes(curve_fn, grid):
    # a cubic extrapolated thousands of node spacings out lands far off the
    # curve (Newton stalls, or u reaches ~72 where -P' - gamma0 rounds to 0),
    # so that far out the predictor is the tangent line
    curve = curve_fn(grid, sp.default_provider())
    assert not curve.metadata["failures"]
    assert len(curve.points) == 4


@pytest.mark.parametrize("degree", [1, 3, 5])
@pytest.mark.parametrize("forward, floor", [(True, 0.0), (False, 0.0), (False, GAMMA0)])
def test_predict_is_exact_on_polynomials_in_the_march_coordinate(degree, forward, floor):
    # (degree + 1) / 2 nodes carry value and slope, so the Hermite polynomial
    # through them reproduces any polynomial of that degree in s
    coef = np.array([0.7, -1.3, 0.4, 2.1, -0.6, 0.25])[:degree + 1]
    poly, dpoly = np.polynomial.Polynomial(coef), np.polynomial.Polynomial(coef).deriv()
    exponents = [4.0, 3.5, 3.0][:(degree + 1) // 2]
    if not forward:
        exponents = exponents[::-1]
    x = 4.6 if forward else 2.6
    nodes = []
    for xk in exponents:
        s, dx_ds, _ = sp._coordinate(xk, forward, floor)
        nodes.append((xk, poly(s), dpoly(s) / dx_ds))
    s = sp._coordinate(x, forward, floor)[0]
    assert sp._predict(x, floor, nodes) == pytest.approx(poly(s), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("degree", [2, 4, 6])
@pytest.mark.parametrize("forward, floor", [(True, 0.0), (False, 0.0), (False, GAMMA0)])
def test_predict_with_a_curvature_is_exact_on_polynomials(degree, forward, floor):
    # the nearest node adds its curvature, one more condition: degree / 2
    # nodes reproduce any polynomial of that degree in s
    coef = np.array([0.7, -1.3, 0.4, 2.1, -0.6, 0.25, -0.1])[:degree + 1]
    poly = np.polynomial.Polynomial(coef)
    dpoly, ddpoly = poly.deriv(), poly.deriv(2)
    exponents = [4.0, 3.5, 3.0][:degree // 2]
    if not forward:
        exponents = exponents[::-1]
    x = 4.6 if forward else 2.6
    nodes = []
    for xk in exponents:                # the nearest first
        s, dx_ds, d2x_ds2 = sp._coordinate(xk, forward, floor)
        nodes.append((xk, poly(s), dpoly(s) / dx_ds))
    # y(x) = poly(s(x)) has y'' = poly'' s'^2 + poly' s'' with s' = 1 / x'(s)
    s, dx_ds, d2x_ds2 = sp._coordinate(exponents[0], forward, floor)
    nodes[0] += (ddpoly(s) / dx_ds ** 2 - dpoly(s) * d2x_ds2 / dx_ds ** 3,)
    s = sp._coordinate(x, forward, floor)[0]
    assert sp._predict(x, floor, nodes) == pytest.approx(poly(s), rel=1e-12, abs=1e-12)


def test_log_gap_forms_round_trip(provider):
    # Khintchine: g = log(xi (2t - q - 1)) gives q = 2t - 1 - e^g / xi back
    pt = sp.khintchine_point(6.0, provider)
    g, _ = sp._log_gap(6.0, 2.0 * pt.dimension - pt.q_value - 1.0, 0.0)
    assert 2.0 * pt.dimension - 1.0 - math.exp(g) / 6.0 == pytest.approx(pt.q_value, rel=1e-14)
    # Lyapunov: v = log(beta (u - 1/2)) gives u = 1/2 + e^v / beta back
    pt = sp.lyapunov_point(9.0, provider)
    v, _ = sp._log_gap(9.0, pt.lyapunov_u - 0.5, 0.0)
    assert 0.5 + math.exp(v) / 9.0 == pytest.approx(pt.lyapunov_u, rel=1e-14)
    # the derivative is that of log(x gap(x)), here with gap(x) = 1/x + 1/x^2
    x, h = 3.0, 1e-5
    g, dg = sp._log_gap(x, 1.0 / x + 1.0 / x ** 2, -1.0 / x ** 2 - 2.0 / x ** 3)
    fd = (math.log(1.0 + 1.0 / (x + h)) - math.log(1.0 + 1.0 / (x - h))) / (2.0 * h)
    assert g == pytest.approx(math.log(1.0 + 1.0 / x), rel=1e-15)
    assert dg == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("curve_fn, center, grid", [
    (sp.khintchine_curve, XI0, [0.6, 0.8, XI0, 1.3, 1.7]),
    (sp.lyapunov_curve, LAM0, [1.8, 2.1, LAM0, 2.8, 3.3]),
])
def test_left_march_starts_through_the_peak(monkeypatch, curve_fn, center, grid):
    # the first point left of the peak is extrapolated from the peak and the
    # two points right of it, not from a tangent at the peak alone
    calls = []
    predict = sp._predict

    def recorded(x, floor, nodes):
        calls.append((x, [n[0] for n in nodes]))
        return predict(x, floor, nodes)

    monkeypatch.setattr(sp, "_predict", recorded)
    curve = curve_fn(grid, sp.default_provider())
    assert len(curve.points) == 5
    first_left = next(nodes for x, nodes in calls if x < center)
    assert first_left == [center, grid[3], grid[4]]
    assert [len(nodes) for x, nodes in calls] == [1, 2, 3, 3]


@pytest.mark.parametrize("curve_fn, grid", [
    (sp.khintchine_curve, [0.06, XI0, 4.5, 4.7]),
    (sp.lyapunov_curve, [GAMMA0 + 3e-6, LAM0, 54.0]),
])
def test_curve_drops_a_prediction_that_does_not_lower_the_residual(curve_fn, grid):
    # extrapolated through the peak from far nodes, the first left point's
    # prediction lands beyond the divergence line (Khintchine) or at u ~ 140,
    # where -P' - gamma0 rounds to 0 (Lyapunov); the Newton step replaces it
    curve = curve_fn(grid, sp.default_provider())
    assert not curve.metadata["failures"]
    assert len(curve.points) == len(grid)


@pytest.mark.parametrize("curve_fn, window, center, max_solves", [
    (sp.khintchine_curve, sp.XI_WINDOW, XI0, 2250),
    (sp.lyapunov_curve, sp.BETA_WINDOW, LAM0, 1870),
])
def test_random_grids_solve_every_point(curve_fn, window, center, max_solves):
    # 60 seeded grids of 3-24 log-uniform exponents across the window plus
    # the peak: sparse grids extrapolate far, through the peak included
    solves = 0
    for trial in range(60):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(3, 25))
        exponents = np.exp(rng.uniform(math.log(window[0]), math.log(window[1]), n))
        grid = sorted(set(exponents.clip(*window).tolist() + [center]))
        curve = curve_fn(grid, sp.default_provider())
        assert not curve.metadata["failures"], (trial, grid)
        solves += curve.metadata["solves"]
    assert solves <= max_solves


def test_curve_solves_count_only_new_solves():
    prov = sp.default_provider()
    grid = np.geomspace(0.5, 5.0, 8)
    first = sp.khintchine_curve(grid, prov)
    again = sp.khintchine_curve(grid, prov)
    assert first.metadata["solves"] == len(prov._cache) > 0
    assert again.metadata["solves"] == 0


@pytest.mark.parametrize("point_fn, exponent", [
    (sp.khintchine_point, 5.0), (sp.khintchine_point, 50.0),
    (sp.lyapunov_point, 40.0), (sp.lyapunov_point, 150.0),
])
def test_cold_start_stays_inside_the_domain(monkeypatch, point_fn, exponent):
    # the reciprocal Newton step does not overshoot toward 2t - q = 1
    probes = []
    check = tr.check_domain

    def recording_check(t, q, alphabet):
        if 2.0 * t - q - 1.0 < tr.DOMAIN_MARGIN:
            probes.append((t, q))
        check(t, q, alphabet)

    monkeypatch.setattr(tr, "check_domain", recording_check)
    prov = sp.default_provider()
    pt = point_fn(exponent, prov)
    assert max(pt.residuals) <= sp.RESIDUAL_TOL
    assert len(prov._cache) <= 7
    assert probes == []


@pytest.mark.parametrize("beta", [40.0, 150.0])
def test_lyapunov_cold_start_stops_on_the_residual(beta):
    # the stop test reads |P'(u) + beta|, not the Newton step in u, whose
    # residual grows like P''(u) ~ beta^2 near the domain edge
    pt = sp.lyapunov_point(beta, sp.default_provider())
    assert pt.residuals[1] <= 1e-12 * beta


def test_khintchine_point_on_single_digit_alphabet_raises():
    # P_q vanishes identically on the alphabet {1}, so no xi > 0 is reachable
    prov = tr.PressureProvider(tr.Alphabet.restricted({1}), tr.Discretization.chebyshev(16))
    with pytest.raises(tr.ConvergenceError):
        sp.khintchine_point(0.5, prov)


@pytest.mark.parametrize("digits, xi", [(range(1, 11), 3.0), ({2, 3}, 0.5)])
def test_khintchine_exponent_outside_a_finite_alphabet_raises_before_solving(digits, xi):
    # the mean log-digit on digits D lies in (log min D, log max D): above
    # log 10 = 2.30 and below log 2 = 0.69 no point exists
    prov = tr.PressureProvider(tr.Alphabet.restricted(digits), tr.Discretization.chebyshev(16))
    with pytest.raises(sp.WindowError, match="outside"):
        sp.khintchine_point(xi, prov)
    assert prov.solves == 0


def test_newton_failure_is_recorded():
    # with digits {1, 2} the mean log-digit never exceeds log 2, so xi = 2
    # has no solution and Newton must give up rather than return a point
    prov = tr.PressureProvider(tr.Alphabet.restricted({1, 2}), tr.Discretization.chebyshev(16))
    with pytest.raises(tr.ConvergenceError):
        sp.khintchine_point(2.0, prov)
    curve = sp.khintchine_curve([0.5, 2.0], prov)
    assert [p.exponent for p in curve.points] == [0.5]
    assert [f["exponent"] for f in curve.metadata["failures"]] == [2.0]


# ---------------------------------------------------------------------------
# Lyapunov points

def test_lyapunov_peak(provider):
    pt = sp.lyapunov_point(LAM0, provider)
    assert abs(pt.dimension - 1.0) < 1e-4
    assert abs(pt.q_value) < 1e-4


def test_lyapunov_off_peak_and_containment(provider):
    pt = sp.lyapunov_point(2.0 * LAM0, provider)
    assert 0.5 < pt.dimension < 1.0
    assert pt.dimension - pt.q_value > 0.5
    assert max(pt.residuals) < 1e-8


def test_lyapunov_routes_agree(provider):
    for beta in (GAMMA0 + 0.1, 1.8, 3.5, 12.0):
        p1 = sp.lyapunov_point(beta, provider)
        p2 = sp.lyapunov_point_2d(beta, provider)
        assert abs(p1.dimension - p2.dimension) < 1e-8
        assert abs(p1.q_value - p2.q_value) < 1e-8
        assert p1.t_curvature == pytest.approx(p2.t_curvature, rel=1e-6)


def _first_queries_of_warm_starts(monkeypatch, name, curve_fn, grid):
    """Whether each warm-started point's first provider query was a cache hit."""
    prov = sp.default_provider()
    lookup = prov._lookup
    hits = []

    def recorded(t, q):
        hits.append((t, q) in prov._cache)
        return lookup(t, q)

    prov._lookup = recorded
    point = getattr(sp, name)
    first_hits = []

    def warm_point(x, provider, hint, prior):
        start = len(hits)
        pt = point(x, provider, hint, prior)
        if hint is not None:
            first_hits.append(hits[start])
        return pt

    monkeypatch.setattr(sp, name, warm_point)
    curve = curve_fn(grid, prov)
    assert len(curve.points) == len(grid)
    return first_hits


def test_lyapunov_warm_start_first_query_is_a_cache_hit(monkeypatch):
    # a warm start queries the exact u its hint was solved at
    first_hits = _first_queries_of_warm_starts(
        monkeypatch, "lyapunov_point", sp.lyapunov_curve, np.geomspace(1.0, 100.0, 40))
    assert len(first_hits) == 39 and all(first_hits)


def test_khintchine_warm_start_first_query_is_a_cache_hit(monkeypatch):
    first_hits = _first_queries_of_warm_starts(
        monkeypatch, "khintchine_point", sp.khintchine_curve, np.geomspace(0.3, 40.0, 40))
    assert len(first_hits) == 39 and all(first_hits)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_lyapunov_cold_point_near_gamma0(k):
    # the log-gap step reaches beta = gamma0 + 10^-k in a few solves, and the
    # point does not depend on the collocation order
    beta = GAMMA0 + 10.0 ** -k
    prov = sp.default_provider()
    p16 = sp.lyapunov_point(beta, prov)
    assert len(prov._cache) <= 5
    assert max(p16.residuals) <= 1e-10
    p32 = sp.lyapunov_point(beta, tr.PressureProvider(
        tr.Alphabet.full(64), tr.Discretization.chebyshev(32)))
    assert abs(p16.dimension - p32.dimension) <= 1e-12
    assert abs(p16.q_value - p32.q_value) <= 1e-8


@pytest.mark.parametrize("dP_dt", [-GAMMA0, -GAMMA0 + 0.01])
def test_lyapunov_log_gap_step_needs_a_positive_gap(dP_dt):
    # -P'(u) - gamma0 <= 0 has no logarithm: the solve raises instead of
    # switching to another step
    class Stub:
        def result(self, t, q):
            return types.SimpleNamespace(value=0.1, dP_dt=dP_dt, d2P_dt2=1.0)

    with pytest.raises(tr.ConvergenceError, match="log-gap"):
        sp.lyapunov_point(GAMMA0 + 0.1, Stub())


def test_lyapunov_point_near_floor_solves():
    # u = t - q lands near 4.37
    pt = sp.lyapunov_point(GAMMA0 + 0.0213, sp.default_provider())
    assert max(pt.residuals) <= 1e-10


def test_lyapunov_point_at_the_floor_independent_of_order():
    # beta = gamma0 + 1e-3 puts u near 9
    beta = GAMMA0 + 1e-3
    p16 = sp.lyapunov_point(beta, sp.default_provider())
    p40 = sp.lyapunov_point(beta, tr.PressureProvider(
        tr.Alphabet.full(64), tr.Discretization.chebyshev(40)))
    assert abs(p16.q_value - p40.q_value) <= 1e-10


def test_lyapunov_bottom_edge(provider):
    lo = sp.lyapunov_point(GAMMA0 + 0.02, provider)
    hi = sp.lyapunov_point(GAMMA0 + 0.04, provider)
    assert lo.dimension < 0.2
    assert (hi.dimension - lo.dimension) / 0.02 > 1.0  # steep ascent


def test_lyapunov_tail_descends_toward_half(provider):
    d30 = sp.lyapunov_point(30.0, provider).dimension
    d100 = sp.lyapunov_point(100.0, provider).dimension
    assert 0.5 < d100 < d30 < 0.63
    assert d100 < 0.56


# ---------------------------------------------------------------------------
# curves and shape

def test_small_khintchine_curve_bracket(provider):
    curve = sp.khintchine_curve([0.5, XI0, 10.0], provider)
    dims = curve.dimensions
    assert len(curve.points) == 3
    assert dims[0] < 1.0 and dims[2] < 1.0
    assert dims[1] == pytest.approx(1.0, abs=1e-4)


def test_curve_window_validation(provider):
    with pytest.raises(sp.WindowError):
        sp.khintchine_curve([1e-6, 1e-5], provider)


def test_shape_report_moderate_grid(provider):
    grid = np.geomspace(0.3, 20.0, 24)
    curve = sp.khintchine_curve(grid, provider)
    assert len(curve.points) == 24
    assert not curve.metadata["failures"]
    rep = sp.spectrum_shape_report(curve, peak_reference=XI0)
    assert rep.slope_sign_changes == 1
    assert rep.curvature_at_peak < 0.0
    assert rep.convexity_witness is not None
    assert rep.q_sign_consistent


def test_lyapunov_curve_shape(provider):
    grid = np.geomspace(GAMMA0 + 0.05, 25.0, 24)
    curve = sp.lyapunov_curve(grid, provider)
    assert not curve.metadata["failures"]
    rep = sp.spectrum_shape_report(curve, peak_reference=LAM0)
    assert rep.slope_sign_changes == 1
    assert rep.curvature_at_peak < 0.0
    assert rep.q_sign_consistent


@pytest.mark.parametrize("curve_fn, grid", [
    (sp.khintchine_curve, [0.5, XI0, 10.0]),
    (sp.lyapunov_curve, [1.5, LAM0, 10.0]),
])
def test_curve_releases_provider_without_gc(curve_fn, grid):
    prov = sp.default_provider()
    ref = weakref.ref(prov)
    gc.disable()
    try:
        curve = curve_fn(grid, prov)
        del prov
        assert ref() is None
    finally:
        gc.enable()
    assert len(curve.points) == 3


def test_shape_report_needs_enough_points(provider):
    curve = sp.khintchine_curve([0.5, XI0, 10.0], provider)
    with pytest.raises(sp.InsufficientGridError):
        sp.spectrum_shape_report(curve, peak_reference=XI0)


def test_sampling_at_spectrum_solution(provider):
    # digits sampled at (t(1), q(1)) have mean log-digit 1
    pt = sp.khintchine_point(1.0, provider)
    g = tr.gibbs(pt.dimension, pt.q_value)
    seq = tr.sample_digits(g, 60_000, seed=4)
    mean_log = float(np.mean(np.log(np.asarray(seq.digits, dtype=float))))
    assert abs(mean_log - 1.0) < 0.05


# ---------------------------------------------------------------------------
# closed-form spectra

def test_fast_spectrum_dim():
    assert sp.fast_spectrum_dim(1.0) == 0.5
    assert sp.fast_spectrum_dim(2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert sp.fast_spectrum_dim(3.0) == 0.25
    assert sp.fast_spectrum_dim(1e6) < 2e-6
    with pytest.raises(ValueError):
        sp.fast_spectrum_dim(0.7)


def test_growth_ratio_quadratic():
    est = sp.growth_ratio([n ** 2 for n in range(1, 65)])
    assert abs(est.b - 1.0) < 0.02
    assert est.hypothesis_ok


def test_growth_ratio_geometric():
    est = sp.growth_ratio([3.0 ** n for n in range(1, 41)])
    assert abs(est.b - 3.0) < 1e-9


def test_growth_ratio_n_log_n():
    est = sp.growth_ratio([n * math.log(n + 1.0) for n in range(1, 65)])
    assert abs(est.b - 1.0) < 0.02
    assert est.increments_increasing


def test_growth_ratio_flags_decreasing_increments():
    est = sp.growth_ratio([math.sqrt(n) for n in range(1, 65)])
    assert not est.increments_increasing
    assert not est.hypothesis_ok


def test_growth_ratio_input_validation():
    with pytest.raises(ValueError):
        sp.growth_ratio([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        sp.growth_ratio([1.0] * 20)


def test_cantor_dimension_stabilizing_examples():
    doubling = sp.cantor_dimension(lambda n: (2.0 ** n) * math.log(2.0), 40)
    assert abs(doubling - 1.0 / 3.0) < 1e-3
    linear = sp.cantor_dimension(lambda n: math.log(n + 2.0), 10_000)
    assert abs(linear - 0.5) < 1e-3


def test_cantor_dimension_horizon_doubling():
    a = sp.cantor_dimension(lambda n: (2.0 ** n) * math.log(2.0), 40)
    b = sp.cantor_dimension(lambda n: (2.0 ** n) * math.log(2.0), 80)
    assert abs(a - b) < 1e-6
    # the n+2 rule converges like log(n)/n, so the 1e-6 stabilization
    # window sits at a larger horizon
    a = sp.cantor_dimension(lambda n: math.log(n + 2.0), 500_000)
    b = sp.cantor_dimension(lambda n: math.log(n + 2.0), 1_000_000)
    assert abs(a - b) < 1e-6


def test_cantor_dimension_matches_fast_formula_on_exponential_rule():
    # s_n = 3 * 2^n: the quotient and 1/(b+1) both give 1/2
    est = sp.cantor_dimension(lambda n: math.log(3.0) + n * math.log(2.0), 2000)
    phi = np.cumsum([math.log(3.0) + k * math.log(2.0) for k in range(1, 65)])
    b = sp.growth_ratio(list(phi)).b
    assert abs(est - 0.5) < 1e-3
    assert abs(sp.fast_spectrum_dim(max(b, 1.0)) - 0.5) < 1e-3


def test_cantor_dimension_hypothesis_errors():
    with pytest.raises(sp.HypothesisError):
        sp.cantor_dimension(lambda n: math.log(2.0), 40)
    with pytest.raises(ValueError):
        sp.cantor_dimension(lambda n: math.log(n + 2.0), 10)


@pytest.mark.parametrize("digits", [{0}, {-3}, {0, 1}, set(), {1.5}, {1.7, 2.2}])
def test_bounded_digit_dimension_rejects_invalid_digit_sets(digits):
    # one digit is checked like many: {0} is no digit set, not a point
    with pytest.raises(ValueError):
        sp.bounded_digit_dimension(digits)


def test_bounded_digit_dimension_values():
    assert sp.bounded_digit_dimension({1}) == 0.0
    assert sp.bounded_digit_dimension({2}) == 0.0
    assert sp.bounded_digit_dimension({5}) == 0.0
    d12 = sp.bounded_digit_dimension({1, 2})
    assert abs(d12 - DIM_E2_REFERENCE) <= 1e-13
    d123 = sp.bounded_digit_dimension({1, 2, 3})
    assert 0.5313 < d123 < 1.0
    assert d12 < d123


@pytest.mark.parametrize("digits, max_calls", [
    ({1, 2}, 5), ({2, 3}, 4), (set(range(1, 11)), 6), (set(range(1, 101)), 7),
])
def test_bounded_digit_dimension_cost(monkeypatch, digits, max_calls):
    # one eigen-solve per Newton iterate from t = 0
    calls = []
    pressure = tr.pressure

    def counted(t, q, alphabet, disc):
        calls.append(t)
        return pressure(t, q, alphabet, disc)

    monkeypatch.setattr(tr, "pressure", counted)
    d = sp.bounded_digit_dimension(digits)
    assert len(calls) <= max_calls
    if digits == {1, 2}:
        assert abs(d - DIM_E2_REFERENCE) <= 1e-13
