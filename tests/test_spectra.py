"""Spectrum solvers, closed-form spectra, and shape diagnostics."""

import gc
import math
import os
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

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


def test_package_import_defers_integrate_and_optimize():
    # the package and its CLI load no scipy module, outside the c01/c02 quadrature oracles
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys, gauss_spectra; "
            "gauss_spectra.khintchine_curve([0.5, 1.0, 2.0]); "
            "gauss_spectra.lyapunov_curve([2.0, 2.4, 3.0]); "
            "import gauss_spectra.cli; "
            "gauss_spectra.zeta.khintchine_exponent(); "
            "gauss_spectra.bounded_digit_dimension({1, 2}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    assert curve.metadata["solves"] == len(prov._cache) <= 165


def test_lyapunov_curve_solve_count():
    prov = sp.default_provider()
    curve = sp.lyapunov_curve(np.geomspace(GAMMA0 + 0.01, 150.0, 25), prov)
    assert len(curve.points) == 25
    assert curve.metadata["solves"] == len(prov._cache) <= 75


def test_lyapunov_edge_curve_solve_count():
    # the log-gap step and the predictor down to the bottom of the window
    prov = sp.default_provider()
    curve = sp.lyapunov_curve(GAMMA0 + np.geomspace(1e-6, 0.04, 20), prov)
    assert len(curve.points) == 20
    assert max(max(p.residuals) for p in curve.points) <= 1e-10
    assert curve.metadata["solves"] == len(prov._cache) <= 50


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
    assert len(prov._cache) <= 6
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


def test_bounded_digit_dimension_values():
    assert sp.bounded_digit_dimension({1}) == 0.0
    assert sp.bounded_digit_dimension({2}) == 0.0
    assert sp.bounded_digit_dimension({5}) == 0.0
    d12 = sp.bounded_digit_dimension({1, 2})
    assert abs(d12 - DIM_E2_REFERENCE) <= 1e-13
    d123 = sp.bounded_digit_dimension({1, 2, 3})
    assert 0.5313 < d123 < 1.0
    assert d12 < d123
