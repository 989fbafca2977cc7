"""Zeta evaluation against independent oracles, and the Gauss-map constants."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import zeta as scipy_zeta

from gauss_spectra.zeta import (DIM_E2_REFERENCE, golden_constant, hurwitz_zeta,
                                khintchine_constant, khintchine_exponent,
                                lyapunov_constant, riemann_zeta)

LOG2 = math.log(2.0)


def test_basel_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)


def test_zeta_three_halves_against_partial_sum_oracle():
    # ten-million-term partial sum plus the Euler-Maclaurin remainder
    n_terms = 10_000_000
    n = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(n ** -1.5))
    remainder = 2.0 / math.sqrt(n_terms) - 0.5 * n_terms ** -1.5
    oracle = partial + remainder
    assert riemann_zeta(1.5) == pytest.approx(oracle, abs=1e-11)
    assert riemann_zeta(1.5) == pytest.approx(2.612375348685488, abs=1e-12)


def test_zeta_domain_error():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(0.5)


def test_zeta_decreasing_and_limits():
    s = np.linspace(1.001, 50.0, 200)
    vals = np.array([riemann_zeta(float(v)) for v in s])
    assert np.all(np.diff(vals) < 0.0)
    assert riemann_zeta(40.0) - 1.0 < 1e-11
    assert riemann_zeta(1.001) > 690.0


def test_hurwitz_matches_scipy_on_a_grid():
    s = np.concatenate([np.linspace(1.001, 60.0, 40), [1.0005, 2.0, 30.0]])
    for a in (0.5, 1.0, 3.7, 9.0, 65.0, 80.5):
        mine = hurwitz_zeta(s, a)
        ref = scipy_zeta(s, a)
        assert np.max(np.abs(mine - ref) / np.abs(ref)) < 5e-13


def test_hurwitz_derivative_against_richardson_fd():
    s0 = np.array([1.05, 1.5, 2.0, 7.3, 12.0])
    for a in (1.0, 9.0, 65.0):
        _, dv = hurwitz_zeta(s0, a, derivative=True)
        h = 1e-5
        f1 = (scipy_zeta(s0 + h, a) - scipy_zeta(s0 - h, a)) / (2 * h)
        f2 = (scipy_zeta(s0 + h / 2, a) - scipy_zeta(s0 - h / 2, a)) / h
        fd = (4.0 * f2 - f1) / 3.0
        assert np.max(np.abs(dv - fd)) < 1e-8 * np.max(np.abs(fd))


def test_hurwitz_second_derivative_against_mpmath_on_tail_grid():
    # the digit tail evaluates zeta(s, M + 1) with M = 64 from s = 2t - q,
    # which reaches 1 + DOMAIN_MARGIN; mpmath needs more than 40 digits here
    # (at 40 its zeta(26, 65) is off by 3e-12 relative)
    mpmath = pytest.importorskip("mpmath")
    s = np.concatenate([np.linspace(1.01, 2.0, 12, endpoint=False), np.linspace(2.0, 80.0, 27)])
    a = 65.0 + np.array([0.0, 0.25, 0.5, 1.0])
    mine = hurwitz_zeta(s[:, None], a[None, :], derivative=2)
    with mpmath.workdps(60):
        for d in range(3):
            ref = np.array([[float(mpmath.zeta(si, ai, d)) for ai in a] for si in s])
            assert np.max(np.abs(mine[d] - ref) / np.abs(ref)) < 1e-12


@pytest.mark.parametrize("s, a", [(math.nan, 1.0), (2.0, math.nan),
                                  ([2.0, math.nan], 65.0), (3.0, [65.0, math.nan])])
def test_hurwitz_rejects_nan(s, a):
    for derivative in (0, 2):
        with pytest.raises(ValueError, match="hurwitz_zeta requires"):
            hurwitz_zeta(s, a, derivative=derivative)


@pytest.mark.parametrize("a", [1.0, 65.0])
@pytest.mark.parametrize("s", [1.0 + 1e-6, 1.0 + 1e-4, 1.001])
def test_hurwitz_near_the_pole_against_mpmath(s, a):
    # zeta ~ 1/(s - 1) and its derivatives ~ -1/(s - 1)^2, 2/(s - 1)^3 here
    mpmath = pytest.importorskip("mpmath")
    mine = hurwitz_zeta(s, a, derivative=2)
    with mpmath.workdps(50):
        for d in range(3):
            ref = float(mpmath.zeta(s, a, d))
            assert abs(float(mine[d]) - ref) <= 2e-15 * abs(ref)


def test_khintchine_exponent_against_cylinder_quadrature():
    # independent oracle: sum log(n) * mu_G(I_1(n)) with the cylinder masses
    # obtained by quadrature of the density, not from the closed form
    glx, glw = np.polynomial.legendre.leggauss(10)
    n = np.arange(1, 20_001, dtype=float)
    a, b = 1.0 / (n + 1.0), 1.0 / n
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    pts = mid[:, None] + half[:, None] * glx[None, :]
    masses = ((1.0 / ((1.0 + pts) * LOG2)) * glw[None, :]).sum(axis=1) * half
    head = float(np.sum(np.log(n) * masses))
    tail, _ = integrate.quad(lambda x: -math.log(x) / ((1.0 + x) * LOG2),
                             0.0, 1.0 / 20_001, epsabs=1e-12)
    assert khintchine_exponent() == pytest.approx(head + tail, abs=1e-6)


def test_khintchine_exponent_against_mpmath():
    # the Bailey-Borwein-Crandall series against mpmath's Khintchine constant
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.log(mpmath.khinchin)
        assert abs(mpmath.mpf(khintchine_exponent()) - ref) <= 1e-15


def test_khintchine_constant_display_value():
    assert abs(khintchine_constant() - 2.6854) < 1e-4
    assert khintchine_constant() == pytest.approx(
        math.exp(khintchine_exponent()), rel=1e-14)
    # first nonzero series term is at n = 2 since log 1 = 0
    assert math.log(1.0) * math.log1p(1.0 / 3.0) == 0.0


def test_lyapunov_constant():
    lam = lyapunov_constant()
    assert abs(lam - 2.37314) < 1e-5
    assert lam == pytest.approx(math.pi ** 2 / (6.0 * LOG2), rel=1e-14)
    quad_val, _ = integrate.quad(
        lambda x: -2.0 * math.log(x) / ((1.0 + x) * LOG2), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13, limit=200)
    assert lam == pytest.approx(quad_val, abs=1e-10)


def test_golden_constant():
    g0 = golden_constant()
    assert g0 == pytest.approx(0.9624236501, abs=1e-9)
    theta0 = (math.sqrt(5.0) - 1.0) / 2.0
    assert g0 == pytest.approx(-2.0 * math.log(theta0), rel=1e-14)


def test_constants_ordering():
    # |T'(x)| = x^-2 >= a_1^2 gives 2 xi <= lambda pointwise, hence at the
    # constants gamma0 < 2 xi0 < lambda0
    assert 0.0 < golden_constant() < 2.0 * khintchine_exponent() < lyapunov_constant()
    assert DIM_E2_REFERENCE == pytest.approx(0.531280506277205, abs=1e-15)
