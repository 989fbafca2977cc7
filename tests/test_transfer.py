"""Transfer operator: spec examples, pressure identities, Gibbs machinery."""

import dataclasses
import math
import types
import warnings

import mpmath
import numpy as np
import pytest

from gauss_spectra import transfer as tr
from gauss_spectra.zeta import (DIM_E2_REFERENCE, golden_constant, khintchine_exponent,
                                lyapunov_constant, riemann_zeta)

ALPH = tr.Alphabet.full(64)
DISC = tr.Discretization.chebyshev(16)


def P(t, q, alphabet=ALPH, disc=DISC):
    return tr.pressure(t, q, alphabet, disc).value


def grad(t, q, alphabet=ALPH, disc=DISC):
    res = tr.pressure(t, q, alphabet, disc)
    return res.dP_dt, res.dP_dq


# ---------------------------------------------------------------------------
# operator application

def apply_operator(t, q, alphabet, g):
    """One application of the assembled operator to node values g."""
    mats, _, weight, _ = tr._assemble(t, q, alphabet, DISC)
    return (mats[0] @ (weight * g)) / weight


def test_apply_operator_basel():
    out = apply_operator(1.0, 0.0, ALPH, np.ones(16))
    assert out[0] == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)


def test_apply_operator_zeta_constant_in_x():
    out = apply_operator(0.0, -2.0, ALPH, np.ones(16))
    assert np.max(np.abs(out - riemann_zeta(2.0))) < 1e-12


def test_apply_operator_restricted():
    out = apply_operator(1.0, 0.0, tr.Alphabet.restricted({1, 2}), np.ones(16))
    assert out[0] == pytest.approx(1.25, rel=1e-14)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        tr.Alphabet.full(4)
    with pytest.raises(ValueError):
        tr.Alphabet.restricted([])
    with pytest.raises(ValueError):
        tr.Alphabet.restricted([0, 1])


def test_alphabet_refuses_a_non_integer_cutoff():
    # 64.5 used to sum the digits up to 65 and the tail from 65.5: P(1, 0) = 1.6e-4
    with pytest.raises(ValueError, match="integer"):
        tr.Alphabet.full(64.5)
    assert tr.Alphabet.full(np.int64(64)) == ALPH


def test_alphabet_refuses_non_integer_digits():
    # [1.7, 2.2] used to become {1, 2}
    with pytest.raises(ValueError, match="integer"):
        tr.Alphabet.restricted([1.7, 2.2])
    assert tr.Alphabet.restricted(np.array([2, 1, 2])) == tr.Alphabet.restricted(range(1, 3))


# ---------------------------------------------------------------------------
# pressure values

def test_pressure_normalization():
    res = tr.pressure(1.0, 0.0, ALPH, DISC)
    assert abs(res.value) < 1e-6
    assert np.all(res.eigenfunction_values > 0.0)


@pytest.mark.parametrize("q", [-1.5, -2.0, -3.0, -4.0])
def test_pressure_boundary_identity(q):
    assert P(0.0, q) == pytest.approx(math.log(riemann_zeta(-q)), abs=1e-6)


def test_pressure_1d_values():
    assert abs(P(1.0, 0.0)) < 1e-6
    p20 = P(20.0, 0.0)
    assert abs(p20 + 20.0 * golden_constant()) < 0.01 * 20.0
    p06 = P(0.6, 0.0)
    assert -0.6 * math.log(4.0) + math.log(riemann_zeta(1.2)) - 1e-9 <= p06
    assert p06 <= math.log(riemann_zeta(1.2)) + 1e-9


def test_pressure_sandwich_with_tail_bound():
    for (t, q) in [(0.8, -0.5), (0.7, -1.0), (1.0, 0.3), (0.55, -2.0)]:
        res = tr.pressure(t, q, ALPH, DISC)
        eps = res.tail_error_bound + 1e-8
        lo = -t * math.log(4.0) + math.log(riemann_zeta(2 * t - q))
        hi = math.log(riemann_zeta(2 * t - q))
        assert lo - eps <= res.value <= hi + eps


@pytest.mark.parametrize("t, q, bound", [
    (1.0, 0.0, 1.831433747521702e-15),
    (0.6, -0.4, 1.9407340269167048e-15),
    (3.0, 2.0, 1.1842412485615184e-16),
    (8.0, 14.0, 2.1339573560906124e-10),
    (14.0, 26.0, 3.844582030472097e-09),
])
def test_tail_error_bound_takes_the_eigenvector_at_largest_value_one(t, q, bound):
    # the bound is linear in the eigenvector; these values are the bound for
    # the golden-weighted eigenvector scaled to largest node value 1.  Its
    # sixth Taylor coefficient carries the last-bit differences of the
    # eigenvector amplified ~1e9 times, hence rel=1e-5; a change of
    # normalization moves the bound by 1x to 16x.
    assert tr.pressure(t, q, ALPH, DISC).tail_error_bound == pytest.approx(bound, rel=1e-5)


def test_pressure_monotone_in_t_and_q():
    ts = np.linspace(0.7, 1.3, 7)
    vals = [P(float(t), -0.5) for t in ts]
    assert np.all(np.diff(vals) < 0.0)
    qs = np.linspace(-2.0, 0.3, 7)
    vals = [P(0.9, float(q)) for q in qs]
    assert np.all(np.diff(vals) > 0.0)


def test_translation_identity():
    # the provider's cached point and a fresh solve of the 1-d pressure agree
    prov = tr.PressureProvider(ALPH, DISC)
    for (t, q) in [(1.3, 0.5), (0.9, -0.4), (2.0, 1.1)]:
        u = t - q
        assert prov.pressure(u, 0.0) == pytest.approx(P(u, 0.0), abs=1e-10)


def test_discretization_convergence():
    p16 = P(1.0, 0.0, disc=tr.Discretization.chebyshev(16))
    p24 = P(1.0, 0.0, disc=tr.Discretization.chebyshev(24))
    assert abs(p16 - p24) < 1e-8


def test_every_t_solves_on_the_requested_discretization():
    disc = tr.Discretization.chebyshev(16)
    for t in (5.0, 12.0):
        res = tr.pressure(t, 0.0, ALPH, disc)
        assert res.eigenfunction_values.shape == (16,)
        assert tr.gibbs(t, 0.0, ALPH, disc).disc is disc


@pytest.mark.parametrize("t", [4.3, 4.37, 4.45, 4.55])
def test_pressure_independent_of_order_past_spurious_modes(t):
    vals = [P(t, 0.0, disc=tr.Discretization.chebyshev(k)) for k in range(16, 41)]
    assert max(vals) - min(vals) < 5e-13


@pytest.mark.parametrize("t", [4.37, 6.0, 8.0, 12.0])
def test_default_order_matches_order_40_at_large_t(t):
    # where h spans up to phi^(2t) across [0, 1]; one order must serve every t
    a = tr.pressure(t, 0.0, ALPH, DISC)
    b = tr.pressure(t, 0.0, ALPH, tr.Discretization.chebyshev(40))
    assert abs(a.value - b.value) <= 5e-13
    assert abs(a.dP_dt - b.dP_dt) <= 5e-13


def _matrix_with_modes(first, second):
    """Matrix on DISC's nodes with eigenvectors first (eigenvalue 2), second
    (eigenvalue 1) and the sign-changing Chebyshev T_2..T_15 (below 0.1)."""
    cheb = np.cos(np.outer(np.arccos(1.0 - 2.0 * DISC.nodes), np.arange(2, 16)))
    V = np.column_stack([first, second, cheb])
    return V @ np.diag([2.0, 1.0] + [0.1 / j for j in range(2, 16)]) @ np.linalg.inv(V), V


def test_perron_pair_is_the_dominant_positive_mode():
    smooth = np.exp(DISC.nodes)
    A, V = _matrix_with_modes(smooth, 1.0 + DISC.nodes ** 2)   # a positive second mode
    f, nu, _ = tr._perron_pair(A, 1.0, 0.0, DISC)
    assert np.max(np.abs(f - smooth / smooth.sum())) < 1e-12
    left = np.linalg.inv(V)[0]
    assert np.max(np.abs(nu - left / left.sum())) < 1e-12
    # a dominant sign-changing mode, or no positive eigenvalue, is no Perron pair
    with pytest.raises(tr.ConvergenceError):
        tr._perron_pair(_matrix_with_modes(1.0 - 2.0 * DISC.nodes, smooth)[0], 1.0, 0.0, DISC)
    with pytest.raises(tr.ConvergenceError):
        tr._perron_pair(-A, 1.0, 0.0, DISC)


@pytest.mark.parametrize("A, message", [
    (np.array([[0.5, np.nan], [0.5, 0.5]]), "non-finite"),
    (np.array([[0.5, np.inf], [0.5, 0.5]]), "non-finite"),
    # lambda = 2 is a double eigenvalue, so lambda I - A has rank 1 and the
    # bordered matrix is exactly singular
    (np.diag([2.0, 2.0, 1.0]), "singular bordered matrix"),
    (-np.eye(3), "no positive real eigenvalue"),
    # lambda = 1 + sqrt 2 with eigenvector (1, 1 - lambda) ~ (1, -0.41)
    (np.array([[2.0, -1.0], [-1.0, 0.0]]), "not positive"),
])
def test_perron_pair_failures_raise_convergence_error_without_warning(A, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tr.ConvergenceError, match=message):
            tr._perron_pair(A, 1.0, 0.0, DISC)


def test_lapack_gufuncs_match_the_numpy_wrappers_bitwise():
    # _perron_pair calls the gufuncs behind np.linalg.eigvals and
    # np.linalg.inv directly; the numbers must be the wrappers'
    rng = np.random.default_rng(5)
    matrices = [tr._assemble(t, q, ALPH, DISC)[0][0]            # strided views, as solved
                for t, q in ((1.0, 0.0), (6.0, 2.5), (0.8, -3.0))]
    matrices += [rng.standard_normal((n, n)) for n in (3, 16, 17)]   # complex pairs too
    for A in matrices:
        direct = tr._umath_linalg.eigvals(A, signature="d->D")
        public = np.asarray(np.linalg.eigvals(A), dtype=complex)
        assert direct.real.tobytes() == public.real.tobytes()
        assert np.array_equal(direct.imag, public.imag)
        B = np.eye(len(A) + 1) - 0.1
        B[:-1, :-1] += A
        assert tr._umath_linalg.inv(B, signature="d->d").tobytes() == np.linalg.inv(B).tobytes()


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("t, q", [(0.9, 0.3), (0.0, -1.5), (0.05, -9.5),
                                  (6.0, 0.0), (12.0, 0.0), (2.0, 2.9)])
def test_tail_moments_against_direct_sums(t, q, x):
    # independent of the binomial/Hurwitz-zeta expansion: the sums themselves,
    # by Euler-Maclaurin from the first tail digit; the tail integral is taken
    # in u = log i, where it decays exponentially even at 2t - q near 1
    # (the last three are the tables of MIXED_THIRDS that _MOMENT_MIX makes
    # of the products)
    mpmath = pytest.importorskip("mpmath")
    cutoff = 64
    node_powers = tr._node_powers([x])
    moments, _, products = tr._tail_moments(t, q, node_powers, cutoff)
    mixed = (tr._MOMENT_MIX[len(moments):] @ products.reshape(len(products), -1)).reshape(
        len(tr.MIXED_THIRDS), tr.JET_ORDER + 1, -1) @ node_powers
    moments = np.concatenate((moments, mixed))
    log = mpmath.log
    factors = (lambda i: 1, lambda i: -2 * log(i + x), log,
               lambda i: 4 * log(i + x) ** 2, lambda i: -2 * log(i) * log(i + x),
               lambda i: log(i) ** 2, lambda i: -8 * log(i + x) ** 3,
               lambda i: 4 * log(i + x) ** 2 * log(i), lambda i: -2 * log(i + x) * log(i) ** 2,
               lambda i: log(i) ** 3)

    def direct(r, factor):
        with mpmath.workdps(17):
            scale = mpmath.mpf(cutoff + 1) ** (2 * t + r - q)   # terms of order 1

            def term(i):
                return scale * factor(i) * i ** q * (i + x) ** (-(2 * t + r))

            integral = mpmath.quad(lambda u: term(mpmath.exp(u)) * mpmath.exp(u),
                                   [mpmath.log(cutoff + 1), mpmath.inf])
            return float(mpmath.sumem(term, [cutoff + 1, mpmath.inf],
                                      integral=integral) / scale)

    for r in (0, tr.JET_ORDER):
        for p, factor in enumerate(factors):
            assert moments[p, r, 0] == pytest.approx(direct(r, factor), rel=1e-12)


def test_domain_margin_rejection():
    with pytest.raises(tr.DomainError):
        tr.pressure(0.5, 0.0, ALPH, DISC)
    with pytest.raises(tr.DomainError):
        tr.pressure(0.503, 0.0, ALPH, DISC)


def test_restricted_pressure_root_matches_reference():
    a12 = tr.Alphabet.restricted({1, 2})
    root = float(mpmath.findroot(lambda t: P(float(t), 0.0, a12), (1e-6, 1.0),
                                 solver="anderson"))
    assert abs(root - DIM_E2_REFERENCE) < 1e-12


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_anchors():
    dt, dq = grad(1.0, 0.0)
    assert dq == pytest.approx(khintchine_exponent(), abs=1e-3)
    assert dt == pytest.approx(-lyapunov_constant(), abs=1e-3)


def test_dP_dq_matches_zeta_derivative_oracle():
    # at t = 0 the pressure is log zeta(-q); differentiate that directly
    h = 1e-5
    oracle = (math.log(riemann_zeta(3.0 - h)) - math.log(riemann_zeta(3.0 + h))) / (2 * h)
    assert grad(0.0, -3.0)[1] == pytest.approx(oracle, abs=1e-6)


def test_result_fields_finite_at_t_zero():
    # t = 0 puts rho = 2t + r at 0 for the r = 0 tail moment
    res = tr.pressure(0.0, -3.0, ALPH, DISC)
    fields = (res.value, res.dP_dt, res.dP_dq, res.d2P_dt2, res.d2P_dtdq, res.d2P_dq2,
              res.tail_error_bound)
    assert np.all(np.isfinite(fields))
    assert res.dP_dt < 0.0
    h = 1e-4
    log_zeta = [math.log(riemann_zeta(3.0 + k * h)) for k in (-1, 0, 1)]
    assert res.d2P_dq2 == pytest.approx(
        (log_zeta[0] - 2 * log_zeta[1] + log_zeta[2]) / h ** 2, rel=1e-5)


def test_dP_dq_increasing_in_q():
    qs = np.linspace(-2.0, 0.5, 8)
    vals = [grad(0.9, float(q))[1] for q in qs]
    assert np.all(np.diff(vals) > 0.0)


def test_dP_dt_negative_on_grid():
    for t in np.linspace(0.7, 1.1, 5):
        for q in np.linspace(-1.5, 0.2, 5):
            assert grad(float(t), float(q))[0] < 0.0


def test_derivatives_consistent_with_finite_differences():
    h = 1e-5
    for (t, q) in [(0.75, 0.0), (1.0, 0.0), (0.9, -0.8)]:
        dt, dq = grad(t, q)
        assert abs((P(t + h, q) - P(t - h, q)) / (2 * h) - dt) <= 1e-8
        assert abs((P(t, q + h) - P(t, q - h)) / (2 * h) - dq) <= 1e-8


HESSIAN_POINTS = (
    [(ALPH, t, q) for t in (0.6, 1.0, 1.5, 3.0, 6.0) for q in (-3.0, -1.0, 0.0, 2.0)
     if 2 * t - q - 1 >= 0.3]
    + [(tr.Alphabet.restricted({1, 2}), t, q) for t in (0.6, 1.0, 1.5, 3.0, 6.0)
       for q in (-3.0, 0.0, 2.0)])


@pytest.mark.parametrize("alphabet, t, q", HESSIAN_POINTS)
def test_exact_hessian_matches_differences_of_gradient(alphabet, t, q):
    h = 1e-5

    def grad(tt, qq):
        r = tr.pressure(tt, qq, alphabet, DISC)
        return np.array([r.dP_dt, r.dP_dq])

    res = tr.pressure(t, q, alphabet, DISC)
    d_dt = (grad(t + h, q) - grad(t - h, q)) / (2 * h)
    d_dq = (grad(t, q + h) - grad(t, q - h)) / (2 * h)
    assert abs(res.d2P_dt2 - d_dt[0]) <= 1e-7
    assert abs(res.d2P_dtdq - d_dt[1]) <= 1e-7
    assert abs(res.d2P_dtdq - d_dq[0]) <= 1e-7
    assert abs(res.d2P_dq2 - d_dq[1]) <= 1e-7


def _bordered_hessian(alphabet, t, q):
    """(P_tt, P_tq, P_qq) with the eigenvector derivatives from the bordered
    system [lambda - A, f; nu, 0] [f_i; 0] = [(A_i - lambda_i) f; 0]: a
    reference that does not reuse the Perron pair's inverse."""
    mats, *_ = tr._assemble(t, q, alphabet, DISC)
    f, nu, _ = tr._perron_pair(mats[0], t, q, DISC)
    nu = nu / (nu @ f)
    lam, lam_t, lam_q, lam_tt, lam_tq, lam_qq = nu @ mats[:6] @ f
    n = len(f)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = lam * np.eye(n) - mats[0]
    border[:n, n] = f
    border[n, :n] = nu
    rhs = np.zeros((n + 1, 2))
    rhs[:n] = (mats[1:3] @ f).T - np.outer(f, (lam_t, lam_q))
    df = np.linalg.solve(border, rhs)[:n]
    cross = nu @ mats[1:3] @ df                    # cross[i, j] = nu A_i f_j
    P_t, P_q = lam_t / lam, lam_q / lam
    return ((lam_tt + 2 * cross[0, 0]) / lam - P_t * P_t,
            (lam_tq + cross[0, 1] + cross[1, 0]) / lam - P_t * P_q,
            (lam_qq + 2 * cross[1, 1]) / lam - P_q * P_q)


@pytest.mark.parametrize("alphabet, t, q",
                         HESSIAN_POINTS + [(ALPH, 8.0, 14.0), (ALPH, 12.0, 20.0),
                                           (ALPH, 14.0, 26.0)])
def test_hessian_matches_bordered_reference(alphabet, t, q):
    res = tr.pressure(t, q, alphabet, DISC)
    for got, ref in zip((res.d2P_dt2, res.d2P_dtdq, res.d2P_dq2),
                        _bordered_hessian(alphabet, t, q)):
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


def _mixed_matrices(t, q):
    """A_ttq, A_tqq, A_qqq as (3, K, K), formed the way the assembly forms A
    and its DERIVATIVES (the solver only contracts them with its
    eigenvectors): the digit sum over the mixed log weights and the golden
    tail, its moment tables made by _MOMENT_MIX from the same products."""
    tables = DISC.digit_tables(ALPH)
    n = DISC.order
    _, (_, _, products), weight, W = tr._assemble(t, q, ALPH, DISC)
    digits = np.einsum("mji,ji,jil->mjl", tables.mixed_log_weights.reshape(3, n, -1), W,
                       tables.tensor)
    tail = np.einsum("mpj,prj->mjr", tables.mixed_tail_mix.reshape(3, -1, n),
                     products @ tables.node_powers) @ tables.tail_rows
    return digits + weight[:, None] * tail


def _mpmath_pressure(t, q):
    """(P, P_t, P_q, P_tt, P_tq, P_qq, P_ttt, P_ttq, P_tqq, P_qqq) from a
    40-digit eigen-solve of the same float matrices: lambda from mpmath's
    eigenvalues, f, nu and the eigenvector derivatives f_t, f_q, f_tt, f_tq
    and f_qq from 40-digit bordered solves.  The mixed third derivatives
    take the route through the second eigenvector derivatives,

        lambda_ijk = nu A_ijk f + sum_3 nu A_ij f_k + sum_3 nu A_i f_jk,

    not the solver's 2n + 1 rule."""
    mats, _, _, _ = tr._assemble(t, q, ALPH, DISC)
    with mpmath.workdps(40):
        A = [mpmath.matrix(m.tolist()) for m in list(mats) + list(_mixed_matrices(t, q))]
        n = A[0].rows
        lam = max(mpmath.re(e) for e in mpmath.eig(A[0], left=False, right=False)
                  if abs(mpmath.im(e)) < 1e-30)
        border = mpmath.matrix(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                border[i, j] = -A[0][i, j]
            border[i, i] += lam
            border[i, n] = border[n, i] = 1
        last = mpmath.matrix([0] * n + [1])
        f = mpmath.matrix(mpmath.lu_solve(border, last)[:n])
        nu = mpmath.matrix(mpmath.lu_solve(border.T, last)[:n])
        nu /= (nu.T * f)[0]
        lams = [(nu.T * a * f)[0] for a in A]

        def solve(rhs):
            x = mpmath.matrix(mpmath.lu_solve(border, mpmath.matrix(list(rhs) + [0]))[:n])
            return x - f * (nu.T * x)[0]

        f_t, f_q = (solve(a * f - lam_i * f) for a, lam_i in zip(A[1:3], lams[1:3]))
        cross = [[(nu.T * A[1 + i] * v)[0] for v in (f_t, f_q)] for i in range(2)]
        lam_tt = lams[3] + 2 * cross[0][0]
        lam_tq = lams[4] + cross[0][1] + cross[1][0]
        lam_qq = lams[5] + 2 * cross[1][1]
        A_t, A_q, A_tt, A_tq, A_qq = A[1:6]
        f_tt = solve(2 * (A_t * f_t - lams[1] * f_t) + A_tt * f - lam_tt * f)
        f_tq = solve(A_t * f_q - lams[1] * f_q + A_q * f_t - lams[2] * f_t
                     + A_tq * f - lam_tq * f)
        f_qq = solve(2 * (A_q * f_q - lams[2] * f_q) + A_qq * f - lam_qq * f)

        def nu_(a, v):
            return (nu.T * a * v)[0]

        lam_ttt = lams[6] + 3 * nu_(A_tt, f_t) + 3 * nu_(A_t, f_tt)
        lam_ttq = (lams[7] + nu_(A_tt, f_q) + 2 * nu_(A_tq, f_t) + 2 * nu_(A_t, f_tq)
                   + nu_(A_q, f_tt))
        lam_tqq = (lams[8] + nu_(A_qq, f_t) + 2 * nu_(A_tq, f_q) + 2 * nu_(A_q, f_tq)
                   + nu_(A_t, f_qq))
        lam_qqq = lams[9] + 3 * nu_(A_qq, f_q) + 3 * nu_(A_q, f_qq)
        g = [lams[1] / lam, lams[2] / lam]
        second = [[lam_tt / lam, lam_tq / lam], [lam_tq / lam, lam_qq / lam]]

        def third(lam_ijk, i, j, k):
            return (lam_ijk / lam - second[i][j] * g[k] - second[i][k] * g[j]
                    - second[j][k] * g[i] + 2 * g[i] * g[j] * g[k])

        return [float(v) for v in (
            mpmath.log(lam), g[0], g[1],
            second[0][0] - g[0] * g[0], second[0][1] - g[0] * g[1], second[1][1] - g[1] * g[1],
            third(lam_ttt, 0, 0, 0), third(lam_ttq, 0, 0, 1), third(lam_tqq, 0, 1, 1),
            third(lam_qqq, 1, 1, 1))]


# bounds on P_ttt relative to |P_ttt| (-0.013 at (5, 0)): it is 3e-13 and
# 1.3e-11 off at the two points next to the divergence line at large t, and
# 3e-14 or less at the others; the error at those two moves by several times
# with the summation order of the float solve
TTT_TOL = {(14.0, 26.0): 1e-11, (14.25, 26.793): 5e-11}
# the same for P_ttq, P_tqq and P_qqq: at most 3.7e-12, 3.4e-11 and 2.7e-11 off
# at (14, 26), 2.2e-12, 6.5e-11 and 7.5e-11 at (14.25, 26.793), 1.5e-13 at
# (12, 20) and 2.3e-14 or less at the others
MIXED_TOL = {(14.0, 26.0): 1e-10, (14.25, 26.793): 2e-10, (12.0, 20.0): 5e-13}


def _with_thirds(alphabet, t, q):
    """The result of a solve at (t, q), its P_ttt and its mixed third
    derivatives."""
    prov = tr.PressureProvider(alphabet, DISC)
    res = prov.result(t, q)
    return res, prov.d3P_dt3(t, q), prov.mixed_thirds(t, q)


@pytest.mark.parametrize("t, q", [(14.0, 26.0), (12.0, 20.0), (8.0, 14.0), (1.0, 0.0),
                                  (3.0, 2.0), (14.25, 26.793), (0.6, 0.0), (5.0, 0.0)])
def test_pressure_matches_mpmath_eigen_solve_of_the_same_matrix(t, q):
    res, P_ttt, thirds = _with_thirds(ALPH, t, q)
    got = (res.value, res.dP_dt, res.dP_dq, res.d2P_dt2, res.d2P_dtdq, res.d2P_dq2)
    ref = _mpmath_pressure(t, q)
    for name, g, r in zip(("P", "P_t", "P_q", "P_tt", "P_tq", "P_qq"), got, ref):
        assert abs(g - r) <= 5e-12 * max(1.0, abs(r)), name
    assert abs(P_ttt - ref[6]) <= TTT_TOL.get((t, q), 1e-13) * abs(ref[6])
    for name, g, r in zip(("P_ttq", "P_tqq", "P_qqq"), thirds, ref[7:]):
        assert abs(g - r) <= MIXED_TOL.get((t, q), 1e-13) * abs(r), name


@pytest.mark.parametrize("alphabet, t, q", [(ALPH, 0.6, 0.0), (ALPH, 1.0, 0.0),
                                            (ALPH, 3.0, 2.0), (ALPH, 6.0, 0.0),
                                            (ALPH, 12.0, 20.0),
                                            (tr.Alphabet.restricted({1, 2}), 0.5, 0.0)])
def test_third_t_derivative_matches_differences_of_the_second(alphabet, t, q):
    # fourth-order central difference of P_tt; it reads within 2e-10 of P_ttt
    # at these points, 0.1 from the divergence line at (0.6, 0) included
    h = 2e-4

    def d2(tt):
        return tr.pressure(tt, q, alphabet, DISC).d2P_dt2

    fd = (8.0 * (d2(t + h) - d2(t - h)) - (d2(t + 2 * h) - d2(t - 2 * h))) / (12.0 * h)
    ref = _with_thirds(alphabet, t, q)[1]
    assert abs(ref - fd) <= 1e-8 * max(1.0, abs(ref))


@pytest.mark.parametrize("alphabet, t, q", [(ALPH, 0.6, 0.0), (ALPH, 1.0, 0.0),
                                            (ALPH, 3.0, 2.0), (ALPH, 0.8, -1.0),
                                            (ALPH, 6.0, 0.0), (ALPH, 12.0, 20.0),
                                            (tr.Alphabet.restricted({1, 2}), 0.5, -1.0)])
def test_mixed_third_derivatives_match_differences_of_the_hessian(alphabet, t, q):
    # fourth-order central differences of the exact Hessian in t and in q:
    # d/dq P_tt and d/dt P_tq both give P_ttq, d/dq P_tq and d/dt P_qq both
    # give P_tqq, d/dq P_qq gives P_qqq
    h = 2e-4

    def hessian(tt, qq):
        r = tr.pressure(tt, qq, alphabet, DISC)
        return np.array([r.d2P_dt2, r.d2P_dtdq, r.d2P_dq2])

    def difference(e_t, e_q):
        at = [hessian(t + m * h * e_t, q + m * h * e_q) for m in (-2, -1, 1, 2)]
        return (8.0 * (at[2] - at[1]) - (at[3] - at[0])) / (12.0 * h)

    d_dt, d_dq = difference(1.0, 0.0), difference(0.0, 1.0)
    P_ttq, P_tqq, P_qqq = _with_thirds(alphabet, t, q)[2]
    for got, fds in ((P_ttq, (d_dq[0], d_dt[1])), (P_tqq, (d_dq[1], d_dt[2])),
                     (P_qqq, (d_dq[2],))):
        for fd in fds:
            assert abs(got - fd) <= 1e-8 * max(1.0, abs(got))


def test_third_derivatives_only_of_the_latest_solve_and_only_on_request(monkeypatch):
    # solves never compute the mixed third derivatives (nor P_ttt); the
    # provider computes them on request from the arrays of its latest solve,
    # without a solve, keeps them, and has none for an earlier point not
    # asked for them while it was the latest
    calls = []
    mixed = tr._mixed_third_derivatives
    monkeypatch.setattr(tr, "_mixed_third_derivatives", lambda *a: calls.append(a) or mixed(*a))
    prov = tr.PressureProvider(ALPH, DISC)
    prov.result(2.0, 1.5)
    prov.result(2.5, 1.5)
    prov.result(2.0, 1.5)                           # a cache hit
    assert calls == []
    assert prov.mixed_thirds(2.0, 1.5) is None and prov.d3P_dt3(2.0, 1.5) is None
    thirds = prov.mixed_thirds(2.5, 1.5)
    assert len(calls) == 1 and prov.solves == 2
    assert thirds == _with_thirds(ALPH, 2.5, 1.5)[2]
    prov.result(3.0, 1.5)                           # kept once computed
    assert prov.mixed_thirds(2.5, 1.5) == thirds and len(calls) == 2


# ---------------------------------------------------------------------------
# Gibbs data and sampling

def test_gibbs_normalization_at_random_points():
    for params in [(0.9, 0.3), (3.0, 0.0), (6.0, 0.0), (10.0, 0.0)]:
        g = tr.gibbs(*params, ALPH, DISC)
        rng = np.random.default_rng(5)
        for x in rng.random(10):
            probs, tail = g.digit_probabilities(float(x))
            assert abs(probs.sum() + tail - 1.0) < 1e-11, (params, x)


@pytest.mark.parametrize("t, q", [(0.9, 0.3), (3.0, 0.0), (6.0, 0.0), (10.0, 0.0),
                                  (12.0, 20.0)])
def test_gibbs_normalization_at_the_nodes(t, q):
    # at the nodes the explicit digits and the tail are those of the eigen-solve
    g = tr.gibbs(t, q, ALPH, DISC)
    for x in DISC.nodes:
        probs, tail = g.digit_probabilities(float(x))
        assert abs(probs.sum() + tail - 1.0) <= 1e-12, x


def test_gibbs_digit_one_frequency_matches_gauss_measure():
    g = tr.gibbs(1.0, 0.0, ALPH, DISC)
    seq = tr.sample_digits(g, 100_000, seed=2)
    freq = np.mean(np.asarray(seq.digits) == 1)
    assert abs(freq - math.log(4.0 / 3.0) / math.log(2.0)) < 2e-2


def test_sampled_mean_log_digit_matches_gibbs_integral():
    t, q = 0.9, 0.5
    g = tr.gibbs(t, q, ALPH, DISC)
    seq = tr.sample_digits(g, 60_000, seed=3)
    logs = np.log(np.asarray(seq.digits, dtype=float))
    target = grad(t, q)[1]
    sigma = logs.std() / math.sqrt(len(logs))
    assert abs(logs.mean() - target) < 3.0 * sigma + 5e-3


def test_sampling_determinism():
    g = tr.gibbs(1.0, 0.0, ALPH, DISC)
    a = tr.sample_digits(g, 2000, seed=9)
    b = tr.sample_digits(g, 2000, seed=9)
    c = tr.sample_digits(g, 2000, seed=10)
    assert a.digits == b.digits
    assert a.digits != c.digits
    # pinned draws: the chain reaches beyond the cutoff (max digit > 64)
    assert a.digits[:20] == (3, 1, 5, 1, 2, 1, 1, 15, 2, 6, 2, 2, 6, 2, 2, 2, 2, 1, 4, 1)
    assert (sum(a.digits), max(a.digits)) == (34703, 12372)
    assert (sum(c.digits), max(c.digits)) == (36662, 15081)


def test_restricted_sampling_stays_in_alphabet():
    g = tr.gibbs(0.7, 0.0, tr.Alphabet.restricted({1, 2, 3}), DISC)
    seq = tr.sample_digits(g, 5000, seed=1)
    assert set(seq.digits) <= {1, 2, 3}


# ---------------------------------------------------------------------------
# cylinder-sum oracle

def test_cylinder_sum_estimate_matches_truncated_pressure():
    a64 = tr.Alphabet.restricted(range(1, 65))
    for (t, q) in [(1.0, 0.0), (0.8, 0.1)]:
        p = tr.pressure(t, q, a64, DISC).value
        assert abs(tr.cylinder_sum_estimate(t, q) - p) < 0.02


def test_cylinder_sum_estimate_near_full_pressure_at_fast_decay():
    # digit truncation costs little once 2t - q >= 2
    p = P(1.0, -1.0)
    assert abs(tr.cylinder_sum_estimate(1.0, -1.0) - p) < 0.02


def test_provider_caches_and_agrees_with_module_functions():
    prov = tr.PressureProvider(ALPH, DISC)
    dt, dq = grad(0.9, -0.5)
    assert prov.pressure(0.9, -0.5) == pytest.approx(P(0.9, -0.5), abs=1e-13)
    assert prov.dP_dq(0.9, -0.5) == pytest.approx(dq, abs=1e-12)
    assert prov.dP_dt(0.9, -0.5) == pytest.approx(dt, abs=1e-12)
    res = prov.result(0.9, -0.5)
    assert res is prov.result(0.9, -0.5)
    assert (res.dP_dt, res.dP_dq) == pytest.approx((dt, dq), abs=1e-12)


def test_shared_discretization_matches_fresh_ones():
    # one grid per order, with the digit tables cached per alphabet on it
    shared = tr.Discretization.chebyshev(16)
    assert tr.Discretization.chebyshev() is shared is tr.PressureProvider().disc
    alphabets = [tr.Alphabet.full(64), tr.Alphabet.full(32), tr.Alphabet.restricted({1, 2})]
    for t, q in ((0.8, 0.1), (0.6, -0.4)):
        for alphabet in alphabets:
            got = tr.pressure(t, q, alphabet, shared)
            ref = tr.pressure(t, q, alphabet, dataclasses.replace(shared, _tensor_cache={}))
            for name in ("value", "dP_dt", "dP_dq", "d2P_dt2", "d2P_dtdq", "d2P_dq2",
                         "tail_error_bound"):
                assert getattr(got, name) == getattr(ref, name), (alphabet, name)
            assert np.array_equal(got.eigenfunction_values, ref.eigenfunction_values)
    assert set(alphabets) <= set(shared._tensor_cache)


def test_digit_table_cache_stays_bounded():
    disc = tr.Discretization.chebyshev(16)
    for top in range(2, 52):
        tr.pressure(0.6, 0.0, tr.Alphabet.restricted({1, top}), disc)
        assert len(disc._tensor_cache) <= tr.CACHED_ALPHABETS
    assert len(disc._tensor_cache) == tr.CACHED_ALPHABETS
    # the alphabets built last are the ones kept
    assert tr.Alphabet.restricted({1, 51}) in disc._tensor_cache
    assert tr.Alphabet.restricted({1, 2}) not in disc._tensor_cache


def test_one_factorization_per_solve(monkeypatch):
    # a solve and its third derivatives invert the bordered matrix once, by
    # LAPACK's gufunc, and make no second solve
    calls = []
    lapack = tr._umath_linalg

    def counted(*args, **kwargs):
        calls.append(args)
        return lapack.inv(*args, **kwargs)

    def no_second_solve(*args, **kwargs):
        raise AssertionError("the eigenvector derivatives must reuse the Perron inverse")

    monkeypatch.setattr(tr, "_umath_linalg",
                        types.SimpleNamespace(eigvals=lapack.eigvals, inv=counted))
    monkeypatch.setattr(np.linalg, "inv", no_second_solve)
    monkeypatch.setattr(np.linalg, "solve", no_second_solve)
    tr.pressure(0.8, 0.2, ALPH, DISC)
    assert len(calls) == 1
    prov = tr.PressureProvider(ALPH, DISC)
    prov.result(0.8, 0.2)
    assert prov.d3P_dt3(0.8, 0.2) is not None and prov.mixed_thirds(0.8, 0.2) is not None
    assert len(calls) == 2


def test_one_tail_moment_build_per_point(monkeypatch):
    calls = []
    zeta = tr.hurwitz_zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return zeta(*args, **kwargs)

    monkeypatch.setattr(tr, "hurwitz_zeta", counted)
    prov = tr.PressureProvider(ALPH, DISC)
    prov.pressure(0.8, 0.2)
    prov.dP_dq(0.8, 0.2)
    prov.dP_dt(0.8, 0.2)
    assert len(calls) == 1
    # one zeta row at the single point a = M + 1 serves every node
    assert np.ndim(calls[0][1]) == 0 and float(calls[0][1]) == ALPH.cutoff + 1
