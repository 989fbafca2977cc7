"""Zeta functions and the constants of the Gauss map.

Everything here is real-variable only.  ``hurwitz_zeta`` evaluates

    zeta(s, a) = sum_{n>=0} (n + a)^(-s),     s > 1,  a > 0,

by direct summation up to a shift plus an Euler-Maclaurin correction whose
eight terms are summed as one polynomial in s from a constant table, and
optionally returns its s-derivatives up to the third as well, stacked in
one array.  The Riemann zeta function is the a = 1 special case.  The
remaining functions package the three constants attached to the Gauss map

    xi0     = (1/log 2) * sum_n log n * log(1 + 1/(n(n+2)))   (mean log-digit)
    lambda0 = pi^2 / (6 log 2)                                (mean expansion rate)
    gamma0  = 2 log((1+sqrt 5)/2)                             (expansion-rate floor)

at double precision with explicit tail control.
"""

from __future__ import annotations

import functools
import math
import numpy as np

LOG2 = math.log(2.0)

# B_{2k} / (2k)!  for k = 1..8
_BERN_FACT = np.array([
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    7.0 / 6.0 / 87178291200.0,
    -3617.0 / 510.0 / 20922789888000.0,
])
_EM_DEGREE = 2 * len(_BERN_FACT)          # monomials s^0 .. s^15
_EM_POWERS = np.arange(_EM_DEGREE, dtype=float)
_B_POWERS = np.arange(len(_BERN_FACT), dtype=float)
MAX_DERIVATIVE = 3                          # highest s-derivative hurwitz_zeta returns


def _euler_maclaurin_table() -> np.ndarray:
    """Monomial coefficients of the Euler-Maclaurin correction polynomial.

    The correction is base^(-s-1) E(s) with

        E(s) = sum_k B_2k/(2k)! (s)_{2k-1} base^(-2(k-1)),

    (s)_n = s (s+1) ... (s+n-1) the rising factorial.  Row k-1 holds the
    coefficients of s^m in B_2k/(2k)! (s)_{2k-1} (columns m) and of its
    d-th s-derivative (columns 16 d + m) for d <= MAX_DERIVATIVE, so the
    powers of base^-2 times this table are E and its derivatives in
    monomials.  All coefficients of (s)_n are positive, so for s > 0 the
    monomial sum of each term has no cancellation.
    """
    poch = np.zeros((_EM_DEGREE, _EM_DEGREE))     # poch[n, m]: s^m in (s)_n
    poch[0, 0] = 1.0
    for n in range(1, _EM_DEGREE):
        poch[n, 1:] = poch[n - 1, :-1]
        poch[n] += (n - 1) * poch[n - 1]
    blocks = [_BERN_FACT[:, None] * poch[1::2]]
    d_ds = np.diag(_EM_POWERS[1:], -1)            # d/ds s^m = m s^(m-1)
    for _ in range(MAX_DERIVATIVE):
        blocks.append(blocks[-1] @ d_ds)
    return np.concatenate(blocks, axis=1)


_EM_TABLE = _euler_maclaurin_table()               # (8, 64)
_ORDERS = range(MAX_DERIVATIVE + 1)
# Leibniz rule for x^(-s) g(s): its d-th s-derivative is
# x^(-s) sum_j _LEIBNIZ[d, j] (log x)^_LEIBNIZ_POWERS[d, j] g^(j)(s)
_LEIBNIZ = np.array([[math.comb(d, j) * (-1.0) ** (d - j) for j in _ORDERS] for d in _ORDERS])
_LEIBNIZ_POWERS = np.array([[max(d - j, 0) for j in _ORDERS] for d in _ORDERS], dtype=float)


def _euler_maclaurin_coefficients(base: np.ndarray, order: int):
    """(log base, em): em[..., d, m] is the coefficient of s^m in the d-th
    s-derivative of 1/2 + E(s)/base, Leibniz factors of base^(-s) included,
    for d <= order."""
    logb = np.log(base)
    em = ((base ** -2.0)[..., None] ** _B_POWERS @ _EM_TABLE).reshape(
        base.shape + (MAX_DERIVATIVE + 1, _EM_DEGREE)) / base[..., None, None]
    em[..., 0, 0] += 0.5
    leibniz = logb[..., None, None] ** _LEIBNIZ_POWERS * _LEIBNIZ
    return logb, leibniz[..., :order + 1, :] @ em


@functools.lru_cache(maxsize=16)
def _euler_maclaurin_rows(base: float, order: int):
    """(log base, rows): ``_euler_maclaurin_coefficients`` of one base point
    as a read-only (16, order + 1) matrix, so a row of s-powers times it
    gives the polynomial part of zeta and its derivatives.  The digit tail
    asks for one base point, a = M + 1, at every solve."""
    logb, em = _euler_maclaurin_coefficients(np.asarray(base), order)
    rows = np.ascontiguousarray(em.T)
    rows.flags.writeable = False
    return float(logb), rows


def hurwitz_zeta(s, a=1.0, derivative: int = 0):
    """zeta(s, a) for s > 1, a > 0, broadcasting over array inputs.

    ``derivative`` is the highest s-derivative returned: 0 gives zeta alone,
    d >= 1 one array of shape (d + 1,) + the broadcast shape of s and a
    whose row k is d^k zeta / ds^k, for d <= MAX_DERIVATIVE = 3 (``True``
    counts as 1); it unpacks and indexes as the tuple of the d + 1 rows.
    NaN or infinity in ``s`` or ``a`` raises ``ValueError``.

    The Euler-Maclaurin base point is pushed out far enough that the
    correction series converges geometrically for every requested s, so
    the relative error stays near 1e-14 on s in (1, 60] (checked against
    mpmath down to s = 1 + 1e-6, where zeta ~ 1/(s - 1)).  The eight
    correction terms are one polynomial in s of degree 15 whose monomial
    coefficients, for each base point, are the powers of base^-2 times a
    constant table; with one base point (a scalar ``a``), the corrections
    and all derivatives of a whole row of s come from one Vandermonde
    matrix and one matrix product, and the coefficient rows of the 16 most
    recently used base points are cached.  The integral term
    base^(1-s)/(s-1) and its derivatives are added on their own, in closed
    form, to the rows of the output array.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    s_max = float(s.max())
    if a.ndim == 0:
        a_min = a_max = float(a)
    else:
        a_min, a_max = float(a.min()), float(a.max())
    # both tests are False for NaN as well
    if not (s.min() > 1.0 and s_max < math.inf):
        raise ValueError("hurwitz_zeta requires finite s > 1")
    if not (a_min > 0.0 and a_max < math.inf):
        raise ValueError("hurwitz_zeta requires finite a > 0")
    order = int(derivative)
    if order != derivative or order not in _ORDERS:
        raise ValueError(f"derivative must be an integer from 0 to {MAX_DERIVATIVE}")

    # base ~ 0.75*(s+16) keeps the correction-term ratio ((s+2k)/(2 pi base))^2
    # near 0.05, so eight Bernoulli terms reach ~1e-14 relative error.
    base_needed = max(14.0, 0.75 * (s_max + 16.0))
    n_shift = max(0, math.ceil(base_needed - a_min))

    # direct[d] is (-1)^d times the d-th s-derivative of the sum up to the
    # shift; the s-derivatives of x^(-s) are (-log x)^d x^(-s)
    if n_shift > 0:
        n = np.arange(n_shift, dtype=float).reshape((n_shift,) + (1,) * max(s.ndim, a.ndim))
        log_an = np.log(a + n)
        pw = np.exp(-s * log_an)
        direct = []
        for d in range(order + 1):
            direct.append(pw.sum(axis=0))
            if d < order:
                pw = pw * log_an

    # the rest is base^(-s) times base/(s-1) (the integral), 1/2 (the
    # end-point term) and E(s)/base (the corrections); the last two are
    # polynomials in s, so their s-derivatives, Leibniz factors of base^(-s)
    # included, are rows of monomial coefficients per base point
    vander = s[..., None] ** _EM_POWERS
    if a.ndim == 0:
        base = a_min + n_shift
        logb, rows = _euler_maclaurin_rows(base, order)
        poly = vander @ rows
    else:
        base = a + n_shift
        logb, em = _euler_maclaurin_coefficients(base, order)
        poly = np.einsum("...m,...dm->...d", vander, em)
    pw_s = np.exp(-s * logb)                      # base^(-s)
    # out[d] is d^d zeta / ds^d, its polynomial part first
    out = np.multiply(pw_s, poly.transpose(-1, *range(poly.ndim - 1)), order="C")
    inv = 1.0 / (s - 1.0)
    intg = pw_s * base * inv                      # base^(1-s)/(s-1), the largest term
    # its d-th derivative is (-1)^d intg times a polynomial in c1 = log base
    # + v and v = 1/(s-1): 1, c1, c1^2 + v^2, c1^3 + 3 c1 v^2 + 2 v^3
    terms = [intg]
    if order >= 1:
        c1 = logb + inv
        terms.append(c1 * intg)
    if order >= 2:
        c1_2 = c1 * c1
        terms.append((c1_2 + inv * inv) * intg)
    if order == 3:
        terms.append((c1_2 * c1 + (3.0 * c1 + 2.0 * inv) * inv * inv) * intg)
    for d, term in enumerate(terms):
        if n_shift > 0:
            term = term + direct[d]
        if d % 2:
            out[d] -= term
        else:
            out[d] += term
    return out[0] if order == 0 else out


def riemann_zeta(s: float) -> float:
    """Riemann zeta on the real ray s > 1."""
    if s <= 1.0:
        raise ValueError(f"riemann_zeta requires s > 1, got {s}")
    return float(hurwitz_zeta(np.asarray(s), 1.0))


@functools.lru_cache(maxsize=1)
def khintchine_exponent() -> float:
    """Mean logarithmic digit size under the Gauss measure, 0.987849...

    This is the almost-sure Birkhoff average of log a_n and the abscissa
    where the Khintchine spectrum peaks:

        xi0 = (1/log 2) * sum_{n>=1} log n * log(1 + 1/(n(n+2))).

    Evaluated by the Bailey-Borwein-Crandall series (Math. Comp. 66, 1997)

        xi0 = (1/log 2) * sum_{s>=1} (zeta(2s) - 1)/s * sum_{k=1}^{2s-1} (-1)^(k+1)/k,

    with zeta(2s) - 1 taken as zeta(2s, 2), free of cancellation.  Its
    terms fall like 4^(-s), so the 30 summed leave a remainder below 1e-19.
    """
    s = np.arange(1, 31)
    k = np.arange(1, 2 * len(s))
    alternating = np.cumsum((-1.0) ** (k + 1) / k)[2 * s - 2]
    return math.fsum(hurwitz_zeta(2.0 * s, 2.0) / s * alternating) / LOG2


def khintchine_constant() -> float:
    """Khintchine's constant 2.685452..., the a.e. geometric mean of digits.

    Equals exp(khintchine_exponent()); the two are kept separate because
    the spectrum machinery works on the logarithmic (Birkhoff) scale while
    the famous constant is the exponentiated one.
    """
    return math.exp(khintchine_exponent())


def lyapunov_constant() -> float:
    """Mean expansion rate of the Gauss map, pi^2 / (6 log 2)."""
    return math.pi ** 2 / (6.0 * LOG2)


def golden_constant() -> float:
    """Smallest possible expansion rate, 2 log((1 + sqrt 5)/2)."""
    return 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)


# Reference value for the Hausdorff dimension of the set of continued
# fractions with digits in {1, 2}; the restricted-alphabet pressure root
# reproduces the leading digits of this.
DIM_E2_REFERENCE = 0.531280506277205
