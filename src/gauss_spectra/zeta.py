"""Zeta functions and the constants of the Gauss map.

Everything here is real-variable only.  ``hurwitz_zeta`` evaluates

    zeta(s, a) = sum_{n>=0} (n + a)^(-s),     s > 1,  a > 0,

by direct summation up to a shift plus an Euler-Maclaurin correction whose
eight terms are summed as one polynomial in s from a constant table, and
optionally returns its first and second derivatives in s as well.  The
Riemann zeta function is the a = 1 special case.  The remaining functions package the three
constants attached to the Gauss map

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


def _euler_maclaurin_table() -> np.ndarray:
    """Monomial coefficients of the Euler-Maclaurin correction polynomial.

    The correction is base^(-s-1) E(s) with

        E(s) = sum_k B_2k/(2k)! (s)_{2k-1} base^(-2(k-1)),

    (s)_n = s (s+1) ... (s+n-1) the rising factorial.  Row k-1 holds the
    coefficients of s^m in B_2k/(2k)! (s)_{2k-1} (columns m), of its first
    s-derivative (columns 16 + m) and of its second (columns 32 + m), so
    the powers of base^-2 times this table are E, E' and E'' in monomials.
    All coefficients of (s)_n are positive, so for s > 0 the monomial sum
    of each term has no cancellation.
    """
    poch = np.zeros((_EM_DEGREE, _EM_DEGREE))     # poch[n, m]: s^m in (s)_n
    poch[0, 0] = 1.0
    for n in range(1, _EM_DEGREE):
        poch[n, 1:] = poch[n - 1, :-1]
        poch[n] += (n - 1) * poch[n - 1]
    value = _BERN_FACT[:, None] * poch[1::2]
    d_ds = np.diag(_EM_POWERS[1:], -1)            # d/ds s^m = m s^(m-1)
    return np.concatenate([value, value @ d_ds, value @ d_ds @ d_ds], axis=1)


_EM_TABLE = _euler_maclaurin_table()               # (8, 48)
# Leibniz rule for x^(-s) g(s): its d-th s-derivative is
# x^(-s) sum_j _LEIBNIZ[d, j] (log x)^_LEIBNIZ_POWERS[d, j] g^(j)(s)
_LEIBNIZ = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -2.0, 1.0]])
_LEIBNIZ_POWERS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])


def hurwitz_zeta(s, a=1.0, derivative: int = 0):
    """zeta(s, a) for s > 1, a > 0, broadcasting over array inputs.

    ``derivative`` is the highest s-derivative returned: 0 gives zeta alone,
    1 the pair (zeta, d zeta / ds) and 2 the triple that adds d^2 zeta / ds^2
    (``True`` counts as 1).  NaN or infinity in ``s`` or ``a`` raises
    ``ValueError``.

    The Euler-Maclaurin base point is pushed out far enough that the
    correction series converges geometrically for every requested s, so
    the relative error stays near 1e-14 on s in (1, 60] (checked against
    mpmath down to s = 1 + 1e-6, where zeta ~ 1/(s - 1)).  The eight
    correction terms are one polynomial in s of degree 15 whose monomial
    coefficients, for each base point, are the powers of base^-2 times a
    constant table; with one base point (a scalar ``a``), the corrections
    and both derivatives of a whole row of s come from one Vandermonde
    matrix and one matrix product.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    s_max, a_min = float(s.max()), float(a.min())
    # both tests are False for NaN as well
    if not (s.min() > 1.0 and s_max < math.inf):
        raise ValueError("hurwitz_zeta requires finite s > 1")
    if not (a_min > 0.0 and a.max() < math.inf):
        raise ValueError("hurwitz_zeta requires finite a > 0")
    order = int(derivative)
    if order not in (0, 1, 2):
        raise ValueError("derivative must be 0, 1 or 2")

    # base ~ 0.75*(s+16) keeps the correction-term ratio ((s+2k)/(2 pi base))^2
    # near 0.05, so eight Bernoulli terms reach ~1e-14 relative error.
    base_needed = max(14.0, 0.75 * (s_max + 16.0))
    n_shift = max(0, math.ceil(base_needed - a_min))

    # out[d] is d^d zeta / ds^d; the s-derivatives of x^(-s) are
    # (-log x)^d x^(-s)
    out = [0.0] * (order + 1)

    if n_shift > 0:
        n = np.arange(n_shift, dtype=float).reshape((n_shift,) + (1,) * max(s.ndim, a.ndim))
        log_an = np.log(a + n)
        pw = np.exp(-s * log_an)
        for d in range(order + 1):
            out[d] = pw.sum(axis=0)
            if d < order:
                pw = pw * -log_an

    # the rest is base^(-s) times base/(s-1) (the integral), 1/2 (the
    # end-point term) and E(s)/base (the corrections); the last two are
    # polynomials in s, so their s-derivatives, Leibniz factors of base^(-s)
    # included, are rows of monomial coefficients per base point
    base = a + n_shift
    logb = np.log(base)
    em = ((base ** -2.0)[..., None] ** _B_POWERS @ _EM_TABLE).reshape(
        base.shape + (3, _EM_DEGREE)) / base[..., None, None]
    em[..., 0, 0] += 0.5
    em = (logb[..., None, None] ** _LEIBNIZ_POWERS * _LEIBNIZ)[..., :order + 1, :] @ em
    vander = s[..., None] ** _EM_POWERS
    if base.size == 1:
        poly = vander @ em.reshape(order + 1, _EM_DEGREE).T
    else:
        poly = np.einsum("...m,...dm->...d", vander, em)
    pw_s = np.exp(-s * logb)                      # base^(-s)
    inv = 1.0 / (s - 1.0)
    intg = pw_s * base * inv                      # base^(1-s)/(s-1), the largest term
    out[0] = out[0] + intg + pw_s * poly[..., 0]
    if order >= 1:
        c1 = logb + inv
        out[1] = out[1] - c1 * intg + pw_s * poly[..., 1]
    if order == 2:
        out[2] = out[2] + (c1 * c1 + inv * inv) * intg + pw_s * poly[..., 2]

    return out[0] if order == 0 else tuple(out)


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
