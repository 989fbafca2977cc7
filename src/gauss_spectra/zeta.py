"""Zeta functions and the constants of the Gauss map.

Everything here is real-variable only.  ``hurwitz_zeta`` evaluates

    zeta(s, a) = sum_{n>=0} (n + a)^(-s),     s > 1,  a > 0,

by direct summation up to a shift plus an Euler-Maclaurin correction, and
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


def hurwitz_zeta(s, a=1.0, derivative: int = 0):
    """zeta(s, a) for s > 1, a > 0, broadcasting over array inputs.

    ``derivative`` is the highest s-derivative returned: 0 gives zeta alone,
    1 the pair (zeta, d zeta / ds) and 2 the triple that adds d^2 zeta / ds^2
    (``True`` counts as 1).

    The Euler-Maclaurin base point is pushed out far enough that the
    correction series converges geometrically for every requested s, so
    the relative error stays near 1e-14 on s in (1.001, 60].  Logarithms
    are taken on the shape of ``a`` alone and powers are exp(-s log), so a
    grid of many s against few a costs one exp per entry and summed term.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(s <= 1.0):
        raise ValueError("hurwitz_zeta requires s > 1")
    if np.any(a <= 0.0):
        raise ValueError("hurwitz_zeta requires a > 0")
    order = int(derivative)
    if order not in (0, 1, 2):
        raise ValueError("derivative must be 0, 1 or 2")

    s_max = float(np.max(s))
    a_min = float(np.min(a))
    # base ~ 0.75*(s+16) keeps the correction-term ratio ((s+2k)/(2 pi base))^2
    # near 0.05, so eight Bernoulli terms reach ~1e-14 relative error.
    base_needed = max(14.0, 0.75 * (s_max + 16.0))
    n_shift = max(0, math.ceil(base_needed - a_min))

    # out[d] accumulates d^d zeta / ds^d; the s-derivatives of x^(-s) are
    # (-log x)^d x^(-s)
    shape = np.broadcast_shapes(s.shape, a.shape)
    a = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
    out = [0.0] * (order + 1)

    if n_shift > 0:
        n = np.arange(n_shift, dtype=float).reshape((n_shift,) + (1,) * len(shape))
        log_an = np.log(a + n)
        pw = np.exp(-s * log_an)
        for d in range(order + 1):
            out[d] = pw.sum(axis=0)
            if d < order:
                pw = pw * -log_an

    base = a + n_shift
    logb = np.log(base)
    pw_s = np.exp(-s * logb)                      # base^(-s)
    sm1 = s - 1.0
    intg = base * pw_s / sm1                      # base^(1-s) / (s-1)
    half = 0.5 * pw_s
    out[0] = out[0] + intg + half
    if order >= 1:
        c1 = logb + 1.0 / sm1
        out[1] = out[1] - c1 * intg - logb * half
    if order == 2:
        out[2] = out[2] + (c1 * c1 + 1.0 / sm1 ** 2) * intg + logb * logb * half

    # Euler-Maclaurin corrections sum_k coef_k poch_k(s) base^(-s-2k+1) with
    # the rising factorial poch_k(s) = s (s+1) ... (s+2k-2), written as
    # base^(-s-1) sum_k c_k(s) base^(-2(k-1)): c_k = coef_k poch_k and its
    # s-derivatives live on the shape of s, the powers of base^-2 on that of a
    shifted = s[..., None] + np.arange(2 * len(_BERN_FACT) - 1)        # s + j
    c = _BERN_FACT * np.cumprod(shifted, axis=-1)[..., ::2]
    b_pow = (1.0 / (base * base))[..., None] ** np.arange(len(_BERN_FACT))
    pw = pw_s / base
    em = [np.einsum("...k,...k->...", c, b_pow)]
    if order >= 1:
        # d poch_k / ds = poch_k h1_k and d^2 poch_k / ds^2 = poch_k (h1_k^2 - h2_k)
        h1 = np.cumsum(1.0 / shifted, axis=-1)[..., ::2]
        em.append(np.einsum("...k,...k->...", c * h1, b_pow))
    if order == 2:
        h2 = np.cumsum(1.0 / shifted ** 2, axis=-1)[..., ::2]
        em.append(np.einsum("...k,...k->...", c * (h1 * h1 - h2), b_pow))
    out[0] = out[0] + pw * em[0]
    if order >= 1:
        out[1] = out[1] + pw * (em[1] - logb * em[0])
    if order == 2:
        out[2] = out[2] + pw * (em[2] - 2.0 * logb * em[1] + logb * logb * em[0])

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
