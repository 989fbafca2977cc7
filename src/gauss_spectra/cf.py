"""Continued-fraction digits of the Gauss map.

Digit blocks, continuants and convergents are exact integers.  Floating
point enters only the Birkhoff estimates of a digit stream, which track
log q_n rather than q_n (q_n grows like e^(1.19 n)), so they work for
astronomically large digits.  ``construct_point`` builds the digit stream
of a point with a prescribed Khintchine exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

DigitsLike = Union["PartialQuotients", Sequence[int]]


@dataclass(frozen=True)
class PartialQuotients:
    """A finite block of continued-fraction digits (a_1, ..., a_n)."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) < 1:
            raise ValueError("at least one digit is required")
        for a in self.digits:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"digits must be integers >= 1, got {a!r}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, i):
        return self.digits[i]


def _digit_tuple(digits: DigitsLike) -> tuple[int, ...]:
    if isinstance(digits, PartialQuotients):
        return digits.digits
    out = tuple(int(a) for a in digits)
    PartialQuotients(out)  # validate
    return out


@dataclass(frozen=True)
class Convergent:
    """One rational approximant p_n / q_n."""

    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class OrbitStats:
    """Finite-depth Birkhoff sums along a Gauss-map orbit.

    ``sum_log_deriv / n`` estimates the expansion (Lyapunov) rate and
    ``sum_log_digits / n`` the Khintchine exponent.
    """

    n: int
    sum_log_digits: float
    sum_log_deriv: float

    @property
    def khintchine_estimate(self) -> float:
        return self.sum_log_digits / self.n

    @property
    def lyapunov_estimate(self) -> float:
        return self.sum_log_deriv / self.n


def orbit_stats_from_digits(digits: Iterable[int], depth: int) -> OrbitStats:
    """Estimates from a digit stream alone, via the growth of q_n.

    Here ``sum_log_deriv`` is 2 log q_n, the standard proxy for the
    log-derivative sum (the two differ by a bounded amount, so the rate
    estimates agree in the limit).  Works for astronomically large digits:
    only log q_n and the ratio q_{n-1}/q_n are tracked.
    """
    slog = 0.0
    log_q = 0.0
    ratio = 0.0  # q_{n-1} / q_n, in [0, 1)
    n = 0
    for a in digits:
        if n >= depth:
            break
        slog += math.log(a)
        log_q += math.log(a + ratio)
        ratio = 1.0 / (a + ratio)
        n += 1
    if n == 0:
        raise ValueError("empty digit stream")
    return OrbitStats(n=n, sum_log_digits=slog, sum_log_deriv=2.0 * log_q)


def continuant(digits: DigitsLike) -> int:
    """Continuant of (a_1, ..., a_n): the three-term recursion value q_n."""
    ds = _digit_tuple(digits)
    q_prev, q_cur = 0, 1  # Q_{-1}, Q_0
    for a in ds:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return q_cur


def convergents(digits: DigitsLike) -> list[Convergent]:
    """All convergents p_1/q_1, ..., p_n/q_n in exact integers."""
    ds = _digit_tuple(digits)
    p_prev, p_cur = 1, 0  # p_{-1}, p_0
    q_prev, q_cur = 0, 1  # q_{-1}, q_0
    out = []
    for a in ds:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Convergent(p_cur, q_cur))
    return out


def construct_point(xi: float) -> Iterator[int]:
    """Digit stream of a point with prescribed Khintchine exponent ``xi``.

    All digits are 1 except at the block boundaries n_k = k^2 (k >= 1, with
    n_0 = 1), where the digit is the integer in [e^(g*xi), e^(g*xi) + 1]
    for the gap g = n_k - n_{k-1}.  The gaps grow while n_k / n_{k+1} tends
    to 1, so the running mean of log a_n converges to xi and the expansion
    rate to 2 xi + gamma0.
    """
    if xi < 0:
        raise ValueError("xi must be >= 0")
    n_prev = 1  # n_0
    k = 1
    n = 1
    while True:
        if n == k * k:
            exponent = (n - n_prev) * xi
            if exponent > 700.0:
                raise OverflowError(
                    f"block digit e^{exponent:.1f} exceeds double range; use a smaller xi"
                )
            yield math.ceil(math.exp(exponent))
            n_prev = n
            k += 1
        else:
            yield 1
        n += 1
