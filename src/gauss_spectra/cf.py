"""Exact continued-fraction arithmetic for the Gauss map.

Digits, continuants, convergents and cylinder intervals are computed in
exact integer/rational arithmetic; floating point only enters when a
quantity is explicitly an estimate (Birkhoff sums, log q_n growth).  The
denominators q_n grow like e^(1.19 n), so anything that would hold q_n in
a float works in the log domain instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

LOG2 = math.log(2.0)

DigitsLike = Union["PartialQuotients", Sequence[int]]


class ExpansionTerminatedError(ArithmeticError):
    """The input is rational and its expansion ended before the requested depth."""

    def __init__(self, digits: tuple[int, ...], requested: int):
        self.digits = digits
        self.requested = requested
        super().__init__(
            f"expansion terminated after {len(digits)} digits; {requested} requested"
        )


class PrecisionLossError(ArithmeticError):
    """A float input no longer determines the digits at the requested depth."""

    def __init__(self, digits: tuple[int, ...], requested: int, cylinder_length: float):
        self.digits = digits
        self.requested = requested
        self.cylinder_length = cylinder_length
        super().__init__(
            f"double-precision input certifies only {len(digits)} digits "
            f"(cylinder length {cylinder_length:.3e}); {requested} requested"
        )


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
class Cylinder:
    """The interval of points sharing a fixed digit block."""

    digits: PartialQuotients
    left: Fraction
    right: Fraction

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def __contains__(self, x) -> bool:
        return self.left <= x <= self.right


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


def gauss_map(x: float) -> float:
    """T(x) = 1/x mod 1 on (0, 1); the endpoint 0 maps to 0 by convention."""
    if x == 0:
        return 0.0
    if not 0.0 < x < 1.0:
        raise ValueError(f"gauss_map needs 0 < x < 1, got {x}")
    y = 1.0 / x
    return y - math.floor(y)


def gauss_density(x: float) -> float:
    """Density of the invariant Gauss measure, 1 / ((1+x) log 2) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"gauss_density needs 0 <= x <= 1, got {x}")
    return 1.0 / ((1.0 + x) * LOG2)


def _as_fraction(x) -> tuple[Fraction, bool]:
    """Return (exact value, came_from_float)."""
    if isinstance(x, Fraction):
        return x, False
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio()), True
    raise TypeError(f"expected float or Fraction, got {type(x).__name__}")


def _euclid_steps(x: Fraction, depth: int, float_guard: bool):
    """Yield (digit, orbit point before the step) of the exact expansion.

    With ``float_guard`` set, stop once the cylinder pinned down by the
    digits so far is shorter than 2^-52 * depth: past that point a double
    no longer determines the digits of the real it stands for.
    """
    num, den = x.numerator, x.denominator
    q_prev, q_cur = 0, 1  # q_{n-1}, q_n
    guard_bound = ((1 << 52) // depth) if float_guard else None
    emitted: list[int] = []
    while len(emitted) < depth:
        if num == 0:
            raise ExpansionTerminatedError(tuple(emitted), depth)
        a = den // num
        orbit = Fraction(num, den)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if guard_bound is not None and q_cur * (q_cur + q_prev) > guard_bound:
            cyl = 1.0 / (float(q_cur) * float(q_cur + q_prev))
            raise PrecisionLossError(tuple(emitted), depth, cyl)
        emitted.append(a)
        num, den = den - a * num, num
        yield a, orbit


def expand(x, depth: int) -> PartialQuotients:
    """First ``depth`` continued-fraction digits of x in (0, 1).

    Accepts a float (expanded exactly as the rational it represents, with a
    precision guard) or a Fraction (expanded exactly, no guard).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    xf, from_float = _as_fraction(x)
    if not 0 < xf < 1:
        raise ValueError(f"expand needs 0 < x < 1, got {x}")
    digits = [a for a, _ in _euclid_steps(xf, depth, from_float)]
    return PartialQuotients(tuple(digits))


def exponent_estimates(x, depth: int) -> OrbitStats:
    """Khintchine / Lyapunov estimates from the exact orbit of x.

    The log-derivative sum is the honest Birkhoff sum -2 sum_j log T^j(x)
    over the exact rational orbit, not the log q_n shortcut.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    xf, from_float = _as_fraction(x)
    if not 0 < xf < 1:
        raise ValueError(f"exponent_estimates needs 0 < x < 1, got {x}")
    slog_digits = 0.0
    slog_deriv = 0.0
    n = 0
    for a, orbit in _euclid_steps(xf, depth, from_float):
        slog_digits += math.log(a)
        # log of a big-integer ratio; float(orbit) could underflow to 0
        slog_deriv += -2.0 * (math.log(orbit.numerator) - math.log(orbit.denominator))
        n += 1
    return OrbitStats(n=n, sum_log_digits=slog_digits, sum_log_deriv=slog_deriv)


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


def cylinder(digits: DigitsLike) -> Cylinder:
    """Exact interval of all x whose expansion starts with the given block.

    The endpoints are p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}), ordered
    by the parity of n; the length is 1/(q_n (q_n + q_{n-1})).
    """
    ds = _digit_tuple(digits)
    cs = convergents(ds)
    p_n, q_n = cs[-1].p, cs[-1].q
    if len(cs) >= 2:
        p_m, q_m = cs[-2].p, cs[-2].q
    else:
        p_m, q_m = 0, 1  # p_0, q_0
    end_a = Fraction(p_n, q_n)
    end_b = Fraction(p_n + p_m, q_n + q_m)
    left, right = (end_a, end_b) if len(ds) % 2 == 0 else (end_b, end_a)
    return Cylinder(PartialQuotients(ds), left, right)


def default_block_boundaries(k: int) -> int:
    """Default block rule n_k = k^2: gaps grow and n_k / n_{k+1} tends to 1."""
    return k * k


def construct_point(xi: float, boundaries: Callable[[int], int] | None = None) -> Iterator[int]:
    """Digit stream of a point with prescribed Khintchine exponent ``xi``.

    All digits are 1 except at the block boundaries n_k (k >= 1, with
    n_0 = 1), where the digit is the integer in [e^(g*xi), e^(g*xi) + 1]
    for the gap g = n_k - n_{k-1}.  The running mean of log a_n converges
    to xi and the expansion rate to 2 xi + gamma0.
    """
    if xi < 0:
        raise ValueError("xi must be >= 0")
    rule = boundaries if boundaries is not None else default_block_boundaries
    n_prev = 1  # n_0
    k = 1
    n_next = rule(k)
    if n_next < n_prev:
        raise ValueError("block boundaries must start at or above n_0 = 1")
    n = 1
    while True:
        if n == n_next:
            exponent = (n_next - n_prev) * xi
            if exponent > 700.0:
                raise OverflowError(
                    f"block digit e^{exponent:.1f} exceeds double range; "
                    "use a smaller xi or denser blocks"
                )
            yield math.ceil(math.exp(exponent))
            k += 1
            n_prev, n_next = n_next, rule(k)
            if n_next <= n_prev:
                raise ValueError("block boundaries must be strictly increasing")
        else:
            yield 1
        n += 1
