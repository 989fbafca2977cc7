"""Continued-fraction digits: spec examples, identity suites and digit streams."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gauss_spectra import cf

GAMMA0 = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)


def test_partial_quotients_validation():
    with pytest.raises(ValueError):
        cf.PartialQuotients(())
    with pytest.raises(ValueError):
        cf.PartialQuotients((0,))
    with pytest.raises(ValueError):
        cf.PartialQuotients((1.5,))


# ---------------------------------------------------------------------------
# continuants and convergents

def test_continuant_values():
    assert cf.continuant([1, 1, 1]) == 3
    assert cf.continuant([1, 2, 3]) == 10
    assert cf.continuant([3, 2, 1]) == 10


def test_convergents_fibonacci_and_hand_values():
    qs = [c.q for c in cf.convergents([1] * 5)]
    assert qs == [1, 2, 3, 5, 8]
    ps = [(c.p, c.q) for c in cf.convergents([2, 2])]
    assert ps == [(1, 2), (2, 5)]


def test_determinant_mirror_sandwich_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        digits = tuple(int(d) for d in rng.integers(1, 40, size=n))
        cs = cf.convergents(digits)
        p_prev, q_prev = 0, 1
        for k, c in enumerate(cs, start=1):
            assert p_prev * c.q - c.p * q_prev == (-1) ** k
            assert math.gcd(c.p, c.q) == 1
            p_prev, q_prev = c.p, c.q
        assert cf.continuant(digits) == cf.continuant(tuple(reversed(digits)))
        q_n = cs[-1].q
        assert math.prod(digits) <= q_n <= math.prod(d + 1 for d in digits)
        assert q_n >= 2 ** ((n - 1) / 2.0)


def test_insertion_bound():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 15))
        digits = [int(d) for d in rng.integers(1, 30, size=n)]
        j = int(rng.integers(1, n))
        b = int(rng.integers(1, 50))
        inserted = digits[:j] + [b] + digits[j:]
        ratio = Fraction(cf.continuant(inserted), cf.continuant(digits))
        assert Fraction(b + 1, 2) <= ratio <= b + 1


def test_random_uniform_rational_khintchine_statistic():
    # statistical: a generic point's mean log-digit approaches the
    # almost-sure value ~0.988; fixed seed keeps this deterministic
    rng = np.random.default_rng(100)
    bits = 16_000
    num, den = int.from_bytes(rng.bytes(bits // 8), "big") | 1, 2 ** bits
    digits = []
    while len(digits) < 4000:  # Euclid's algorithm gives the exact digits
        digits.append(den // num)
        num, den = den % num, num
    st = cf.orbit_stats_from_digits(digits, 4000)
    assert abs(st.khintchine_estimate - 0.9878) < 0.15
    assert st.lyapunov_estimate >= GAMMA0 - 1e-9


# ---------------------------------------------------------------------------
# constructed points and digit streams

def test_construct_point_zero_is_golden():
    stream = cf.construct_point(0.0)
    assert list(itertools.islice(stream, 30)) == [1] * 30


def test_construct_point_digits_in_prescribed_interval():
    xi = 0.8
    digits = list(itertools.islice(cf.construct_point(xi), 150))
    boundaries = [k * k for k in range(1, 13)]
    prev = 1
    for nk in boundaries:
        gap = nk - prev
        a = digits[nk - 1]
        assert math.exp(gap * xi) <= a <= math.exp(gap * xi) + 1.0
        prev = nk
    # everything else is 1
    others = [d for i, d in enumerate(digits, start=1) if i not in boundaries]
    assert set(others) == {1}


def test_construct_point_running_estimates():
    st = cf.orbit_stats_from_digits(cf.construct_point(math.log(2.0)), 10_000)
    assert abs(st.khintchine_estimate - math.log(2.0)) < 0.05
    st = cf.orbit_stats_from_digits(cf.construct_point(1.0), 10_000)
    assert abs(st.lyapunov_estimate - (2.0 + GAMMA0)) < 0.05


def test_construct_point_guards():
    with pytest.raises(ValueError):
        next(cf.construct_point(-0.5))
    # the gap 71^2 - 70^2 = 141 first makes 5 * gap exceed 700
    digits = []
    with pytest.raises(OverflowError):
        digits.extend(cf.construct_point(5.0))
    assert len(digits) == 71 * 71 - 1


def test_orbit_stats_from_digits_golden_floor():
    st = cf.orbit_stats_from_digits(itertools.repeat(1), 10_000)
    assert st.khintchine_estimate == 0.0
    assert abs(st.lyapunov_estimate - GAMMA0) < 1e-3
