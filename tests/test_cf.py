"""Exact continued-fraction arithmetic: spec examples and identity suites."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gauss_spectra import cf

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GAMMA0 = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)


def cf_value(digits) -> Fraction:
    """Independent bottom-up evaluation of [a_1, ..., a_n]."""
    v = Fraction(0)
    for a in reversed(list(digits)):
        v = Fraction(1, a + v)
    return v


# ---------------------------------------------------------------------------
# gauss map and density

def test_gauss_map_values():
    assert cf.gauss_map(0.5) == 0.0
    assert cf.gauss_map(0.7) == pytest.approx(3.0 / 7.0, abs=1e-15)
    assert cf.gauss_map(GOLDEN) == pytest.approx(GOLDEN, abs=1e-15)
    assert cf.gauss_map(0.0) == 0.0  # endpoint convention


@pytest.mark.parametrize("x", [-0.1, 1.0, 1.5])
def test_gauss_map_domain(x):
    with pytest.raises(ValueError):
        cf.gauss_map(x)


def test_gauss_density():
    assert cf.gauss_density(0.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert cf.gauss_density(1.0) == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-15)
    total = float(mpmath.quad(lambda x: cf.gauss_density(float(x)), [0, 1]))
    assert total == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        cf.gauss_density(-0.01)
    with pytest.raises(ValueError):
        cf.gauss_density(1.01)


# ---------------------------------------------------------------------------
# expansion

def test_expand_examples():
    assert cf.expand(GOLDEN, 5).digits == (1, 1, 1, 1, 1)
    assert cf.expand(math.pi - 3.0, 3).digits == (7, 15, 1)
    assert cf.expand(Fraction(2, 5), 2).digits == (2, 2)


def test_expand_termination_and_guard():
    with pytest.raises(cf.ExpansionTerminatedError) as exc:
        cf.expand(Fraction(2, 5), 3)
    assert exc.value.digits == (2, 2)
    with pytest.raises(cf.PrecisionLossError):
        cf.expand(math.pi - 3.0, 60)
    # exact rational input carries no float guard
    x = cf_value([1, 2] * 40)
    assert len(cf.expand(x, 60)) == 60


def test_expand_digits_locate_input():
    rng = np.random.default_rng(3)
    for _ in range(50):
        digits = tuple(int(d) for d in rng.integers(1, 12, size=10))
        x = cf_value(digits + (2, 7))
        got = cf.expand(x, 10)
        assert got.digits == digits
        assert x in cf.cylinder(got)


def test_partial_quotients_validation():
    with pytest.raises(ValueError):
        cf.PartialQuotients(())
    with pytest.raises(ValueError):
        cf.PartialQuotients((0,))
    with pytest.raises(ValueError):
        cf.PartialQuotients((1.5,))


# ---------------------------------------------------------------------------
# continuants, convergents, cylinders

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


def test_cylinder_geometry():
    for a in (1, 2, 5, 17):
        cyl = cf.cylinder([a])
        assert cyl.length == Fraction(1, a * (a + 1))
    cyl = cf.cylinder([1, 1])
    assert (cyl.left, cyl.right) == (Fraction(1, 2), Fraction(2, 3))
    assert cyl.length == Fraction(1, 6)
    cyl = cf.cylinder([2])
    assert (cyl.left, cyl.right) == (Fraction(1, 3), Fraction(1, 2))


def test_cylinder_length_formula_and_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        digits = tuple(int(d) for d in rng.integers(1, 25, size=n))
        cs = cf.convergents(digits)
        q_n = cs[-1].q
        q_m = cs[-2].q if n >= 2 else 1
        cyl = cf.cylinder(digits)
        assert cyl.length == Fraction(1, q_n * (q_n + q_m))
        assert cs[-1].value in cyl
        assert cf_value(digits) in cyl


# ---------------------------------------------------------------------------
# exponent estimates

def test_exponent_estimates_golden_like():
    x = cf_value([1] * 60)
    st = cf.exponent_estimates(x, 50)
    assert st.khintchine_estimate == 0.0
    assert st.lyapunov_estimate == pytest.approx(GAMMA0, abs=5e-2)
    # the expansion-rate floor is asymptotic; finite depth can dip slightly
    assert st.lyapunov_estimate >= GAMMA0 - 1e-2


def test_exponent_estimates_constant_twos():
    x = cf_value([2] * 60)
    st = cf.exponent_estimates(x, 50)
    assert st.khintchine_estimate == pytest.approx(math.log(2.0), rel=1e-12)


def test_lyapunov_vs_qn_growth_window():
    # |(1/n) log |(T^n)'| - (2/n) log q_n| <= log(2K)/n with K = e^4
    rng = np.random.default_rng(14)
    bound = math.log(2.0 * math.exp(4.0))
    for _ in range(50):
        n = int(rng.integers(5, 30))
        digits = tuple(int(d) for d in rng.integers(1, 20, size=n + 5))
        x = cf_value(digits)
        st = cf.exponent_estimates(x, n)
        q_n = cf.continuant(digits[:n])
        assert abs(st.sum_log_deriv - 2.0 * math.log(q_n)) <= bound


def test_random_uniform_rational_khintchine_statistic():
    # statistical: a generic point's mean log-digit approaches the
    # almost-sure value ~0.988; fixed seed keeps this deterministic
    rng = np.random.default_rng(100)
    bits = 16_000
    num = int.from_bytes(rng.bytes(bits // 8), "big") | 1  # full-entropy numerator
    x = Fraction(num, 2 ** bits)
    st = cf.exponent_estimates(x, 4000)
    assert abs(st.khintchine_estimate - 0.9878) < 0.15
    assert st.lyapunov_estimate >= GAMMA0 - 1e-9


def test_rational_terminates_rather_than_padding():
    with pytest.raises(cf.ExpansionTerminatedError):
        cf.exponent_estimates(Fraction(2, 5), 10)


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
    stream = cf.construct_point(5.0, boundaries=lambda k: 200 * k * k)
    with pytest.raises(OverflowError):
        list(itertools.islice(stream, 1000))


def test_orbit_stats_from_digits_golden_floor():
    st = cf.orbit_stats_from_digits(itertools.repeat(1), 10_000)
    assert st.khintchine_estimate == 0.0
    assert abs(st.lyapunov_estimate - GAMMA0) < 1e-3
