from fractions import Fraction

import pytest

from conftest import brute_delta, brute_theta1, coeff_at, expand_u
from zktheta.errors import IndexOutOfRange
from zktheta.extremal import _theta0
from zktheta.modforms import eisenstein_e4, h_series, theta_f
from zktheta.series import FracSeries, mul, power


def sigma3(m):
    """sum of d^3 over the divisors d of m, one trial division per d."""
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def test_sigma3_small():
    # E4's sieve against divisor sums, slot by slot
    assert [sigma3(m) for m in (1, 2, 4, 5)] == [1, 9, 73, 126]
    assert eisenstein_e4(60).coeffs[1:] == \
        [240 * sigma3(m) for m in range(1, 60)]


def test_e4_leading_coefficients():
    assert eisenstein_e4(5).coeffs == [1, 240, 2160, 6720, 17520]


def test_e4_coefficient_formula():
    assert coeff_at(eisenstein_e4(6), 5) == 240 * sigma3(5) == 30240


def test_e4_constant_only():
    assert eisenstein_e4(1).coeffs == [1]


def test_h_leading_coefficients():
    assert h_series(4).coeffs == [1, 24, 324, 3200]


def test_h_is_inverse_of_eta_product():
    T = 40
    # prod (1 - t^m)^24 via the delta oracle shifted down by one
    eta24 = FracSeries(1, T, brute_delta(T + 1)[1:])
    assert mul(h_series(T), eta24) == FracSeries.constant(1, T)


def test_h_positive_coefficients():
    h = h_series(200)
    assert all(c > 0 for c in h.coeffs)


def test_theta_f_k1_class0():
    # x in 2Z: exponents x^2/4 = 0, 1, 4 on the coset 0
    r, f0 = theta_f(1, 0, 5)
    assert (r, f0.nonzero_terms()) == (0, [(0, 1), (1, 2), (4, 2)])


def test_theta_f_k2_class0():
    # x in 4Z: exponents x^2/8 = 0, 2, 8 on the coset 0
    r, f0 = theta_f(2, 0, 11)
    assert (r, f0.nonzero_terms()) == (0, [(0, 1), (2, 2), (8, 2)])


def test_theta_f_k1_odd_class():
    f1 = theta_f(1, 1, 3)
    assert f1[0] == 1
    assert coeff_at(f1, Fraction(1, 4), k=1) == 2
    assert coeff_at(f1, Fraction(9, 4), k=1) == 2
    assert coeff_at(f1, Fraction(5, 4), k=1) == 0
    assert coeff_at(f1, 1, k=1) == 0


def test_theta_f_midrange_single_count():
    # 0 < i < k: each positive x = +-i (mod 2k) appears once
    f1 = theta_f(3, 1, 3)
    assert coeff_at(f1, Fraction(1, 12), k=3) == 1
    assert coeff_at(f1, Fraction(25, 12), k=3) == 1
    # i = k = 5: x = 5, 15 give t^(25/20) and t^(225/20), slots 1 and 11 of
    # the coset 5/20, each counted twice
    assert theta_f(5, 5, 12) == (5, FracSeries.from_terms(12, {1: 2, 11: 2}))


def test_theta_f_index_range():
    with pytest.raises(IndexOutOfRange):
        theta_f(2, 3, 5)


def test_theta_f_support_is_squares():
    for k in (1, 2, 3):
        for i in range(k + 1):
            r, f = theta_f(k, i, 6)
            assert r == i * i % (4 * k)
            for e, c in f.nonzero_terms():
                x = int(round((4 * k * e + r) ** 0.5))
                assert x * x == 4 * k * e + r
                assert x % (2 * k) in {i, 2 * k - i}


def test_theta1_counts_k1(r8_counts):
    # theta1 = f0^8, as extremal takes it from f0c
    assert power(_theta0(1, 13), 8).coeffs == r8_counts[:13]


def test_theta1_counts_k2(r8_counts):
    t = expand_u(power(_theta0(2, 13), 8), 2)
    for m in range(13):
        expected = r8_counts[m // 2] if m % 2 == 0 else 0
        assert t.coeffs[m] == expected


def test_theta1_constant_term():
    for k in range(1, 7):
        assert power(_theta0(k, 3), 8).coeffs[0] == 1


def test_theta1_equals_f0_pow8():
    for k in (1, 3):
        theta1 = FracSeries(1, 6, brute_theta1(k, 6))
        r, f0 = theta_f(k, 0, 6)
        assert r == 0 and power(f0, 8) == theta1
