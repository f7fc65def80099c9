"""Constructors for the handful of q-expansions everything else consumes.

All series live in t = q^2: the Eisenstein series E4 and E6, the
eta-product h = t/Delta = P^(-24), from Euler's pentagonal series
P = prod (1 - t^m), and the theta functions f_0..f_k attached to the
residue classes of Z_2k.
"""

from __future__ import annotations

import math

from .errors import IndexOutOfRange, InvalidModulus
from .series import FracSeries, power


def _eisenstein(T, c: int, p: int) -> FracSeries:
    """1 + c * sum_{m>=1} sigma_p(m) t^m on the integer grid, the divisor
    sums sieved: each d adds c * d^p to every multiple of d."""
    n = math.ceil(T)
    coeffs = [1] + [0] * (n - 1)
    for d in range(1, n):
        cd = c * d ** p
        for m in range(d, n, d):
            coeffs[m] += cd
    return FracSeries(1, T, coeffs)


def eisenstein_e4(T) -> FracSeries:
    """E4 = 1 + 240 * sum_{m>=1} sigma_3(m) t^m on the integer grid."""
    return _eisenstein(T, 240, 3)


def eisenstein_e6(T) -> FracSeries:
    """E6 = 1 - 504 * sum_{m>=1} sigma5(m) t^m on the integer grid."""
    return _eisenstein(T, -504, 5)


def _euler(T) -> FracSeries:
    """Euler's series prod_{m>=1} (1 - t^m) = sum_g (-1)^g t^(g(3g-1)/2),
    g over all integers (the pentagonal number theorem)."""
    terms = {}
    g = 0
    while g * (3 * g - 1) // 2 < T:
        terms[g * (3 * g - 1) // 2] = terms[g * (3 * g + 1) // 2] = (-1) ** g
        g += 1
    return FracSeries.from_terms(1, T, terms)


def h_series(T, s: int = 1) -> FracSeries:
    """h^s, h = prod_{r>=1} (1 - t^r)^(-24) = t/Delta, as P^(-24s) by
    Miller's recurrence over the lacunary P; for s >= 0 all coefficients
    are positive."""
    return power(_euler(T), -24 * s)


def theta_terms(k: int, i: int, T) -> list:
    """The support of f_i = theta_f(k, i, T) as (grid index, coefficient)
    pairs, ascending, read off the lattice: x^2 for x >= 1 with
    x = +-i mod 2k and x^2 < 4k*T, plus (0, 1) for i = 0."""
    if k < 1:
        raise InvalidModulus(f"k must be >= 1, got {k}")
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"theta index {i} outside 0..{k}")
    residues = {i % (2 * k), (2 * k - i) % (2 * k)}
    weight = 2 if i == 0 or i == k else 1
    top = math.isqrt(math.ceil(T * 4 * k) - 1)  # x * x < T * 4k, in ints
    terms = [(0, 1)] if i == 0 else []
    return terms + [(x * x, weight) for x in range(1, top + 1)
                    if x % (2 * k) in residues]


def theta_f(k: int, i: int, T) -> FracSeries:
    """Theta function of the residue class 2kZ + i, on grid 1/(4k).

    f_i = sum over x = i mod 2k of t^(x^2/4k).  Support sits at grid index
    x^2 for positive x with x = +-i mod 2k; the stored coefficient is the
    number of class members with that square: 2 for i = 0 (x and -x, plus
    the constant 1) and for i = k (the class is its own negative), 1 for
    0 < i < k (x and -x fall in the two different classes i and 2k-i,
    which share the same series).  This single-class normalization is the
    one that makes swe_C8(f_0, ..., f_k) = E4 come out exactly.
    """
    return FracSeries.from_terms(4 * k, T, dict(theta_terms(k, i, T)))
