import math
import os
import random
from fractions import Fraction

import pytest

from conftest import extremal_excess, matching_b_list, padded_certificate
from zktheta import extremal
from zktheta.errors import GridViolation, InvalidLength, PrecisionTooSmall
from zktheta.extremal import (
    _positivity,
    b_coefficients,
    beta_stars,
    crossover_scan,
    eq3_value,
    extremal_theta,
    positivity_certificate,
    profile,
    shape,
    theorem1_sweep,
)
from zktheta.modforms import theta1, theta_f
from zktheta.series import (
    FracSeries,
    euler_scaled,
    linear_combine,
    mul,
    power,
)


def test_shape():
    assert shape(8) == (1, 0, 1)
    assert shape(24) == (3, 1, 0)
    assert shape(5608) == (701, 233, 2)


def test_invalid_length():
    for bad in (0, 7, 12, -8):
        with pytest.raises(InvalidLength):
            b_coefficients(bad, 1)


def test_b_small_cases():
    assert b_coefficients(8, 1, 1) == [1, -224]
    assert b_coefficients(8, 2, 1) == [1, -240]
    assert b_coefficients(24, 1)[:2] == [1, -672]


def test_b_leading_is_one():
    for n, k in [(8, 1), (48, 3), (120, 6)]:
        assert b_coefficients(n, k)[0] == 1


def test_burmann_agrees_small():
    assert matching_b_list(8, 1, 2) == b_coefficients(8, 1, 2)


@pytest.mark.parametrize("k", range(1, 7))
def test_burmann_agrees_sweep(k):
    # n = 552 (mu = 23) with extra = 2 has count - 1 = 25 = 5^2: giant steps
    # of w^6 at s = 6, 12, 18, 24, and the list ends one past the last
    for n in [*range(24, 241, 24), 552]:
        assert matching_b_list(n, k, 2) == b_coefficients(n, k, 2)


def test_beta_examples():
    assert beta_stars(8, 1) == (224, 2048)
    assert beta_stars(8, 2)[0] == 240
    b = b_coefficients(24, 1, 1)
    assert beta_stars(24, 1)[0] == -b[2] > 0


def test_beta_golay_lattice_shells():
    # n=24, k=1: the extremal series is E4^3 - 672*Delta; its excess over
    # theta of sqrt(2)Z^24 at t^2 is the full norm-4 shell count 195408 - 1104
    assert beta_stars(24, 1)[0] == 194304


def test_extremal_theta_n8_k2_is_e4():
    from zktheta.modforms import eisenstein_e4

    assert extremal_theta(8, 2, 6) == eisenstein_e4(6)


def test_extremal_theta_coefficient_splits():
    th = extremal_theta(8, 1, 6)
    assert th.coeff_index(1) == 16 + 224


def test_extremal_theta_matches_theta0_prefix():
    n, k = 24, 1
    th = extremal_theta(n, k, 6)
    th0 = power(theta1(k, 6), 3)
    for e in range(2):
        assert th.coeff_index(e) == th0.coeff_index(e)


def test_extremal_theta_precision_guard():
    with pytest.raises(PrecisionTooSmall):
        extremal_theta(24, 1, 3)


@pytest.mark.parametrize("n,k", [(48, 1), (48, 6), (120, 3), (240, 2)])
def test_assembly_consistency(n, k):
    _, mu, _ = shape(n)
    T = mu + 4
    th = extremal_theta(n, k, T)
    th0 = power(theta1(k, T), n // 8)
    beta1, beta2 = beta_stars(n, k)
    for e in range(mu + 1):
        assert th.coeff_index(e) == th0.coeff_index(e)
    assert th.coeff_index(mu + 1) - th0.coeff_index(mu + 1) == beta1
    assert th.coeff_index(mu + 2) - th0.coeff_index(mu + 2) == beta2


def test_b_integrality():
    for n, k in [(48, 1), (96, 4), (240, 6)]:
        for b in b_coefficients(n, k, extra=2):
            assert isinstance(b, int)


# -- positivity certificate -------------------------------------------------

def test_positivity_examples():
    assert positivity_certificate(24, 1).verdict
    assert positivity_certificate(48, 6).verdict
    assert positivity_certificate(8, 1).verdict  # mu = 0 edge case


def test_positivity_report_fields():
    rep = positivity_certificate(48, 2)
    assert rep.max_exponent == 2
    assert rep.min_coeff > 0


def test_positivity_matches_padded_oracle():
    # the coset form against the dense 1/(4k)-grid construction
    for k in range(1, 7):
        for n in range(8, 241, 8):
            rep = positivity_certificate(n, k)
            assert (rep.verdict, rep.min_coeff, rep.min_exponent) == \
                padded_certificate(n, k), (n, k)


def test_f_bracket_off_coset_raises(monkeypatch):
    # an extra t^(2/8) in f_1 at k = 2 puts bracket weight on the coset 2/8,
    # not on r = 1/8 where f_1 lives
    real = extremal.theta_f

    def skewed(k, i, T):
        extra = FracSeries.monomial(1, Fraction(2, 8), T, D=8)
        return real(k, i, T) + extra if i == 1 else real(k, i, T)

    monkeypatch.setattr(extremal, "theta_f", skewed)
    with pytest.raises(GridViolation):
        extremal._f_bracket(2, 1, 4)
    monkeypatch.undo()
    assert extremal._f_bracket(2, 1, 4)[0] == 1


def _layers(mu, edit=None):
    """Hand-built positive inputs for _positivity at k = 4 (D = 16).

    The layer i sits on the coset r = i^2 mod 16 (1, 4, 9, 0), with its
    leading term at slot i^2 // 16 (0, 0, 0, 1); edit maps (i, slot) to a
    replacement coefficient.
    """
    s1 = FracSeries(1, mu + 2, [0] + [5] * (mu + 1))
    pis = []
    for i in range(1, 5):
        coeffs = [7] * (mu + 2)
        if i == 4:
            coeffs[0] = 0
        for (ei, slot), c in (edit or {}).items():
            if ei == i:
                coeffs[slot] = c
        pis.append((i * i % 16, FracSeries(1, mu + 2, coeffs)))
    return s1, pis


def test_positivity_failing_branches():
    mu = 3
    assert _positivity(*_layers(mu), 4, mu) == (True, 5, 1)
    # r = 0: slot mu + 1 is the exponent mu + 1, inside the window
    assert _positivity(*_layers(mu, {(4, mu + 1): -1}), 4, mu) == \
        (False, -1, mu + 1)
    # r = 1: slot mu + 1 is the exponent mu + 1 + 1/16, outside the window
    assert _positivity(*_layers(mu, {(1, mu + 1): -1}), 4, mu) == \
        (True, 5, 1)
    # a non-positive leading coefficient at slot i^2 // 16
    assert not _positivity(*_layers(mu, {(4, 1): 0}), 4, mu)[0]
    assert not _positivity(*_layers(mu, {(2, 0): -3}), 4, mu)[0]
    # the least coefficient's exponent on the coset 9/16 + Z
    assert _positivity(*_layers(mu, {(3, 2): 2}), 4, mu) == \
        (True, 2, Fraction(2 * 16 + 9, 16))


# -- Eq. (3) value ----------------------------------------------------------

def test_eq3_examples():
    assert eq3_value(7, 1, 0, [0] * 8) == 2
    assert eq3_value(1, 1, 0, [1, 1]) == Fraction(-3, 2)


def test_eq3_arity_check():
    with pytest.raises(ValueError):
        eq3_value(2, 1, 0, [0])


def test_eq3_positive_when_l_small():
    rng = random.Random(7)
    found = 0
    while found < 10_000:
        s = rng.randint(0, 9)
        k = rng.randint(1, 6)
        y = rng.choice([0, -1])  # keep (1+2ky)^2 = small enough for l < s+2
        xs = [0] * (s + 1)
        head = (1 + 2 * k * y) ** 2
        l = head
        if l < s + 2:
            assert eq3_value(s, k, y, xs) > 0
            found += 1


# -- Eq. (2) brute-force lattice oracle ------------------------------------

def eq2_double_sum(s, k, grid_cap):
    """4k * t * f0^s * (f0 f1' - f0' f1) by direct lattice enumeration.

    Returns {grid_index l: 4k * coefficient} for l < grid_cap, summing
    ((1+2ky)^2 - (2kx)^2) over all (y, x, x_1..x_s) with total norm l.
    """
    out = {}
    ybound = int(math.isqrt(grid_cap)) // (2 * k) + 2
    xbound = int(math.isqrt(grid_cap)) // (2 * k) + 2
    # iterate y, x, then the s extra coordinates via convolution
    extra = {0: 1}
    for _ in range(s):
        nxt = {}
        for tot, cnt in extra.items():
            for xi in range(-xbound, xbound + 1):
                t2 = tot + (2 * k * xi) ** 2
                if t2 < grid_cap:
                    nxt[t2] = nxt.get(t2, 0) + cnt
        extra = nxt
    for y in range(-ybound, ybound + 1):
        hy = (1 + 2 * k * y) ** 2
        if hy >= grid_cap:
            continue
        for x in range(-xbound, xbound + 1):
            hx = (2 * k * x) ** 2
            if hy + hx >= grid_cap:
                continue
            w = hy - hx
            for tot, cnt in extra.items():
                l = hy + hx + tot
                if l < grid_cap:
                    out[l] = out.get(l, 0) + w * cnt
    return {l: v for l, v in out.items() if v}


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_eq2_series_matches_lattice_sum(s, k):
    T = 8
    f0 = theta_f(k, 0, T)
    f1 = theta_f(k, 1, T)
    series = mul(
        power(f0, s),
        linear_combine(mul(f0, euler_scaled(f1)),
                       mul(euler_scaled(f0), f1), 1, -1),
    )
    grid_cap = len(series.coeffs)
    oracle = eq2_double_sum(s, k, grid_cap)
    for e in range(grid_cap):
        assert series.coeff_index(e) == oracle.get(e, 0)


# -- sweeps ----------------------------------------------------------------

def test_crossover_scan_no_sign_change_small():
    res = crossover_scan(1, 8, 480)
    assert res.first_negative is None
    assert all(r.beta1 > 0 and r.beta2 > 0 for r in res.rows)


def test_crossover_scan_matches_direct_profiles():
    # the runs start in every nu class, two of them at mu = 0 (n = 8, 16),
    # so each chunk start meets both oracles.  profile reads the betas off
    # the full b-list and the scan off the tail chunk, both through _b_at;
    # matching_b_list and the definition oracle share no code with either
    ks = range(1, 7)
    for n_from in (8, 16, 96, 104, 136):
        ns = range(n_from, n_from + 25, 8)
        scans = {k: crossover_scan(k, ns[0], ns[-1]).rows for k in ks}
        for i, n in enumerate(ns):
            excess = extremal_excess(n, ks)
            for k in ks:
                row, p = scans[k][i], profile(n, k)
                assert p.b == matching_b_list(n, k, 2)
                assert (row.n, row.beta1, row.beta2) == (n, p.beta1, p.beta2)
                assert (row.beta1, row.beta2) == excess[k]


def test_crossover_scan_worker_determinism():
    seq = crossover_scan(1, 8, 248, workers=1)
    par = crossover_scan(1, 8, 248, workers=4)
    assert [(r.n, r.beta1, r.beta2) for r in seq.rows] == \
        [(r.n, r.beta1, r.beta2) for r in par.rows]


def test_crossover_k1_first_negative_beta2():
    # checks only 10120..10192: beta2 is positive up to 10144, negative at
    # 10152 and positive again at 10160, so the sign oscillates at onset.
    # Lower k=1 lengths are covered by
    # test_crossover_scan_no_sign_change_small (8..480) and acceptance
    # criterion 5 (4800..5608); the rest of 8..10144 only by offline exact
    # scans (see CHANGES.md), which make 10152 the earliest k=1 length
    res = crossover_scan(1, 10120, 10192,
                         workers=min(8, os.cpu_count() or 1))
    assert res.first_negative == 10152
    signs = {r.n: r.beta2 > 0 for r in res.rows}
    assert signs[10144] and not signs[10152] and signs[10160]


@pytest.mark.parametrize("k", [4, 6])
def test_theorem1_sweep_worker_determinism(k):
    # k = 4 has the integer coset r = 0 (i = 4)
    assert theorem1_sweep(k, 480, workers=1) == \
        theorem1_sweep(k, 480, workers=2)


def test_theorem1_sweep_matches_per_n_ops():
    for k in range(1, 7):
        for row in theorem1_sweep(k, 480):
            mu = row.n // 24
            assert row.beta1 == beta_stars(row.n, k)[0]
            assert row.beta1 == -matching_b_list(row.n, k, 1)[mu + 1]
            assert row.positivity == positivity_certificate(row.n, k).verdict
