import math
import os
import random
from fractions import Fraction

import pytest

from conftest import (binary_power, bracket_b_list, brute_theta1,
                      dense_f_bracket, eq3_value, expand_u, extremal_excess,
                      extremal_theta, lattice_certificate, matching_b_list,
                      padded_certificate, theta_v, w_powers)
from zktheta import extremal
from zktheta.errors import GridViolation, InvalidLength, OutOfTruncation
from zktheta.extremal import (
    _verdict,
    b_coefficients,
    beta_stars,
    crossover_scan,
    profile,
    shape,
    theorem1_sweep,
)
from zktheta.modforms import h_series, theta_f
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
    assert b_coefficients(8, 1)[:2] == [1, -224]
    assert b_coefficients(8, 2)[:2] == [1, -240]
    assert b_coefficients(24, 1)[:2] == [1, -672]


def test_b_leading_is_one():
    for n, k in [(8, 1), (48, 3), (120, 6)]:
        assert b_coefficients(n, k)[0] == 1


def test_burmann_agrees_small():
    assert matching_b_list(8, 1, 2) == b_coefficients(8, 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_burmann_agrees_sweep(k):
    # n = 408 (mu = 17) through b_{2(mu+2)} walks offsets d = s - 1 = 0..18, a
    # span of 19, so m = isqrt(38) = 6: the giant steps by w^6 at s = 7, 13
    # and 19, and the list ends on that freshly stepped giant
    for n in [*range(24, 241, 24), 408]:
        assert matching_b_list(n, k, 2) == b_coefficients(n, k)


def test_beta_examples():
    assert beta_stars(8, 1) == (224, 2048)
    assert beta_stars(8, 2)[0] == 240
    b = b_coefficients(24, 1)
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
    assert th.coeffs[1] == 16 + 224


def test_extremal_theta_matches_theta0_prefix():
    n, k = 24, 1
    th = extremal_theta(n, k, 6)
    th0 = power(FracSeries(1, 6, brute_theta1(k, 6)), 3)
    for e in range(2):
        assert th.coeffs[e] == th0.coeffs[e]


def test_extremal_theta_precision_guard():
    with pytest.raises(ValueError, match=r"need T > mu\+2"):
        extremal_theta(24, 1, 3)


@pytest.mark.parametrize("n,k", [(48, 1), (48, 6), (120, 3), (240, 2)])
def test_assembly_consistency(n, k):
    _, mu, _ = shape(n)
    T = mu + 4
    th = extremal_theta(n, k, T)
    th0 = power(FracSeries(1, T, brute_theta1(k, T)), n // 8)
    beta1, beta2 = beta_stars(n, k)
    for e in range(mu + 1):
        assert th.coeffs[e] == th0.coeffs[e]
    assert th.coeffs[mu + 1] - th0.coeffs[mu + 1] == beta1
    assert th.coeffs[mu + 2] - th0.coeffs[mu + 2] == beta2


def test_b_integrality():
    for n, k in [(48, 1), (96, 4), (240, 6)]:
        for b in b_coefficients(n, k):
            assert isinstance(b, int)


# -- positivity certificate -------------------------------------------------

def _whole_window(n, k):
    """The whole-window _verdict at length n, factors cut at mu + 2."""
    f0c, cert = extremal._certificate_factors(k, n // 24 + 2)
    return _verdict(power(f0c, 8 * (n // 8 - 1)), cert, k, [-1] * (k + 1),
                    n // 24)


def test_positivity_examples():
    assert all(r.positivity for r in theorem1_sweep(1, 24))
    assert theorem1_sweep(6, 48)[-1].positivity
    assert theorem1_sweep(1, 8)[0].positivity  # mu = 0 edge case


def test_positivity_report_fields():
    # (verdict, head, held): every layer holds through its window top, mu + 1
    # on the head layer and on the integer coset (i = 4 at k = 4, r = 0), mu
    # on the others
    assert _whole_window(48, 4) == (True, True, [3, 2, 2, 2, 3])
    # the window runs through exponent mu + 1, so at mu = 0 it reads f_1's
    # slot 0, at t^(1/4)
    assert _whole_window(8, 1) == (True, True, [1, 0])


def test_positivity_matches_padded_oracle():
    # the coset form against the dense 1/(4k)-grid construction; at k = 8, 9
    # the leading slot of f_k lies past the window for n = 8, 16
    cases = [(k, 240) for k in range(1, 7)] + [(8, 96), (9, 96)]
    for k, n_max in cases:
        for row in theorem1_sweep(k, n_max):
            assert row.positivity == padded_certificate(row.n, k), (row.n, k)


def test_positivity_k8_leading_slot_past_window():
    # f_k's leading exponent k^2/4k = k/4 lies past the window mu + 1 at
    # small n for k >= 8; its coefficient w_i * i^2 (w_k = 2, else 1) is
    # positive by construction, so the verdict is True
    for n, k in ((8, 8), (16, 9), (24, 12)):
        assert theorem1_sweep(k, n)[-1].positivity, (n, k)
    for k in (8, 9):
        D = 4 * k
        assert all(r.positivity for r in theorem1_sweep(k, 48)), k
        for n in range(8, 49, 8):
            # dense in v = t^(1/4k), cut just past the last leading slot
            T = k * k // D + 1
            f0 = theta_v(k, 0, T)
            f0pow = binary_power(f0, n - 1)
            for i in range(1, k + 1):
                fi = theta_v(k, i, T)
                layer = mul(f0pow, linear_combine(
                    mul(f0, euler_scaled(fi)), mul(euler_scaled(f0), fi),
                    1, -1))
                terms = layer.nonzero_terms()
                assert terms[0] == (i * i, (2 if i == k else 1) * i * i)


def test_positivity_small_n_matches_lattice_points():
    # k = 8, 9 at n <= 48, where f_k's leading slot can lie past the
    # window, and k = 1..3, where the head and f-layers sum many points: the
    # sweep's verdicts against lattice_certificate and the whole window
    for k, n_max in ((1, 24), (2, 24), (3, 24), (8, 48), (9, 48)):
        for row in theorem1_sweep(k, n_max):
            assert row.positivity == lattice_certificate(row.n, k), (row.n, k)
            assert row.positivity == _whole_window(row.n, k)[0], (row.n, k)


def test_f_bracket_off_coset_raises(monkeypatch):
    # an extra t^(2/8) in f_1 at k = 2 puts bracket weight on the coset 2/8,
    # not on r = 1/8 where f_1 lives
    real = extremal.theta_terms

    def skewed(k, i, T):
        return sorted(real(k, i, T) + [(2, 1)]) if i == 1 else real(k, i, T)

    monkeypatch.setattr(extremal, "theta_terms", skewed)
    f0c = extremal._theta0(2, 4)
    with pytest.raises(GridViolation):
        extremal._f_bracket(2, 1, f0c, 4)
    monkeypatch.undo()
    assert extremal._f_bracket(2, 1, f0c, 4)[0] == 1


def _theta_f_calls(monkeypatch, run):
    """The index i of every f_i that run() builds: every theta_terms call,
    which theta_f makes too through its own binding, so both bindings are
    watched."""
    from zktheta import modforms

    calls, real = [], modforms.theta_terms

    def counted(k, i, T):
        calls.append(i)
        return real(k, i, T)

    monkeypatch.setattr(modforms, "theta_terms", counted)
    monkeypatch.setattr(extremal, "theta_terms", counted)
    run()
    monkeypatch.undo()
    return calls


def test_certificate_factors_build_f0_once(monkeypatch):
    # theta1, f0^7 and every f-bracket come from one f0
    for k in (1, 3, 6):
        calls = _theta_f_calls(
            monkeypatch, lambda: extremal._certificate_factors(k, 12))
        assert calls.count(0) == 1 and sorted(calls) == list(range(k + 1))


def test_tail_chunk_builds_f0_once(monkeypatch):
    # the bracket's theta1, theta1^(j-1), the step and Q_nu all come from
    # one f0, on the one-length route and on the walk
    for k, run in ((2, [2400]), (2, [2400, 2408, 2416]), (1, [552]),
                   (6, [96, 104])):
        calls = _theta_f_calls(monkeypatch,
                               lambda: extremal._tail_chunk(k, run))
        assert calls == [0], (k, run)
    assert _theta_f_calls(monkeypatch, lambda: beta_stars(2400, 2)) == [0]


def test_f_bracket_matches_dense_grid_oracle():
    # lattice-term pairs against the bracket formed densely in t^(1/4k),
    # slot for slot, including the cut at T
    for k in range(1, 10):
        for i in range(1, k + 1):
            for T in (1, 2, 5, 30):
                r, b = extremal._f_bracket(k, i, extremal._theta0(k, T), T)
                want_r, want = dense_f_bracket(k, i, T)
                assert (r, b.D, b.T, b.coeffs) == \
                    (want_r, want.D, want.T, want.coeffs), (k, i, T)


def test_theta0_is_f0_on_its_coset():
    # f0(t) = f0c(t^k), and f0c is Jacobi's theta3 whatever k is
    for k in range(1, 7):
        for T in (1, 2, 7, 30):
            (r, f0), f0c = theta_f(k, 0, T), extremal._theta0(k, T)
            assert r == 0 and f0c.T == -(-T // k)
            assert expand_u(f0c, k).coeffs[:T] == f0.coeffs
            assert f0c.coeffs == theta_f(1, 0, f0c.T)[1].coeffs


@pytest.mark.parametrize("k", range(1, 7))
def test_coset_product_and_strided_dot_match_expanded(monkeypatch, k):
    # X(t) = xc(t^k) times a dense z against mul and the plain dot on the
    # expanded X.  The windows put ns/k below and above the Karatsuba gate
    # of 128 slots, with ns off a multiple of k, and xc cut at, past and
    # short of ceil(ns/k); each residue class clears the gate on its own.
    # Operands of 400 bits are too wide for Kronecker, so Karatsuba runs
    # exactly past the gate; operands of 20 bits take Kronecker on both
    # sides of it
    from zktheta import series
    kernels = {name: [] for name in ("_short", "_kronecker")}

    def spy(name):
        real = getattr(series, name)

        def kernel(x, y, n):
            kernels[name].append(n)
            return real(x, y, n)
        return kernel

    rng = random.Random(k)
    for bits in (400, 20):
        def draw(m):
            return [rng.choice((-1, 1)) * rng.getrandbits(bits)
                    for _ in range(m)]

        for ns in (60 * k + k // 2, 200 * k + k - 1):
            z = FracSeries(1, ns, draw(ns))
            for tx in (-(-ns // k), -(-ns // k) + 3, ns // k - 2):
                xc = FracSeries(1, tx, draw(tx))
                want = mul(expand_u(xc, k), z)
                for name in kernels:
                    monkeypatch.setattr(series, name, spy(name))
                got = extremal._coset_mul(xc, z, k)
                monkeypatch.undo()
                assert (got.T, got.coeffs) == (want.T, want.coeffs), (ns, tx)
                if bits == 400:
                    assert bool(kernels["_short"]) == (ns // k > 128), \
                        (ns, tx)
                    assert not kernels["_kronecker"], (ns, tx)
                else:
                    assert kernels["_kronecker"] and not kernels["_short"], \
                        (ns, tx)
                for calls in kernels.values():
                    calls.clear()
                for e in [*range(0, len(want.coeffs), 7),
                          len(want.coeffs) - 1]:
                    dot = extremal._coeff_of_product(xc, z, e, k)
                    assert dot == want.coeffs[e] == \
                        extremal._coeff_of_product(expand_u(xc, k), z, e), e


@pytest.mark.parametrize("k", range(1, 7))
def test_theta_h_matches_miller_powers(k):
    # the eta-quotient recurrence against f0^a by Miller over f0c, times
    # h^b, on windows from one slot to the scan's 236; (24mu, mu+1) is the
    # walk's giant theta1^(3mu) * h^(mu+1)
    pairs = [(0, 0), (0, 1), (8, 0), (24, 1), (216, 10), (4800, 201)]
    for T in (1, 2, 17, 61, 236):
        for a, b in pairs:
            want = extremal._coset_mul(power(extremal._theta0(k, T), a),
                                       h_series(T, b), k)
            got = extremal._theta_h(k, a, b, T)
            assert (got.D, got.T, got.coeffs) == \
                (want.D, want.T, want.coeffs), (T, a, b)


def test_theta_h_checks_each_division(monkeypatch):
    # one wrong sigma1 at slot 5 makes 5 * H_5 off a multiple of 5
    from zktheta.modforms import _eisenstein

    def bent(T, c, p):
        return FracSeries(1, T, [c + (e == 5) for e, c in
                                 enumerate(_eisenstein(T, c, p).coeffs)])

    monkeypatch.setattr(extremal, "_eisenstein", bent)
    assert extremal._theta_h(1, 24, 1, 5).coeffs == \
        extremal._coset_mul(power(extremal._theta0(1, 5), 24),
                            h_series(5), 1).coeffs
    with pytest.raises(ArithmeticError):
        extremal._theta_h(1, 24, 1, 6)


def _hand_layers(mu, edit=None, k=4, T=None):
    """_verdict's arguments for hand-built positive layers cut at T
    (default mu + 2), with theta1^(j-1) = 1.

    The head layer is 0, 5, 5, ...; the f-layer i sits on the coset
    r = i^2 mod 4k, with 7 from its leading slot i^2 // 4k on (at k = 4 the
    cosets 1, 4, 9, 0 and leading slots 0, 0, 0, 1); edit maps (i, slot) to
    a replacement coefficient, layer 0 being the head.
    """
    T = T or mu + 2
    D = 4 * k
    layers = [[0] + [5] * (T - 1)]
    for i in range(1, k + 1):
        layers.append([0] * (i * i // D) + [7] * (T - i * i // D))
    for (i, slot), c in (edit or {}).items():
        layers[i][slot] = c
    cert = (FracSeries(1, T, layers[0]),
            [(i * i % D, FracSeries(1, T, c))
             for i, c in enumerate(layers[1:], start=1)])
    return FracSeries.constant(1, T), cert, k, [-1] * (k + 1), mu


def _hand_verdict(*args, **kwargs):
    """The verdict of _verdict on _hand_layers."""
    return _verdict(*_hand_layers(*args, **kwargs))[0]


def test_verdict_reports_head_layer():
    # head is the head layer alone: an f-layer failure leaves it True
    mu = 3
    assert _verdict(*_hand_layers(mu))[1]
    assert not _verdict(*_hand_layers(mu, {(0, 2): 0}))[1]
    assert not _verdict(*_hand_layers(mu, {(0, mu + 1): -1}))[1]
    assert _verdict(*_hand_layers(mu, {(4, mu + 1): -1}))[:2] == \
        (False, True)
    # slots at or below a layer's held prefix are not read
    assert _verdict(*_hand_layers(mu, {(0, 2): 0})[:3], [2] * 5, mu)[1]


def test_positivity_failing_branches():
    mu = 3
    assert _hand_verdict(mu)
    # r = 0: slot mu + 1 is the exponent mu + 1, inside the window
    assert not _hand_verdict(mu, {(4, mu + 1): -1})
    # r = 1: slot mu + 1 is the exponent mu + 1 + 1/16, outside the window
    assert _hand_verdict(mu, {(1, mu + 1): -1})
    # a non-positive leading coefficient at slot i^2 // 16
    assert not _hand_verdict(mu, {(4, 1): 0})
    assert not _hand_verdict(mu, {(2, 0): -3})
    # a positive slot past the leading one on the coset 9/16 + Z holds
    assert _hand_verdict(mu, {(3, 2): 2})
    # a zero f-layer slot past the leading one holds, a zero head slot fails
    assert _hand_verdict(mu, {(3, 2): 0})
    assert not _hand_verdict(mu, {(0, 2): 0})
    # k = 8, mu = 0: f_8's leading slot 64 // 32 = 2 (exponent 2) lies past
    # the window t^0..t^1, so a non-positive value there is not read
    assert _hand_verdict(0, {(8, 2): -1}, k=8, T=3)
    assert not _hand_verdict(2, {(8, 2): -1}, k=8)


def test_cut_factors_raise_out_of_truncation():
    # the window reads through t^(mu + 1), so every factor must be kept
    # above it, whatever the held prefixes; _b_at reads t^s
    for held in ([-1] * 5, [4] * 5):
        with pytest.raises(OutOfTruncation):
            _verdict(*_hand_layers(3, T=4)[:3], held, 3)
    x = FracSeries.constant(1, 3)
    with pytest.raises(OutOfTruncation):
        extremal._b_at(x, x, 3)


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
    f0 = theta_v(k, 0, T)
    f1 = theta_v(k, 1, T)
    series = mul(
        power(f0, s),
        linear_combine(mul(f0, euler_scaled(f1)),
                       mul(euler_scaled(f0), f1), 1, -1),
    )
    grid_cap = len(series.coeffs)
    oracle = eq2_double_sum(s, k, grid_cap)
    for e in range(grid_cap):
        assert series.coeffs[e] == oracle.get(e, 0)


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


def test_e6_form_matches_bracket_form_oracle():
    # b_coefficients, one-length tails and a walked run (mu = 0..200)
    # against the bracket form, whose division by s the oracle asserts
    # exact; every nu class, at mu = 0 and at mu = 200
    ns = (8, 16, 24, 96, 104, 136, 4800)
    wpows = w_powers(4800 // 24 + 3)
    for k in range(1, 7):
        walked = extremal._tail_chunk(k, list(ns))
        for n, row in zip(ns, walked):
            want = bracket_b_list(n, k, 2, wpows)
            assert b_coefficients(n, k) == want, (n, k)
            assert row == (n, *want[-2:]) == \
                extremal._tail_chunk(k, [n])[0], (n, k)


def test_b_paths_never_form_the_theta_bracket(monkeypatch):
    # the b-list and the tail b's take the E6 form; only the certificate
    # forms the bracket
    def banned(*args):
        raise AssertionError("called _theta_bracket")

    monkeypatch.setattr(extremal, "_theta_bracket", banned)
    for k in (1, 2, 6):
        b_coefficients(480, k)
        extremal._tail_chunk(k, [480])
        extremal._tail_chunk(k, [480, 488, 496, 504])
    with pytest.raises(AssertionError):
        _whole_window(480, 2)


def _giant_ends(monkeypatch, run):
    """run(), and the first (r = 0) and last (r = m - 1) offset d = mu - mu0
    read off each giant of _walk; the run must read at least three giants,
    with at least three offsets on the first."""
    real, giants = extremal._walk, []

    def spy(build, step, factors, keyed):
        for (d, _), item in zip(keyed, real(build, step, factors, keyed)):
            if not giants or giants[-1][0] is not item[0]:
                giants.append((item[0], []))
            giants[-1][1].append(d)
            yield item

    monkeypatch.setattr(extremal, "_walk", spy)
    result = run()
    monkeypatch.undo()
    assert len(giants) >= 3 and len(set(giants[0][1])) >= 3
    return result, {mus[i] for _, mus in giants for i in (0, -1)}


def test_crossover_scan_giant_steps(monkeypatch):
    # runs over 29 values of mu, starting in each nu class: every row
    # against profile.  profile's full b-list walks the same _walk, so the
    # independent checks sit at the ends of every giant: the definition
    # oracle for the betas and matching_b_list for profile's b-list
    for n_from in (8, 104, 136):
        excess = {}
        for k in range(1, 7):
            res, ends = _giant_ends(
                monkeypatch, lambda: crossover_scan(k, n_from, n_from + 664))
            assert [r.n for r in res.rows] == \
                list(range(n_from, n_from + 665, 8))
            for r in res.rows:
                p = profile(r.n, k)
                assert (r.beta1, r.beta2) == (p.beta1, p.beta2), (k, r.n)
                if r.n // 24 - n_from // 24 in ends:
                    if r.n not in excess:
                        excess[r.n] = extremal_excess(r.n, range(1, 7))
                    assert (r.beta1, r.beta2) == excess[r.n][k], (k, r.n)
                    assert p.b == matching_b_list(r.n, k, 2), (k, r.n)


@pytest.mark.parametrize("k", (1, 2, 6))
def test_tail_walk_builds_each_giant_read_once(monkeypatch, k):
    # each giant the walk reads is one _theta_h call at or below the first
    # mu read off it, and no giant is built between two gapped lengths (two
    # giants for [480, 4800], one per mu at m = 1 for 4800..4992); every power
    # taken on the way is of a lacunary series (f0c, P).  Rows against the
    # one-length route
    from zktheta import modforms
    built, powers, read = [], [], []
    real_theta_h, real_walk = extremal._theta_h, extremal._walk

    def theta_h(k, a, b, T):
        built.append((a, b))
        return real_theta_h(k, a, b, T)

    def walk(giants, step, factors, keyed):
        for (d, _), item in zip(keyed, real_walk(giants, step, factors,
                                                 keyed)):
            if not read or read[-1][1] is not item[0]:
                read.append((d, item[0]))
            yield item

    def spy_power(real):
        def counted(a, m):
            powers.append((len(a.coeffs), len(a.nonzero_terms())))
            return real(a, m)
        return counted

    for run, giants in (([480, 4800], 2), (list(range(4800, 4993, 8)), 9)):
        for log in (built, powers, read):
            log.clear()
        monkeypatch.setattr(extremal, "_theta_h", theta_h)
        monkeypatch.setattr(extremal, "_walk", walk)
        monkeypatch.setattr(extremal, "power", spy_power(extremal.power))
        monkeypatch.setattr(modforms, "power", spy_power(modforms.power))
        rows = extremal._tail_chunk(k, run)
        monkeypatch.undo()
        mu0, gs = run[0] // 24, [b - 1 for _, b in built]
        assert len(read) == len(built) == giants, run
        assert built == [(24 * g, g + 1) for g in gs] and gs == sorted(gs)
        assert all(mu0 <= g <= mu0 + d for g, (d, _) in zip(gs, read))
        assert powers and all(2 * nz <= ns for ns, nz in powers), powers
        for n in (run[0], run[-1]):
            assert rows[run.index(n)] == _one_length(monkeypatch, k, n)[0]


def _no_walk(monkeypatch, run):
    """run(), which must not call _walk."""
    def walk(*args):
        raise AssertionError("called _walk")

    monkeypatch.setattr(extremal, "_walk", walk)
    try:
        return run()
    finally:
        monkeypatch.undo()


def test_theorem1_sweep_walks_no_giant(monkeypatch):
    # beta1 > 0 comes off the head layer; every row against beta_stars is
    # test_theorem1_sweep_matches_per_n_ops
    for k in range(1, 7):
        rows = _no_walk(monkeypatch, lambda: theorem1_sweep(k, 480))
        assert [r.n for r in rows] == list(range(8, 481, 8))
        assert all(r.beta1_positive for r in rows)


def test_head_layer_implies_beta1_positive():
    # the implication the sweep rests on, at every length n <= 480: the
    # whole-window head layer holds everywhere here, and beta1 > 0 by
    # coefficient matching, and by the definition oracle at sampled lengths
    ks = (1, 2, 3, 4, 5, 6, 8, 9)
    sampled = set(range(8, 481, 56)) | {480}
    excess = {n: extremal_excess(n, ks) for n in sampled}
    for k in ks:
        f0c, cert = extremal._certificate_factors(k, 22)
        for n in range(8, 481, 8):
            mu = n // 24
            head = _verdict(power(f0c, 8 * (n // 8 - 1)), cert, k,
                            [-1] * (k + 1), mu)[1]
            assert head, (k, n)
            assert -matching_b_list(n, k, 1)[mu + 1] > 0, (k, n)
            if n in sampled:
                assert excess[n][k][0] > 0, (k, n)


def _one_length(monkeypatch, k, n):
    """_tail_chunk(k, [n]), which must not call _walk."""
    return _no_walk(monkeypatch, lambda: extremal._tail_chunk(k, [n]))


@pytest.mark.parametrize("k", range(1, 7))
def test_one_length_tail_matches_baby_step_giant_step(monkeypatch, k):
    # a one-length run takes the lacunary powers; the two-length runs that
    # contain n call _walk.  Every nu class, at small mu and at mu = 100
    for pair in ((8, 16), (16, 24), (24, 32), (2400, 2408), (2408, 2416)):
        walked = extremal._tail_chunk(k, list(pair))
        for n, row in zip(pair, walked):
            assert _one_length(monkeypatch, k, n) == [row], (k, n)


def test_one_length_tail_matches_baby_step_giant_step_large(monkeypatch):
    # mu = 500, where the giant of a two-length run is a big dense power
    walked = extremal._tail_chunk(6, [12000, 12008])[0]
    assert _one_length(monkeypatch, 6, 12000) == [walked]


def test_crossover_scan_worker_determinism():
    seq = crossover_scan(1, 8, 248, workers=1)
    par = crossover_scan(1, 8, 248, workers=4)
    assert [(r.n, r.beta1, r.beta2) for r in seq.rows] == \
        [(r.n, r.beta1, r.beta2) for r in par.rows]


def test_worker_pool_capped_at_cpu_count(in_process_pool):
    """--workers above the CPU count keeps its runs but not its processes."""
    sizes = in_process_pool
    cpus = os.cpu_count() or 1
    workers = cpus + 2
    # 2 * workers lengths: `workers` runs of two, more runs than CPUs
    par = crossover_scan(1, 8, 16 * workers, workers=workers)
    assert sizes == [cpus]
    assert par.rows == crossover_scan(1, 8, 16 * workers, workers=1).rows


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
    # the one-run sweep against the per-n operations (beta_stars and the
    # whole-window _verdict at each length), then against it: runs
    # starting in every nu class, each spanning two values of mu, and a
    # three-worker sweep, whose runs start at n = 8, 168 and 328.  For
    # k = 7, 8, 9 the f_1 layer fails at 11, 21, 21 of the 60 lengths, while
    # the other layers hold
    for k in range(1, 10):
        rows = theorem1_sweep(k, 480)
        for row in rows:
            assert row.beta1_positive == (beta_stars(row.n, k)[0] > 0)
            assert row.positivity == _whole_window(row.n, k)[0]
        for n_from in (96, 104, 136):
            ns = range(n_from, n_from + 25, 8)
            assert extremal._theorem1_chunk(k, list(ns)) == \
                [rows[n // 8 - 1] for n in ns]
        assert theorem1_sweep(k, 480, workers=3) == rows


def _edited_factors(edits):
    """_certificate_factors with edits[(layer, slot)] added to a factor,
    layer 0 being the head bracket and i the f-layer of f_i."""
    real = extremal._certificate_factors

    def edited(k, T):
        f0c, (bracket, fparts) = real(k, T)
        layers = [bracket] + [f for _, f in fparts]
        for (i, slot), c in edits.items():
            coeffs = list(layers[i].coeffs)
            coeffs[slot] += c
            layers[i] = FracSeries(1, T, coeffs)
        return f0c, (layers[0],
                     [(r, f) for (r, _), f in zip(fparts, layers[1:])])

    return edited


@pytest.mark.parametrize("k,edits,flip", [
    # the head slot 12 enters the window at mu = 11, and from there the
    # head layer fails
    (2, {(0, 12): -math.lcm(*range(1, 22)) * 10 ** 30}, (True, False)),
    # slot 12 of an f-layer enters at mu = 12 on the coset 1/8 + Z ...
    (2, {(1, 12): -10 ** 40}, (True, False)),
    # ... and at mu = 11 on the integer coset (i = 4)
    (4, {(4, 12): -10 ** 40}, (True, False)),
    # [t^1] = 16 - 100 + 32*(j - 1) on the f_1 layer: negative at first,
    # positive from j = 4; the verdict goes False -> True more than once
    (1, {(1, 1): -100}, (False, True)),
])
def test_theorem1_chunk_matches_full_certificate(monkeypatch, k, edits, flip):
    """Every length's verdict equals a whole-window _verdict, with
    certificate factors edited so it fails and recovers: edits adds a value
    at (layer, slot), layer 0 being the head bracket and i the f-layer of
    f_i.  beta_stars runs at exactly the lengths whose whole-window head
    layer fails, and their rows match coefficient matching."""
    edited = _edited_factors(edits)
    real_stars, called = extremal.beta_stars, []

    def stars(n, k):
        called.append(n)
        return real_stars(n, k)

    monkeypatch.setattr(extremal, "_certificate_factors", edited)
    monkeypatch.setattr(extremal, "beta_stars", stars)
    ns = list(range(8, 481, 8))
    f0c, cert = edited(k, 22)
    full = [extremal._verdict(power(f0c, 8 * (n // 8 - 1)), cert, k,
                              [-1] * (k + 1), n // 24)
            for n in ns]
    verdicts = [v[0] for v in full]
    assert flip in zip(verdicts, verdicts[1:])
    rows = extremal._theorem1_chunk(k, ns)
    assert [r.positivity for r in rows] == verdicts
    assert called == [n for n, v in zip(ns, full) if not v[1]]
    assert bool(called) == ((0, 12) in edits)
    for r in rows:
        if r.n in called:
            assert r.beta1_positive == \
                (-matching_b_list(r.n, k, 1)[r.n // 24 + 1] > 0), r.n
        else:
            assert r.beta1_positive


def _spy_reads(monkeypatch):
    """Log, in order, ("dot", layer factor, slot) for each slot the sweep
    reads, ("mul",) for each series product, ("power",) for each series
    power and ("row", n) as each length's row is made."""
    log = []
    real_dot, real_mul, real_power, real_row = extremal._coeff_of_product, \
        extremal.mul, extremal.power, extremal.Theorem1Row

    def dot(x, y, e, k):
        log.append(("dot", y, e))
        return real_dot(x, y, e, k)

    def mul(a, b):
        log.append(("mul",))
        return real_mul(a, b)

    def power(a, m):
        log.append(("power",))
        return real_power(a, m)

    def row(n, *rest):
        log.append(("row", n))
        return real_row(n, *rest)

    monkeypatch.setattr(extremal, "_coeff_of_product", dot)
    monkeypatch.setattr(extremal, "mul", mul)
    monkeypatch.setattr(extremal, "power", power)
    monkeypatch.setattr(extremal, "Theorem1Row", row)
    return log


def test_theorem1_chunk_reads_only_new_slots(monkeypatch):
    # k = 6 holds at every length to 2400: a length whose window adds no
    # slot makes no dot, product or power, and each new mu takes
    # theta1^(j-1) as one power of f0 and reads one new slot per layer (the
    # per-run factors are built before the first row)
    log = _spy_reads(monkeypatch)
    rows = extremal._theorem1_chunk(6, list(range(8, 2401, 8)))
    monkeypatch.undo()
    assert all(r.positivity and r.beta1_positive for r in rows)
    per_n, work = {}, []
    for event in log:
        if event[0] == "row":
            per_n[event[1]] = work
            work = []
        else:
            work.append(event[0])
    for n, work in per_n.items():
        if n == 8:
            continue
        if n // 24 == (n - 8) // 24:
            assert work == [], n
        else:
            assert work == ["power"] + ["dot"] * 7, n


def test_theorem1_chunk_rereads_only_failing_layer(monkeypatch):
    # with the f_1 edit of test_theorem1_chunk_matches_full_certificate the
    # f_1 layer fails at several lengths, first at slot 1, later at slots 2
    # and 3: each failing length re-reads f_1 from its first failing slot
    # on, so a slot of f_1 is read once more per length whose first failure
    # it was; the head layer, which holds throughout, reads each slot once
    monkeypatch.setattr(extremal, "_certificate_factors",
                        _edited_factors({(1, 1): -100}))
    f0c, cert = extremal._certificate_factors(1, 22)
    ns = list(range(8, 481, 8))
    full = [_verdict(power(f0c, 8 * (n // 8 - 1)), cert, 1, [-1, -1],
                     n // 24) for n in ns]
    log = _spy_reads(monkeypatch)
    rows = extremal._theorem1_chunk(1, ns)
    monkeypatch.undo()
    assert [r.positivity for r in rows] == [v[0] for v in full]
    want = {(0, e): 1 for e in range(1, 22)}
    want.update({(1, s): 1 for s in range(21)})
    firsts = [v[2][1] + 1 for v in full if not v[0]]
    assert all(v[1] for v in full) and sorted(set(firsts)) == [1, 2, 3]
    for s in firsts:
        want[1, s] += 1
    reads = {}
    for event in log:
        if event[0] == "dot":
            layer = 0 if event[1] == cert[0] else 1
            reads[layer, event[2]] = reads.get((layer, event[2]), 0) + 1
    assert reads == want
