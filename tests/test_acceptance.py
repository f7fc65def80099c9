"""Acceptance gate: one test per criterion, one printed verdict per test.

Each test records "criterion N: PASS/FAIL — detail" (echoed in the terminal
summary) and then asserts.  Criterion 5 places the first sign change of beta2
relative to [4800, 5608]: beta2 > 0 on every length of that window for
k = 1..6, so the least n with beta2 < 0 lies beyond it.  The scan's rows at
both ends of the window are checked against `conftest.extremal_excess`, which
builds the extremal series from its definition without zktheta code.  The
paper's theorem is asymptotic ("sufficiently large n", k = 2..6) and gives no
window; the per-k values are part of the verdict line.
"""

import os
import random
import time
import mpmath as mp

import conftest
from conftest import (F_at, brute_theta1, eq3_value, extremal_excess,
                      extremal_theta, matching_b_list, on_v_grid, qp_F,
                      theta_v, uncancelled_g_ratio)
from zktheta.asymptotics import find_saddle, predicted_ratio_limit, ratio_report
from zktheta.codes import search_c8, theta_cosets, theta_substitution, verify_type2
from zktheta.extremal import (
    b_coefficients,
    beta_stars,
    crossover_scan,
    shape,
    theorem1_sweep,
)
from zktheta.modforms import eisenstein_e4, h_series
from zktheta.series import FracSeries, euler_scaled, linear_combine, mul, power

WORKERS = min(8, os.cpu_count() or 1)


def record(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {verdict} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_e4_expansion():
    coeffs = eisenstein_e4(5).coeffs
    ok = coeffs == [1, 240, 2160, 6720, 17520]
    record(1, ok, f"E4 coefficients {tuple(coeffs)}")


def test_criterion_2_two_path_b():
    t0 = time.time()
    bad = []
    for k in range(1, 7):
        for n in range(8, 241, 8):
            if b_coefficients(n, k) != matching_b_list(n, k, 2):
                bad.append((n, k))
    record(2, not bad and time.time() - t0 < 60,
           f"matching vs reversion extraction, n<=240, k<=6 "
           f"({time.time() - t0:.1f}s, mismatches: {bad or 'none'})")


def test_criterion_3_assembly_consistency():
    t0 = time.time()
    bad = []
    for k in range(1, 7):
        for n in range(8, 241, 8):
            _, mu, _ = shape(n)
            T = mu + 3
            th = extremal_theta(n, k, T)
            th0 = power(FracSeries(1, T, brute_theta1(k, T)), n // 8)
            beta1, beta2 = beta_stars(n, k)
            head_ok = all(th.coeff_index(e) == th0.coeff_index(e)
                          for e in range(mu + 1))
            tail_ok = (th.coeff_index(mu + 1) - th0.coeff_index(mu + 1) == beta1
                       and th.coeff_index(mu + 2) - th0.coeff_index(mu + 2) == beta2)
            if not (head_ok and tail_ok):
                bad.append((n, k))
    record(3, not bad and time.time() - t0 < 300,
           f"theta assembly head/excess, n<=240, k<=6 "
           f"({time.time() - t0:.1f}s, mismatches: {bad or 'none'})")


def test_criterion_4_theorem1_certificate():
    t0 = time.time()
    bad = []
    for k in range(1, 7):
        for row in theorem1_sweep(k, 2400, workers=WORKERS):
            if not (row.beta1_positive and row.positivity):
                bad.append((row.n, k))
    elapsed = time.time() - t0
    record(4, not bad and elapsed < 1800,
           f"beta1>0 and positivity certificate, n<=2400, k<=6 "
           f"({elapsed:.0f}s, failures: {bad or 'none'})")


def test_criterion_5_crossover_window():
    # Exact scans find beta2 > 0 on every length of [4800, 5608] for each k.
    # The definition oracle, itself checked on E8 (14 weight-4 words of the
    # Hamming code, 2^4 lifts each) and on the Niemeier lattice A1^24 (759
    # Golay octads, 2^8 lifts each), must give the same (beta1, beta2) on the
    # rows at both ends of the window; the lengths between rest on the scan.
    t0 = time.time()
    window = list(range(4800, 5609, 8))
    scans = {k: crossover_scan(k, 4800, 5608, workers=WORKERS)
             for k in range(1, 7)}
    found = {k: res.first_negative for k, res in scans.items()}
    positive = all([r.n for r in res.rows] == window
                   and all(r.beta2 > 0 for r in res.rows)
                   for res in scans.values())
    known = (extremal_excess(8, [1])[1][0] == 14 * 2 ** 4
             and extremal_excess(24, [1])[1][0] == 759 * 2 ** 8)
    pinned = {}
    for end in (0, -1):
        n = window[end]
        oracle = extremal_excess(n, range(1, 7))
        pinned[n] = all((res.rows[end].n, res.rows[end].beta1,
                         res.rows[end].beta2) == (n, *oracle[k])
                        for k, res in scans.items())
    elapsed = time.time() - t0
    record(5, positive and known and all(pinned.values()) and elapsed < 3600,
           f"beta2>0 on all {len(window)} lengths of [4800,5608] for k<=6, "
           f"so the least n with beta2<0 exceeds 5608 "
           f"({elapsed:.0f}s, per-k first negative: {found}; rows match the "
           f"definition oracle for every k at n=4800,5608: {pinned}, the "
           f"other lengths are checked by the scan alone; the k=1 crossover "
           f"is checked by test_crossover_k1_first_negative_beta2)")


def test_criterion_6_construction_a():
    t0 = time.time()
    bad = []
    for k in range(1, 7):
        code = search_c8(k)
        rep = verify_type2(code)
        # coset form {r: S_r}, theta = sum_r t^(r/4k) * S_r; laid out on
        # v = t^(1/4k) through the norm cap 8, v^(16k)
        sub = theta_substitution(code, 11)
        N = 16 * k + 1
        direct = on_v_grid(theta_cosets(code, 8), k, N)
        checks = (
            rep.is_type2
            and rep.d_E == 4 * k
            and sub == {0: eisenstein_e4(11)}
            and direct == on_v_grid(theta_substitution(code, 5), k, N)
            # min norm 2 -> t^1
            and next(x for x in range(1, N) if direct[x]) == 4 * k
        )
        if not checks:
            bad.append(k)
    elapsed = time.time() - t0
    record(6, not bad and elapsed < 300,
           f"length-8 Type II codes with theta = E4, d_E = 4k, min norm 2, "
           f"k<=6 ({elapsed:.1f}s, failures: {bad or 'none'})")


def test_criterion_7_saddle_data(tmp_path):
    sd = find_saddle(30)
    basic = sd.c2 > 0 and 0 < sd.y0 < 1
    # F'(y0) from the q-Pochhammer oracle, which rounds to the caller's
    # precision, so the difference is taken at 45 digits; at the default 15
    # it would be 0 near y0.  The functional equation is asked of _F
    with mp.workdps(45):
        h = mp.mpf("1e-12")
        deriv = (qp_F(sd.y0 + h, 40) - qp_F(sd.y0 - h, 40)) / (2 * h)
        stationary = abs(deriv) < mp.mpf("1e-12") * sd.c1
        y = mp.mpf("1.3")
        feq = abs(F_at(1 / y, 40) / (y ** -12 * F_at(y, 40)) - 1) < mp.mpf("1e-9")
    limit = predicted_ratio_limit(sd)
    # limit / c1 = E4(t0)^3 against the uncancelled finite-j G2/G1
    direct = uncancelled_g_ratio(sd.t0)
    two_paths = abs(direct / (limit / sd.c1) - 1) < mp.mpf("1e-8")
    close = abs(limit / 164000 - 1) < mp.mpf("0.05")
    if not close:
        # mandatory written discrepancy report with the exact-ratio trend
        rows = ratio_report(1, range(2400, 4801, 480))
        lines = ["n ratio threshold margin"]
        lines += [f"{r.n} {mp.nstr(r.ratio, 12)} {r.threshold} "
                  f"{mp.nstr(r.margin, 12)}" for r in rows]
        report = tmp_path / "ratio_discrepancy.txt"
        report.write_text(
            f"computed limit {mp.nstr(limit, 12)} vs quoted 1.64e5\n"
            + "\n".join(lines) + "\n")
        degraded = report.exists()
    ok = stationary and basic and feq and two_paths and (close or degraded)
    record(7, ok,
           f"saddle y0={mp.nstr(sd.y0, 10)}, |F'(y0)|/F(y0)<1e-12: {stationary}, "
           f"functional eq: {feq}, limit {mp.nstr(limit, 8)} vs 1.64e5 "
           f"(within 5%: {close}), uncancelled G2/G1 within 1e-8: {two_paths}")


def test_criterion_8_property_suites():
    t0 = time.time()
    # ring and Leibniz laws on random dense series
    rng = random.Random(0)
    laws = True
    for _ in range(120):
        a = FracSeries(1, 20, [rng.randint(-30, 30) for _ in range(12)])
        b = FracSeries(1, 20, [rng.randint(-30, 30) for _ in range(12)])
        c = FracSeries(1, 20, [rng.randint(-30, 30) for _ in range(12)])
        laws &= mul(a, b) == mul(b, a)
        laws &= mul(mul(a, b), c) == mul(a, mul(b, c))
        laws &= mul(a, linear_combine(b, c, 1, 1)) == \
            linear_combine(mul(a, b), mul(a, c), 1, 1)
        # t*(ab)' = a*(t*b') + (t*a')*b
        laws &= euler_scaled(mul(a, b)) == \
            linear_combine(mul(a, euler_scaled(b)), mul(euler_scaled(a), b),
                           1, 1)

    # lattice double-sum oracle for the derivative bracket
    from test_extremal import eq2_double_sum

    eq2 = True
    for s in range(4):
        for k in range(1, 4):
            f0, f1 = theta_v(k, 0, 8), theta_v(k, 1, 8)
            series = mul(power(f0, s),
                         linear_combine(mul(f0, euler_scaled(f1)),
                                        mul(euler_scaled(f0), f1), 1, -1))
            oracle = eq2_double_sum(s, k, len(series.coeffs))
            eq2 &= all(series.coeff_index(e) == oracle.get(e, 0)
                       for e in range(len(series.coeffs)))

    # exact positivity samples of the per-vector certificate value
    eq3 = True
    count = 0
    while count < 10_000:
        s = rng.randint(0, 9)
        k = rng.randint(1, 6)
        y = rng.choice([0, -1])
        if (1 + 2 * k * y) ** 2 < s + 2:
            eq3 &= eq3_value(s, k, y, [0] * (s + 1)) > 0
            count += 1

    h_pos = all(c > 0 for c in h_series(301).coeffs)
    elapsed = time.time() - t0
    record(8, laws and eq2 and eq3 and h_pos and elapsed < 120,
           f"ring/Leibniz laws: {laws}, lattice-sum oracle: {eq2}, "
           f"certificate positivity x10^4: {eq3}, h>0 to t^300: {h_pos} "
           f"({elapsed:.1f}s)")
