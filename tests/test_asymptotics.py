import random

import mpmath as mp
import pytest

from conftest import uncancelled_g_ratio
from zktheta.asymptotics import (
    asymptotic_b,
    eval_F,
    eval_e4,
    eval_series,
    find_saddle,
    log_g1,
    predicted_ratio_limit,
    ratio_report,
)
from zktheta.errors import DomainError, InvalidLength
from zktheta.extremal import b_coefficients, shape
from zktheta.modforms import eisenstein_e4


@pytest.fixture(scope="module")
def sd():
    return find_saddle(30)


def test_F_large_y_tends_to_exponential():
    # h(t) -> 1 as t -> 0, so F(y)/e^(2*pi*y) -> 1 from above
    r = eval_F(5, 30) / mp.e ** (10 * mp.pi)
    assert 1 < r < mp.mpf("1.00001")


def test_F_at_one():
    v = eval_F(1, 30)
    assert abs(v / mp.mpf("560.108") - 1) < mp.mpf("1e-3")


def test_F_domain():
    with pytest.raises(DomainError):
        eval_F(0, 30)


def test_F_functional_equation():
    # Delta(iy) = 1/F(y), so Delta's modularity gives F(y) = y^12 * F(1/y)
    with mp.workdps(45):
        y = mp.mpf("1.3")
        err = abs(eval_F(y, 40) / (y ** 12 * eval_F(1 / y, 40)) - 1)
    assert err < mp.mpf("1e-30")
    rng = random.Random(11)
    for _ in range(10):
        y = mp.mpf(rng.uniform(0.3, 3.0))
        lhs, rhs = eval_F(y, 40), y ** 12 * eval_F(1 / y, 40)
        assert abs(lhs / rhs - 1) < mp.mpf("1e-9")


def test_saddle_invariants(sd):
    assert 0 < sd.y0 < 1
    assert sd.c1 > 0
    assert sd.c2 > 0
    h = mp.mpf("1e-12")
    deriv = (eval_F(sd.y0 + h, 40) - eval_F(sd.y0 - h, 40)) / (2 * h)
    assert abs(deriv) < mp.mpf("1e-8") * sd.c1


def test_saddle_location(sd):
    assert abs(sd.y0 - mp.mpf("0.5235217")) < mp.mpf("1e-6")
    # the stored fields carry 40 digits; this difference is taken at the
    # default 15
    assert abs(sd.t0 - mp.e ** (-2 * mp.pi * sd.y0)) < mp.mpf("1e-15")


def test_saddle_digit_doubling(sd):
    # find_saddle(d) agrees with find_saddle(2d) to d digits
    hi = find_saddle(60)
    with mp.workdps(70):
        assert abs(hi.y0 - sd.y0) < mp.mpf("1e-12")
        assert abs(hi.c1 - sd.c1) < mp.mpf("1e-12") * sd.c1
        assert abs(hi.c2 - sd.c2) < mp.mpf("1e-10") * sd.c2
        pairs = [(hi.y0, sd.y0), (hi.t0, sd.t0), (hi.c1, sd.c1),
                 (hi.c2, sd.c2),
                 (predicted_ratio_limit(hi), predicted_ratio_limit(sd))]
        for a, b in pairs:
            assert abs(a / b - 1) < mp.mpf("1e-30")


@pytest.mark.parametrize("d", [30, 60])
def test_saddle_digits_vs_F_oracle(d):
    # eval_F alone, at 3d working digits: F'(y0) by a central difference
    # of step 10^-d, and F(y0) against c1
    sd = find_saddle(d)
    with mp.workdps(3 * d):
        h = mp.mpf(10) ** -d
        fp = (eval_F(sd.y0 + h, 3 * d) - eval_F(sd.y0 - h, 3 * d)) / (2 * h)
        f0 = eval_F(sd.y0, 3 * d)
        assert abs(fp) / f0 < mp.mpf(10) ** -d
        assert abs(f0 / sd.c1 - 1) < mp.mpf(10) ** -d


def test_eval_series_matches_polynomial(sd):
    t0 = sd.t0
    e4 = eisenstein_e4(200)
    poly = eval_series(e4, t0)
    assert abs(poly - eval_e4(t0)) < mp.mpf("1e-25")


def test_ratio_limit_two_paths(sd):
    # limit / c1 is E4(t0)^3, the uncancelled finite-j ratio G2/G1 at t0
    limit = predicted_ratio_limit(sd)
    direct = uncancelled_g_ratio(sd.t0)
    assert abs(direct / (limit / sd.c1) - 1) < mp.mpf("1e-8")
    assert abs(limit / mp.mpf("1.64e5") - 1) < mp.mpf("0.05")


def test_ratio_limit_value(sd):
    limit = predicted_ratio_limit(sd)
    assert abs(limit - mp.mpf("163787.8")) < 1


def test_asymptotic_b_sign(sd):
    for n in (48, 120, 480):
        assert asymptotic_b(n, 1, sd) < 0


def test_asymptotic_b_needs_mu(sd):
    with pytest.raises(InvalidLength):
        asymptotic_b(8, 1, sd)


def test_asymptotic_b_log_vs_naive(sd):
    # the growth law evaluated directly, without the log domain
    n, k = 48, 1
    j, mu, _ = shape(n)
    sign, lg1 = log_g1(n, k, sd)
    with mp.workdps(sd.digits + 10):
        naive = (-2 * mp.pi * j * sd.c2 ** mp.mpf("-0.5")
                 * mp.mpf(mu) ** mp.mpf("-1.5") * sign * mp.e ** lg1
                 * sd.c1 ** mu)
    assert abs(asymptotic_b(n, k, sd) / naive - 1) < mp.mpf("1e-10")


def test_asymptotic_relative_error_shrinks(sd):
    # The growth law applies a fixed-G coefficient lemma although G1 itself
    # carries theta1^(j-1) with j growing alongside mu, so the raw magnitude
    # overshoots by an exponential factor; convergence shows up in the
    # log-domain quantity the law actually defines.  The trend is the claim.
    errs = []
    for n in (480, 960, 1920):
        _, mu, _ = shape(n)
        exact = b_coefficients(n, 1, extra=1)[mu + 1]
        approx = asymptotic_b(n, 1, sd)
        log_exact = mp.log(abs(mp.mpf(exact)))
        log_approx = mp.log(abs(approx))
        errs.append(abs(log_approx / log_exact - 1))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < mp.mpf("0.15")


def test_ratio_report_checks_every_length_first(monkeypatch):
    import zktheta.asymptotics as asy

    def no_work(k, ns_list):
        raise AssertionError("computed a length before checking them all")

    monkeypatch.setattr(asy, "_tail_chunk", no_work)
    with pytest.raises(InvalidLength):
        asy.ratio_report(1, [9600, 0])


def test_ratio_report_small_case():
    rows = ratio_report(1, [8])
    row = rows[0]
    assert row.n == 8
    assert row.threshold == 744 - 240  # mu=0, nu=1
    assert abs(row.ratio - mp.mpf(114944) / 224) < mp.mpf("1e-12")
    assert row.margin > 0


def test_ratio_report_margin_tracks_beta2():
    from zktheta.extremal import beta_stars

    for n, k in ((48, 1), (96, 2)):
        rows = ratio_report(k, [n])
        beta2 = beta_stars(n, k)[1]
        assert (rows[0].margin > 0) == (beta2 > 0)


def test_determinism(sd):
    again = find_saddle(30)
    assert again.y0 == sd.y0
    assert again.c1 == sd.c1
    assert ratio_report(2, [48])[0].ratio == ratio_report(2, [48])[0].ratio


def test_jsonable(sd):
    d = sd.to_jsonable()
    assert set(d) == {"y0", "t0", "c1", "c2", "digits", "h_terms"}
    assert d["digits"] == 30
