import json
import random

import mpmath as mp
import pytest

from conftest import F_at, qp_F, uncancelled_g_ratio
from zktheta.asymptotics import (
    eval_e4,
    find_saddle,
    predicted_ratio_limit,
    ratio_report,
)
from zktheta.cli import run
from zktheta.errors import DomainError, InvalidLength
from zktheta.modforms import eisenstein_e4


@pytest.fixture(scope="module")
def sd():
    return find_saddle(30)


def test_F_large_y_tends_to_exponential():
    # h(t) -> 1 as t -> 0, so F(y)/e^(2*pi*y) -> 1 from above
    r = F_at(5, 30) / mp.e ** (10 * mp.pi)
    assert 1 < r < mp.mpf("1.00001")


def test_F_at_one():
    v = F_at(1, 30)
    assert abs(v / mp.mpf("560.108") - 1) < mp.mpf("1e-3")


def test_F_domain():
    with pytest.raises(DomainError):
        F_at(0, 30)


def test_F_functional_equation():
    # Delta(iy) = 1/F(y), so Delta's modularity gives F(y) = y^12 * F(1/y)
    with mp.workdps(45):
        y = mp.mpf("1.3")
        err = abs(F_at(y, 40) / (y ** 12 * F_at(1 / y, 40)) - 1)
    assert err < mp.mpf("1e-30")
    rng = random.Random(11)
    for _ in range(10):
        y = mp.mpf(rng.uniform(0.3, 3.0))
        lhs, rhs = F_at(y, 40), y ** 12 * F_at(1 / y, 40)
        assert abs(lhs / rhs - 1) < mp.mpf("1e-9")


def test_saddle_invariants(sd):
    assert 0 < sd.y0 < 1
    assert sd.c1 > 0
    assert sd.c2 > 0
    # F from the q-Pochhammer oracle, which rounds to the caller's
    # precision: at the default 15 digits F(y0 + h) and F(y0 - h) would
    # round to one value
    with mp.workdps(45):
        h = mp.mpf("1e-12")
        deriv = (qp_F(sd.y0 + h, 40) - qp_F(sd.y0 - h, 40)) / (2 * h)
        assert abs(deriv) < mp.mpf("1e-8") * sd.c1


def test_saddle_stationarity_check_detects_offset(sd):
    # the check in test_saddle_invariants must fail 1e-9 off the saddle,
    # where F'/c1 is about 4.4e-8; at 15 digits it read 0 there
    y = sd.y0 + mp.mpf("1e-9")
    h = mp.mpf("1e-12")
    with mp.workdps(45):
        deriv = (qp_F(y + h, 40) - qp_F(y - h, 40)) / (2 * h)
        assert abs(deriv) > mp.mpf("1e-8") * sd.c1
    assert qp_F(y + h, 40) == qp_F(y - h, 40)


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
    # the q-Pochhammer oracle alone, at 3d working digits: F'(y0) by a
    # central difference of step 10^-d, and F(y0) against c1 = _F(y0)
    sd = find_saddle(d)
    with mp.workdps(3 * d):
        h = mp.mpf(10) ** -d
        fp = (qp_F(sd.y0 + h, 3 * d) - qp_F(sd.y0 - h, 3 * d)) / (2 * h)
        f0 = qp_F(sd.y0, 3 * d)
        assert abs(fp) / f0 < mp.mpf(10) ** -d
        assert abs(f0 / sd.c1 - 1) < mp.mpf(10) ** -d


def test_eval_series_matches_polynomial(sd):
    # the exact E4 summed at t0 by mpmath's Horner rule against the
    # Lambert series
    t0 = sd.t0
    e4 = eisenstein_e4(200)
    poly = mp.polyval(e4.coeffs[::-1], t0)
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


def test_ratio_report_checks_every_length_first(monkeypatch):
    import zktheta.extremal

    def no_work(k, ns_list):
        raise AssertionError("computed a length before checking them all")

    # ratio_report imports _tail_chunk when called, from extremal
    monkeypatch.setattr(zktheta.extremal, "_tail_chunk", no_work)
    with pytest.raises(InvalidLength):
        ratio_report(1, [9600, 0])


def test_ratio_report_small_case():
    rows = ratio_report(1, [8])
    row = rows[0]
    assert row.n == 8
    assert row.threshold == 744 - 240  # mu=0, nu=1
    assert abs(row.ratio - mp.mpf(114944) / 224) < mp.mpf("1e-12")
    assert row.margin > 0


def test_ratio_report_margin_tracks_beta2():
    from zktheta.extremal import beta_stars

    signs = []
    for n, k in ((48, 1), (96, 2), (10152, 1)):
        rows = ratio_report(k, [n])
        beta2 = beta_stars(n, k)[1]
        assert (rows[0].margin > 0) == (beta2 > 0)
        signs.append(beta2 > 0)
    # both sides of the equivalence: beta2 < 0 at (10152, 1)
    assert signs == [True, True, False]


@pytest.mark.parametrize("n,k", [(144, 3), (192, 4), (240, 5), (288, 6)])
def test_ratio_report_margin_positive_for_k3_to_6(n, k):
    from zktheta.extremal import beta_stars

    rows = ratio_report(k, [n])
    assert beta_stars(n, k)[1] > 0
    assert rows[0].margin > 0


def test_determinism(sd):
    again = find_saddle(30)
    assert again.y0 == sd.y0
    assert again.c1 == sd.c1
    assert ratio_report(2, [48])[0].ratio == ratio_report(2, [48])[0].ratio


def test_jsonable(sd, capsys):
    # the cli keys the saddle record by its fields, adds the ratio limit and
    # prints each mpf as a string of sd.digits digits
    assert run(["--format", "json", "asymptotics"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"y0", "t0", "c1", "c2", "digits", "h_terms",
                      "predicted_ratio_limit"}
    assert d["digits"] == 30
    assert d["h_terms"] == sd.h_terms
    assert d["y0"] == mp.nstr(sd.y0, 30)
    assert d["predicted_ratio_limit"] == mp.nstr(predicted_ratio_limit(sd),
                                                 30)
