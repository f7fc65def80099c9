"""Saddle-point data for the b-coefficient asymptotics, from closed forms.

With t = e^(-2*pi*y), F(y) = e^(2*pi*y) * h(t) = 1/Delta(t), where
h = prod (1-t^r)^(-24).  d/dy log F = 2*pi*E2(iy), so the stationary point
y0 is the zero of E2 on the imaginary axis (El Basraoui-Sebbar), and
Ramanujan's t*dE2/dt = (E2^2 - E4)/12 gives c2 = F''(y0)/F(y0) =
pi^2*E4(t0)/3; c1 = F(y0) = 1/Delta(t0).  These feed the growth law
b_{2(mu+1)} ~ -2*pi*j*c2^(-1/2)*mu^(-3/2)*G1(t0)*c1^mu and the limiting
ratio c1 * E4(t0)^3 = j(i*y0) of successive forced tail coefficients.

High-precision numerics only; the exact-arithmetic counterpart lives in
the extremal module and the two are compared, never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, InvalidLength
from .extremal import _tail_chunk, _theta_bracket, shape
from .modforms import h_series
from .series import FracSeries


@dataclass
class SaddleData:
    y0: mp.mpf
    t0: mp.mpf
    c1: mp.mpf
    c2: mp.mpf
    digits: int
    h_terms: int  # product cutoff used at the saddle

    def to_jsonable(self) -> dict:
        return {
            "y0": mp.nstr(self.y0, self.digits),
            "t0": mp.nstr(self.t0, self.digits),
            "c1": mp.nstr(self.c1, self.digits),
            "c2": mp.nstr(self.c2, self.digits),
            "digits": self.digits,
            "h_terms": self.h_terms,
        }


def _product_cutoff(t: mp.mpf) -> int:
    """R with the dropped log-tail of h below the working epsilon.

    -24 * sum_{r>R} log(1 - t^r) <= 24 * t^(R+1) / ((1 - t)*(1 - t^(R+1))).
    """
    eps = mp.mpf(10) ** (-(mp.mp.dps + 2))
    R = 1
    while 24 * t ** (R + 1) / ((1 - t) * (1 - t ** (R + 1))) > eps:
        R += 1
    return R


def _F(y: mp.mpf) -> mp.mpf:
    """F at current working precision."""
    if y <= 0:
        raise DomainError("F needs y > 0")
    t = mp.e ** (-2 * mp.pi * y)
    R = _product_cutoff(t)
    logh = -24 * mp.fsum(mp.log(1 - t ** r) for r in range(1, R + 1))
    return mp.e ** (2 * mp.pi * y + logh)


def eval_F(y, digits: int = 30) -> mp.mpf:
    """F(y) = e^(2*pi*y) * h(e^(-2*pi*y)) to the requested precision."""
    with mp.workdps(digits + 10):
        val = _F(mp.mpf(y))
    return +val


def find_saddle(digits: int = 30) -> SaddleData:
    """The stationary point y0 of F and the constants c1, c2 there.

    d/dy log F = 2*pi*E2(iy), so y0 is the zero of E2 on the imaginary
    axis; Newton from y = 1/2 uses dE2/dy = -pi*(E2^2 - E4)/6 (Ramanujan).
    At y0, c1 = F(y0) and c2 = F''(y0)/F(y0) = pi^2*E4(t0)/3.  The fields
    are kept at digits + 10 working digits, so all `digits` of them hold.
    """
    if digits < 15:
        raise ValueError("digits must be >= 15")
    with mp.workdps(digits + 10):
        tol = mp.mpf(10) ** (-(digits + 5))
        y0, step = mp.mpf(1) / 2, 1
        while abs(step) >= tol:
            t0 = mp.e ** (-2 * mp.pi * y0)
            e2 = eval_e2(t0)
            step = 6 * e2 / (mp.pi * (e2 ** 2 - eval_e4(t0)))
            y0 += step
        t0 = mp.e ** (-2 * mp.pi * y0)
        return SaddleData(y0=y0, t0=t0, c1=_F(y0),
                          c2=mp.pi ** 2 * eval_e4(t0) / 3,
                          digits=digits, h_terms=_product_cutoff(t0))


# ---------------------------------------------------------------------------
# series evaluation helpers (exact series -> mpf at a point)
# ---------------------------------------------------------------------------

def eval_series(series: FracSeries, t: mp.mpf) -> mp.mpf:
    """Evaluate a FracSeries at a numeric point (Horner on the e-grid)."""
    base = t ** (mp.mpf(1) / series.D) if series.D > 1 else t
    acc = mp.mpf(0)
    for c in reversed(series.coeffs):
        acc = acc * base
        if c:
            if isinstance(c, Fraction):
                acc += mp.mpf(c.numerator) / c.denominator
            else:
                acc += c
    return acc


def _lambert(t: mp.mpf, p: int) -> mp.mpf:
    """sum_{m>=1} m^p t^m / (1 - t^m), until a term is below the working eps."""
    acc = mp.mpf(0)
    m = 1
    while True:
        term = m ** p * t ** m / (1 - t ** m)
        acc += term
        if term < mp.eps * acc:
            return acc
        m += 1


def eval_e2(t: mp.mpf) -> mp.mpf:
    """E2 = 1 - 24 * sum sigma_1(m) t^m at a numeric point."""
    return 1 - 24 * _lambert(t, 1)


def eval_e4(t: mp.mpf) -> mp.mpf:
    """E4 = 1 + 240 * sum sigma_3(m) t^m at a numeric point."""
    return 1 + 240 * _lambert(t, 3)


def predicted_ratio_limit(sd: SaddleData) -> mp.mpf:
    """Limit of |b_{2(mu+2)} / b_{2(mu+1)}| predicted by the saddle data.

    The ratio of the two G-factors collapses to E4(t0)^3 once the shared
    theta/derivative/h factors cancel, so the limit is c1 * E4(t0)^3,
    which is j(i*y0) since c1 = 1/Delta(t0).  Kept at sd.digits + 10
    working digits, like the saddle data.
    """
    with mp.workdps(sd.digits + 10):
        return sd.c1 * eval_e4(sd.t0) ** 3


def log_g1(n: int, k: int, sd: SaddleData, T: int = 160):
    """(sign, log|G1(t0)|) for G1 = E4^(2-nu)*theta1^(j-1)*(bracket)*h."""
    j, _, nu = shape(n)
    with mp.workdps(sd.digits + 10):
        t0 = sd.t0
        bracket, th1 = _theta_bracket(k, T)
        th1_val = eval_series(th1, t0)
        br_val = eval_series(bracket, t0) / t0
        e4_val = eval_e4(t0)
        h_val = eval_series(h_series(T), t0)
        sign = mp.sign(br_val)
        logv = ((j - 1) * mp.log(th1_val) + mp.log(abs(br_val))
                + (2 - nu) * mp.log(e4_val) + mp.log(h_val))
    return sign, +logv


def asymptotic_b(n: int, k: int, sd: SaddleData) -> mp.mpf:
    """Signed floating estimate of b_{2(mu+1)} from the saddle-point law.

    Evaluated in the log domain so large n cannot overflow.
    """
    j, mu, _ = shape(n)
    if mu < 1:
        raise InvalidLength("asymptotic form needs mu >= 1 (n >= 24)")
    sign, lg1 = log_g1(n, k, sd)
    with mp.workdps(sd.digits + 10):
        logmag = (mp.log(2 * mp.pi * j) - mp.log(sd.c2) / 2
                  - mp.mpf(3) / 2 * mp.log(mu) + lg1 + mu * mp.log(sd.c1))
        val = -sign * mp.e ** logmag
    return +val


@dataclass
class RatioRow:
    n: int
    ratio: mp.mpf      # |b_{2(mu+2)} / b_{2(mu+1)}|, exact integers divided
    threshold: int     # 24*mu - 240*nu + 744
    margin: mp.mpf     # ratio - threshold; shares beta2's sign while both
                       # b-coefficients are negative, so beta2 < 0 <=> margin < 0

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "ratio": mp.nstr(self.ratio, 20),
            "threshold": self.threshold,
            "margin": mp.nstr(self.margin, 20),
        }


def ratio_report(k: int, ns) -> list:
    """Exact |b_{2(mu+2)}/b_{2(mu+1)}| against the sign-change threshold.

    Every length is checked before any is computed.
    """
    rows = []
    for n, (_, mu, nu) in [(n, shape(n)) for n in ns]:
        _, b1, b2 = _tail_chunk(k, [n])[0]
        with mp.workdps(40):
            ratio = abs(mp.mpf(b2) / mp.mpf(b1))
            thr = 24 * mu - 240 * nu + 744
            rows.append(RatioRow(n=n, ratio=+ratio, threshold=thr,
                                 margin=+(ratio - thr)))
    return rows
