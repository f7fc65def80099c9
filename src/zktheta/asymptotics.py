"""Saddle-point data for the b-coefficient asymptotics.

F(y) = e^(2*pi*y) * h(e^(-2*pi*y)) with h = prod (1-t^r)^(-24); the
stationary point y0 and the constants c1 = F(y0), c2 = F''(y0)/F(y0) feed
the growth law b_{2(mu+1)} ~ -2*pi*j*c2^(-1/2)*mu^(-3/2)*G1(t0)*c1^mu and
the limiting ratio c1 * E4(t0)^3 of successive forced tail coefficients.

High-precision numerics only; the exact-arithmetic counterpart lives in
the extremal module and the two are compared, never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, InvalidLength, NoBracket
from .extremal import _theta_bracket, b_coefficients, shape
from .modforms import eisenstein_e4, h_series
from .series import FracSeries, mul, power


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
    """Locate the stationary point of F in (0.05, 1.0).

    Central differences at step 10^(-digits/3) for F', bisection on the
    sign change then secant polish; NoBracket if the scan finds no sign
    change (which would falsify the whole setup).
    """
    if digits < 15:
        raise ValueError("digits must be >= 15")
    with mp.workdps(3 * digits):
        h = mp.mpf(10) ** (-(digits // 3))

        def fp(y):
            return (_F(y + h) - _F(y - h)) / (2 * h)

        lo, hi = mp.mpf("0.05"), mp.mpf("1.0")
        grid = [lo + (hi - lo) * i / 19 for i in range(20)]
        vals = [fp(y) for y in grid]
        bracket = None
        for (y1, v1), (y2, v2) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
            if v1 < 0 <= v2:
                bracket = (y1, v1, y2, v2)
                break
        if bracket is None:
            raise NoBracket("F' has no sign change in (0.05, 1.0)")
        a, fa, b, fb = bracket
        for _ in range(mp.mp.dps * 4):
            mid = (a + b) / 2
            fm = fp(mid)
            if fm < 0:
                a, fa = mid, fm
            else:
                b, fb = mid, fm
            if b - a < mp.mpf(10) ** (-(2 * digits)):
                break
        y0 = (a + b) / 2
        for _ in range(6):  # secant polish on the difference quotient
            f0, f1 = fp(y0), fp(y0 + h)
            slope = (f1 - f0) / h
            if slope == 0:
                break
            step = f0 / slope
            if abs(step) < mp.mpf(10) ** (-(2 * digits)):
                break
            y0 -= step
        t0 = mp.e ** (-2 * mp.pi * y0)
        c1 = _F(y0)
        fpp = (_F(y0 + h) - 2 * c1 + _F(y0 - h)) / (h * h)
        c2 = fpp / c1
        R = _product_cutoff(t0)
    return SaddleData(y0=+y0, t0=+t0, c1=+c1, c2=+c2,
                      digits=digits, h_terms=R)


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


def eval_e4(t: mp.mpf, terms: int = 0) -> mp.mpf:
    """E4 at a numeric point; term count grown until the tail is negligible."""
    eps = mp.mpf(10) ** (-(mp.mp.dps + 2))
    acc = mp.mpf(1)
    m = 1
    while True:
        term = 240 * _sigma3(m) * t ** m
        acc += term
        # sigma3(m) < 1.21 m^3, and m^3 t^m decays monotonically for
        # m > 3/log(1/t); crude geometric majorant for the tail
        if term < eps and m > 4 / mp.log(1 / t):
            tail = 240 * 1.21 * (m ** 3) * t ** (m + 1) / (1 - t) ** 4
            if tail < eps:
                break
        m += 1
        if terms and m > terms:
            break
    return acc


def _sigma3(m: int) -> int:
    from .modforms import sigma3
    return sigma3(m)


def predicted_ratio_limit(sd: SaddleData, check_j: int = 30) -> mp.mpf:
    """Limit of |b_{2(mu+2)} / b_{2(mu+1)}| predicted by the saddle data.

    The ratio of the two G-factors collapses to E4(t0)^3 once the shared
    theta/derivative/h factors cancel; returns c1 * E4(t0)^3.  The
    cancellation is machine-checked: the same ratio is evaluated from the
    full uncancelled products at finite j (default 30, nu = 0, k = 1) and
    must agree to 1e-8.
    """
    with mp.workdps(sd.digits + 10):
        t0 = sd.t0
        limit = sd.c1 * eval_e4(t0) ** 3
        direct_prev = None
        for T in (160, 320, 640):
            direct = _direct_g_ratio(check_j, t0, T)
            if direct_prev is not None and abs(direct / direct_prev - 1) < mp.mpf("1e-12"):
                break
            direct_prev = direct
        if abs(direct / (eval_e4(t0) ** 3) - 1) > mp.mpf("1e-8"):
            raise ArithmeticError(
                "uncancelled G2/G1 disagrees with E4(t0)^3: "
                f"{direct} vs {eval_e4(t0) ** 3}"
            )
    return +limit


def _direct_g_ratio(j: int, t0: mp.mpf, T: int) -> mp.mpf:
    """G2(t0)/G1(t0) from full exact product series, no cancellation."""
    k, nu = 1, 0
    e4 = eisenstein_e4(T)
    # the bracket carries a factor t, which cancels in the ratio
    bracket, th1 = _theta_bracket(k, T)
    core = mul(mul(power(th1, j - 1), bracket), h_series(T))
    g1 = mul(power(e4, 2 - nu), core)
    g2 = mul(power(e4, 5 - nu), core)
    return eval_series(g2, t0) / eval_series(g1, t0)


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


def asymptotic_b_naive(n: int, k: int, sd: SaddleData) -> mp.mpf:
    """Same estimate without the log-domain trick (small n only)."""
    j, mu, _ = shape(n)
    if mu < 1:
        raise InvalidLength("asymptotic form needs mu >= 1 (n >= 24)")
    sign, lg1 = log_g1(n, k, sd)
    with mp.workdps(sd.digits + 10):
        g1 = sign * mp.e ** lg1
        val = -2 * mp.pi * j * sd.c2 ** mp.mpf("-0.5") * mp.mpf(mu) ** mp.mpf("-1.5") \
            * g1 * sd.c1 ** mu
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
    """Exact |b_{2(mu+2)}/b_{2(mu+1)}| against the sign-change threshold."""
    rows = []
    for n in ns:
        j, mu, nu = shape(n)
        b = b_coefficients(n, k, extra=2)
        with mp.workdps(40):
            ratio = abs(mp.mpf(b[mu + 2]) / mp.mpf(b[mu + 1]))
            thr = 24 * mu - 240 * nu + 744
            rows.append(RatioRow(n=n, ratio=+ratio, threshold=thr,
                                 margin=+(ratio - thr)))
    return rows
