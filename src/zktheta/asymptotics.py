"""Saddle-point data for the b-coefficient asymptotics, from closed forms.

With t = e^(-2*pi*y), F(y) = e^(2*pi*y) * h(t) = 1/Delta(t), where
h = prod (1-t^r)^(-24).  d/dy log F = 2*pi*E2(iy), so the stationary point
y0 is the zero of E2 on the imaginary axis (El Basraoui-Sebbar), and
Ramanujan's t*dE2/dt = (E2^2 - E4)/12 gives c2 = F''(y0)/F(y0) =
pi^2*E4(t0)/3; c1 = F(y0) = 1/Delta(t0).  F carries no k, so y0, c1, c2
and the ratio c1 * E4(t0)^3 = j(i*y0) are limits as k -> infinity; for
fixed k the ratios of successive forced tail coefficients tend to less.

High-precision numerics only; the exact-arithmetic counterpart lives in
the extremal module and the two are compared, never conflated.
"""

from __future__ import annotations

from collections import namedtuple

import mpmath as mp

from .errors import DomainError


# mpf saddle values at `digits` digits; h_terms is the product cutoff used
# at the saddle
SaddleData = namedtuple("SaddleData", "y0 t0 c1 c2 digits h_terms")


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


def find_saddle(digits: int = 30) -> SaddleData:
    """The stationary point y0 of F and the constants c1, c2 there.

    d/dy log F = 2*pi*E2(iy), so y0 is the zero of E2 on the imaginary
    axis; Newton from y = 1/2 uses dE2/dy = -pi*(E2^2 - E4)/6 (Ramanujan).
    At y0, c1 = F(y0) and c2 = F''(y0)/F(y0) = pi^2*E4(t0)/3.  The fields
    are kept at digits + 10 working digits, so all `digits` of them hold.
    F = 1/Delta carries no k, so this is the k -> infinity saddle.
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
    """The k -> infinity limit of |b_{2(mu+2)} / b_{2(mu+1)}|.

    The ratio of the two G-factors collapses to E4(t0)^3 once the shared
    theta/derivative/h factors cancel, so the limit is c1 * E4(t0)^3,
    which is j(i*y0) since c1 = 1/Delta(t0).  Kept at sd.digits + 10
    working digits, like the saddle data.  At fixed k the exact ratios tend
    to less (k = 1: 10321, 10682, 10868 at n = 2400, 4800, 9600).
    """
    with mp.workdps(sd.digits + 10):
        return sd.c1 * eval_e4(sd.t0) ** 3


# ratio = |b_{2(mu+2)} / b_{2(mu+1)}| (exact integers divided), threshold =
# 24*mu - 240*nu + 744 and margin = ratio - threshold, which shares beta2's
# sign while both b-coefficients are negative, so beta2 < 0 <=> margin < 0
RatioRow = namedtuple("RatioRow", "n ratio threshold margin")


def ratio_report(k: int, ns) -> list:
    """Exact |b_{2(mu+2)}/b_{2(mu+1)}| against the sign-change threshold.

    Every length is checked before any is computed.  The exact layers are
    imported here, so `asymptotics` alone does not load them.
    """
    from .extremal import _tail_chunk, _threshold
    rows = []
    for n, thr in [(n, _threshold(n)) for n in ns]:
        _, b1, b2 = _tail_chunk(k, [n])[0]
        with mp.workdps(40):
            ratio = abs(mp.mpf(b2) / mp.mpf(b1))
            rows.append(RatioRow(n=n, ratio=+ratio, threshold=thr,
                                 margin=+(ratio - thr)))
    return rows
