"""Closed-form reference for the saddle data, computed without zktheta.

With t = e^(-2*pi*y) and F(y) = e^(2*pi*y) h(t) = 1/Delta(t):
  d/dy log F = 2*pi*E2(iy), so y0 is the zero of E2 on the imaginary axis;
  c1 = F(y0) = 1/Delta(t0);
  c2 = F''(y0)/F(y0) = pi^2 E4(t0)/3  (Ramanujan: t dE2/dt = (E2^2 - E4)/12);
  the predicted ratio limit c1 E4(t0)^3 is j(i y0) = E4(t0)^3/Delta(t0).
"""

from __future__ import annotations

import mpmath as mp

FIELDS = ("y0", "t0", "c1", "c2", "predicted_ratio_limit")


def _lambert(t, power: int):
    """sum_{n>=1} n^power t^n / (1 - t^n) at the working precision."""
    eps = mp.mpf(10) ** (-(mp.mp.dps + 5))
    acc = mp.mpf(0)
    n = 1
    while True:
        term = mp.mpf(n) ** power * t ** n / (1 - t ** n)
        acc += term
        if abs(term) < eps * abs(acc):
            return acc
        n += 1


def _e2(t):
    return 1 - 24 * _lambert(t, 1)


def _e4(t):
    return 1 + 240 * _lambert(t, 3)


def _delta(t):
    eps = mp.mpf(10) ** (-(mp.mp.dps + 5))
    acc = mp.mpf(1)
    n = 1
    while t ** n > eps:
        acc *= (1 - t ** n) ** 24
        n += 1
    return t * acc


def saddle(dps: int = 60) -> dict:
    """Reference y0, t0, c1, c2 and the ratio limit at dps digits."""
    with mp.workdps(dps):
        y0 = mp.findroot(lambda y: _e2(mp.exp(-2 * mp.pi * y)), mp.mpf("0.5235"))
        t0 = mp.exp(-2 * mp.pi * y0)
        e4 = _e4(t0)
        delta = _delta(t0)
        return {
            "y0": +y0,
            "t0": +t0,
            "c1": 1 / delta,
            "c2": mp.pi ** 2 * e4 / 3,
            "predicted_ratio_limit": e4 ** 3 / delta,
        }


def digits_correct(printed: str, exact, dps: int = 60) -> int:
    """Correct significant digits of a printed decimal against a reference.

    Capped at the number of significant digits actually printed.
    """
    mantissa = printed.lower().split("e")[0].lstrip("+-").replace(".", "")
    shown = len(mantissa.lstrip("0")) or 1
    with mp.workdps(dps):
        err = abs(mp.mpf(printed) - exact) / abs(exact)
        if err == 0:
            return shown
        return max(0, min(shown, int(mp.floor(-mp.log10(err)))))
