"""Certified signs of beta1 and beta2 for the text and csv crossover.

A sign needs a few bits of b_{2(mu+1)} and b_{2(mu+2)}, where the exact
walk of extremal._tail_chunk carries its giants G_mu = theta1^(3mu) *
h^(mu+1) = h * step^mu at full width (about 29,000 bits near n = 1.1e5).
This route takes the scan's exact operands from extremal._tail_setup, once
for all its lengths, and walks the giant as a fixed-point interval instead:

  * t -> 2^(-a) t, an exact shift of a*i bits at slot i, with 2^a the
    giants' growth per slot at slot mu, 1/t0 for t0 the step's saddle,
    rounded to a power of two, so the slots the dots read are of one size.
  * A nonnegative series X is kept as (lo, hi, E): ints of at most _PREC
    bits with lo_i * 2^E <= X_i * 2^(-a*i) <= hi_i * 2^E.  h and the step
    have no negative coefficient, so G * step lies between the products
    of the lo sides and of the hi sides, one Kronecker product each, the lo
    side rounded down and the hi side up.  A factor keeps the slots up to
    its last one whose upper bound exceeds one unit; the slots dropped are
    bounded by their summed upper bounds times the largest hi of G that
    they reach.  The opening giant is h * step^mu0 by binary powering, and
    each later one the last times the step.
  * Q_nu, whose E6 gives it mixed signs, is split as Q = Q+ - Q-, and each
    b is one interval dot [sum lo*Q+lo - hi*Q-hi, sum hi*Q+hi - lo*Q-lo],
    widened by the same bound for the dropped slots of Q+ and Q-.

beta1 = -b1 and beta2 = -b2 + b1 * threshold follow by exact shifts to a
common exponent.  The lengths whose interval contains 0 are recomputed
exactly by extremal._tail_chunk, split over the workers, so every sign
printed is certified or exact and an exact 0 prints 0.  json crossover
stays on the exact route.
"""

from __future__ import annotations

import itertools
import operator

from . import extremal
from .series import _kronecker

# Bits kept in the largest slot of each fixed-point series.  Correctness
# does not depend on it: too few bits only send lengths to the exact route.
# At 96 every length took its signs from the intervals on scan-k1's window
# for k = 1..6, k = 1 over 9600..10800, k = 2 and 6 over 8..480 and
# 24000..24400 and the k = 2 window 112608..113352; the widest interval
# there, 2^-46 of its value, was in that last window, where 64 bits sent
# one length to the exact route and 80 bits none.  128 bits took 2.4 times
# as long on scan-k1's window.
_PREC = 96


def crossover_signs(k: int, n_from: int, n_to: int, workers: int = 1):
    """(rows, first_negative) of the crossover scan's signs: rows of (n,
    sign of beta1, sign of beta2) for every n = 0 mod 8 in [n_from, n_to],
    signs in {-1, 0, 1}, and the least n with beta2 < 0 or None.  They equal
    the signs of extremal.crossover_scan.

    One interval walk covers every length; the lengths that no interval
    decides, and a scan of one length, which has no walk to share, are
    computed exactly by extremal._tail_chunk, cut into runs for `workers`
    processes."""
    ns_list, found = extremal._lengths(n_from, n_to), {}
    if len(ns_list) > 1:
        for n, a, b1, b2 in _intervals(k, ns_list):
            found[n] = _beta_signs(n, a, b1, b2)
    undecided = [n for n in ns_list if found.get(n) is None]
    for n, b1, b2 in extremal._map_chunks(extremal._tail_chunk, k, undecided,
                                          workers):
        found[n] = tuple(map(_sign, extremal._betas_from_b(n, b1, b2)))
    rows = [(n, *found[n]) for n in ns_list]
    return rows, next((n for n, _, s2 in rows if s2 < 0), None)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _intervals(k: int, ns_list: list):
    """Yield (n, a, b1, b2) for a run of two or more lengths, b1 = (lo, hi,
    E) with lo * 2^E <= b_{2(mu+1)} * 2^(-a*(mu+1)) <= hi * 2^E, and b2
    likewise for b_{2(mu+2)} * 2^(-a*(mu+2))."""
    h, step, qs = extremal._tail_setup(k, ns_list)
    a = _scale(step.coeffs)
    mu, step = ns_list[0] // 24, _fixed(step.coeffs, a)
    g = _power(_fixed(h.coeffs, a), step, mu)
    step = _trim(step)
    qs = {nu: [_split(q.coeffs, a) for q in pair] for nu, pair in qs.items()}
    for n in ns_list:
        while mu < n // 24:
            g, mu = _times(g, step), mu + 1
        q, qw = qs[n // 8 % 3]
        yield n, a, _dot(g, q, mu + 1), _dot(g, qw, mu + 2)


def _scale(s: list) -> int:
    """a = round(log2(1/t0)), t0 the saddle of the step S: t0 * S'(t0) =
    S(t0).  G_mu = h * S^mu grows by about 1/t0 per slot at slot mu, so
    rescaled by 2^(-a*i) its slots near mu, where the dots read, are of one
    size.  g(t) = sum_i (i - 1) * S_i * t^i rises through 0 at t0, so y =
    floor(2 * log2(1/t0)) is the greatest y with g(2^(-y/2)) >= 0, and a =
    (y + 1) // 2."""
    y = 0
    while _saddle_sign(s, y + 1) >= 0:
        y += 1
    return (y + 1) // 2


def _saddle_sign(s: list, y: int) -> int:
    """The sign of g(2^(-y/2)) * 2^(y*top) = A + B * sqrt(2), top = len(s)
    - 1: the term of slot i has 2^(y*(2*top - i)/2), a whole power of two
    in A or, when y*(2*top - i) is odd, sqrt(2) times one in B."""
    top, parts = len(s) - 1, [0, 0]
    for i, c in enumerate(s):
        e = y * (2 * top - i)
        parts[e % 2] += (i - 1) * c << e // 2
    a, b = parts
    return _sign(a) if a * a > 2 * b * b else _sign(b)


def _power(g, x, m: int):
    """The fixed-point bounds of G * X^m, m >= 0, by binary powering."""
    while m:
        if m & 1:
            g = _times(g, _trim(x))
        m >>= 1
        if m:
            x = _times(x, _trim(x))
    return g


def _down(x: int, sh: int) -> int:
    """floor(x * 2^sh)."""
    return x << sh if sh >= 0 else x >> -sh


def _up(x: int, sh: int) -> int:
    """ceil(x * 2^sh)."""
    return -_down(-x, sh)


def _top(xs: list, a: int) -> int:
    """The bit length of the largest |xs_i| * 2^(-a*i), rounded up."""
    return max(abs(x).bit_length() - a * i for i, x in enumerate(xs) if x)


def _fixed(xs: list, a: int, top=None):
    """(lo, hi, E) of the nonnegative exact slots xs rescaled by 2^(-a*i),
    E chosen so that values below 2^top, by default _top(xs, a), have at
    most _PREC bits."""
    if min(xs) < 0:
        raise ValueError("a fixed-point bound needs nonnegative slots")
    e = (_top(xs, a) if top is None else top) - _PREC
    return ([_down(x, -a * i - e) for i, x in enumerate(xs)],
            [_up(x, -a * i - e) for i, x in enumerate(xs)], e)


def _trim(x):
    """(lo, hi, E, tail): x cut after its last slot whose upper bound
    exceeds one unit, and the summed upper bounds of the slots dropped."""
    lo, hi, e = x
    keep = max((i for i, v in enumerate(hi) if v > 1), default=-1) + 1
    return lo[:keep], hi[:keep], e, sum(hi[keep:])


def _split(q: list, a: int):
    """Q = Q+ - Q-, each a trimmed fixed-point series on one exponent."""
    return [_trim(_fixed([max(s * x, 0) for x in q], a, _top(q, a)))
            for s in (1, -1)]


def _times(g, y):
    """The fixed-point bounds of G * Y, cut at G's length, for y = (lo, hi,
    E, tail) of _trim.  A dropped slot j >= len(y.lo) of Y reaches slot i
    of the product only through the slots up to i - j of G, so the dropped
    slots add at most tail times the largest hi of G up to i - len(y.lo)."""
    lo, hi, e = g
    ylo, yhi, ye, tail = y
    reach = [0] * len(ylo) + [top * tail
                              for top in itertools.accumulate(hi, max)]
    plo = _kronecker(lo, ylo, len(lo))
    phi = list(map(operator.add, _kronecker(hi, yhi, len(lo)), reach))
    sh = max(phi).bit_length() - _PREC
    return ([_down(v, -sh) for v in plo], [_up(v, -sh) for v in phi],
            e + ye + sh)


def _dot(g, q, s: int):
    """(lo, hi, E) bounding [t^s] G * Q, for q = (Q+, Q-) of _split, with
    the bound of _times for the dropped slots of each."""
    lo, hi, e = g
    (plo, phi, qe, ptail), (mlo, mhi, _, mtail) = q
    glo, ghi = lo[s::-1], hi[s::-1]
    return (sum(map(operator.mul, glo, plo))
            - sum(map(operator.mul, ghi, mhi))
            - max(ghi[len(mhi):], default=0) * mtail,
            sum(map(operator.mul, ghi, phi))
            - sum(map(operator.mul, glo, mlo))
            + max(ghi[len(phi):], default=0) * ptail, e + qe)


def _interval_sign(lo: int, hi: int):
    """The sign of every value in [lo, hi], or None if it holds 0."""
    return 1 if lo > 0 else (-1 if hi < 0 else None)


def _beta_signs(n: int, a: int, b1, b2):
    """(sign beta1, sign beta2) from the bounds of b1 and b2 (_intervals),
    or None if either interval contains 0.  beta2 * 2^(-a*(mu+2)) =
    -b2 * 2^(-a*(mu+2)) + threshold * b1 * 2^(-a*(mu+1)) * 2^(-a), each
    term shifted exactly to the least exponent."""
    l1, h1, e1 = b1
    l2, h2, e2 = b2
    e1 -= a
    thr = extremal._threshold(n)
    c1, c2 = sorted((thr * l1, thr * h1))
    low = min(e1, e2)
    s1 = _interval_sign(-h1, -l1)
    s2 = _interval_sign((c1 << e1 - low) - (h2 << e2 - low),
                        (c2 << e1 - low) - (l2 << e2 - low))
    return None if s1 is None or s2 is None else (s1, s2)
