"""Certified signs of beta1 and beta2 for the text and csv crossover.

A sign needs a few bits of b_{2(mu+1)} and b_{2(mu+2)}, where the exact
walk of extremal._tail_chunk carries its giants G_mu = theta1^(3mu) *
h^(mu+1) = h * step^mu at full width (about 29,000 bits near n = 1.1e5).
This route walks the giant as a fixed-point interval instead, once for all
the lengths of a scan, and builds exactly only what its dots read:

  * t -> 2^(-a) t, an exact shift of a*i bits at slot i, with 2^a the
    giants' growth per slot at slot mu, 1/t0 for t0 the step's saddle,
    rounded to a power of two, so the slots the dots read are of one size.
  * A nonnegative series X is kept as (lo, hi, E, n): the bounds lo_i *
    2^E <= X_i * 2^(-a*i) <= hi_i * 2^E, hi_i <= 2^_PREC, of its n slots,
    each side packed into one int, slot i at bit w*i, on one slot width w
    for the whole scan (_width).  h and the step have no negative
    coefficient, so G * step lies between the products of the lo sides and
    of the hi sides: one multiply per side, masked to G's n slots, then
    rounded to _PREC bits by a shift and a mask, the lo side down and the
    hi side up.  The largest slot is found by OR-folding the slots.
  * A factor keeps its slots up to the last whose upper bound exceeds one
    unit (_trim); the slots dropped add at most their mass, the tail, times
    the largest hi of G that they reach.  The tail is in units of 2^(E -
    _SUB).  The opening giant h * step^mu0 is a binary power, whose factors
    count each dropped slot as one unit (0 or 1 after rounding, so the tail
    is a bit count) and reach by the running maximum of G.  In the walk the
    step's tail is the exact mass of its dropped slots, about 0.1 unit, so
    every later giant, the last times the step, adds one packed constant.
  * Q_nu = theta1^nu * E4^(2-nu) * E6 and Q_nu * w, w = E4^3 * h, are
    exact only over a head of L slots.  With A = theta1^nu * E4^(2-nu) >= 0
    and |E6| = 1 + 504 * sum sigma5(m) t^m, |Q_j| <= (A * |E6|)_j and
    |(Q w)_j| <= (A * |E6| * E4^3 * h)_j, so the slots past the head weigh
    at most the product of each factor's sum at 2^(-a), minus the
    majorant's head there: exact integers over powers of two (_past_head),
    0 when the head holds every slot.  L doubles until that bound is below
    one unit.  Q is split as Q = Q+ - Q-, each side trimmed with the exact
    mass of its dropped head slots plus the bound past the head, and each b
    is one interval dot [sum lo*Q+lo - hi*Q-hi, sum hi*Q+hi - lo*Q-lo],
    widened by the tails times 2^_PREC.  Each giant unpacks only the window
    of slots that its dots read, at most 46 on the windows tried.

beta1 = -b1 and beta2 = -b2 + b1 * threshold follow by exact shifts to a
common exponent.  The lengths whose interval contains 0 are recomputed
exactly by extremal._tail_chunk, split over the workers, so every sign
printed is certified or exact and an exact 0 prints 0.  json crossover
stays on the exact route.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import extremal
from .modforms import _eisenstein, eisenstein_e4, eisenstein_e6, h_series
from .series import FracSeries, _pack, mul, power

# Bits kept in the largest slot of each fixed-point series.  Correctness
# does not depend on it: too few bits only send lengths to the exact route.
# At 96 every length took its signs from the intervals on scan-k1's window
# for k = 1..6, k = 1 over 9600..10800, k = 2 and 6 over 8..480 and
# 24000..24400 and the k = 2 window 112608..113352; the widest interval
# there, 2^-46 of its value, was in that last window, where 64 bits sent
# one length to the exact route and 80 bits none.  128 bits took 1.5 times
# as long on scan-k1's window.
_PREC = 96

# Bits below one unit kept in a tail, the bound of a factor's dropped slots.
_SUB = 32


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
    likewise for b_{2(mu+2)} * 2^(-a*(mu+2)).  h and the step are exact
    over the T slots of extremal._tail_factors, the Q's over a head."""
    T = ns_list[-1] // 24 + 3
    f0c, h = extremal._theta0(k, T), h_series(T)
    step = extremal._coset_mul(power(f0c, 24), h, k).coeffs
    a, w = _scale(step), _width(T)
    qs = _q_bounds(k, {n // 8 % 3 for n in ns_list}, f0c, h, a, w)
    mu, x = ns_list[0] // 24, _fixed(step, a, w)
    g = _power(_fixed(h.coeffs, a, w), x, mu, w)
    step, reach = _walk_step(x, step, a, w)
    # a giant's window, from slot mu + 2 down, holds the slots that
    # [t^(mu+1)] G * Q and [t^(mu+2)] G * Q w read
    span = max(len(side[0]) + 1 - d for pair in qs.values()
               for d, q in enumerate(pair) for side in q)
    for mu_n, run in itertools.groupby(ns_list, lambda n: n // 24):
        while mu < mu_n:
            g, mu = _times(g, step, reach, w), mu + 1
        view = _window(g, mu + 2, span, w)
        for n in run:
            q, qw = qs[n // 8 % 3]
            yield n, a, _dot(view, q, mu + 1), _dot(view, qw, mu + 2)


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


def _width(T: int) -> int:
    """The slot width of a scan's packed series, in bits, a whole number of
    bytes: a product slot sums at most T products of two hi <= 2^_PREC,
    and a reach below T * 2^_PREC, so it is below 2^(2*_PREC +
    bitlen(T) + 1), and rounding it up adds less than half that again."""
    return (2 * _PREC + T.bit_length() + 2 + 7) // 8 * 8


def _unpack(p: int, w: int, start: int, stop: int) -> list:
    """Slots start..stop-1 of the packed p."""
    size, n = w // 8, max(stop - start, 0)
    buf = (p >> w * start & (1 << w * n) - 1).to_bytes(size * n, "little")
    return [int.from_bytes(buf[i:i + size], "little")
            for i in range(0, size * n, size)]


@functools.lru_cache(maxsize=8)
def _ones(n: int, w: int) -> int:
    """1 in each of n slots of width w."""
    return int.from_bytes((b"\1" + bytes(w // 8 - 1)) * n, "little")


def _floor(p: int, sh: int, n: int, w: int) -> int:
    """floor(p_i * 2^(-sh)) in each of the n slots of p: one shift, and for
    sh > 0 a mask that clears the bits each slot took from the next."""
    if sh <= 0:
        return p << -sh
    return p >> sh & _ones(n, w) * ((1 << w - sh) - 1)


def _ceil(p: int, sh: int, n: int, w: int) -> int:
    """ceil(p_i * 2^(-sh)) in each slot: the floor of p_i + 2^sh - 1."""
    if sh <= 0:
        return p << -sh
    return _floor(p + _ones(n, w) * ((1 << sh) - 1), sh, n, w)


def _top_bits(p: int, n: int, w: int) -> int:
    """The bit length of the largest of the n slots of p, whose upper half
    is OR-ed onto its lower half until one slot is left."""
    while n > 1:
        n = (n + 1) // 2
        p = p & (1 << w * n) - 1 | p >> w * n
    return p.bit_length()


def _power(g, x, m: int, w: int):
    """The fixed-point bounds of G * X^m, m >= 0, by binary powering, each
    factor trimmed with a tail of whole units and its running-max reach."""
    while m:
        if m & 1:
            y = _trim(x, w)
            g = _times(g, y, _reach(g, y, w), w)
        m >>= 1
        if m:
            y = _trim(x, w)
            x = _times(x, y, _reach(x, y, w), w)
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


def _fixed(xs: list, a: int, w: int, top=None):
    """(lo, hi, E, n) of the n nonnegative exact slots xs rescaled by
    2^(-a*i), packed at width w, E chosen so that values below 2^top, by
    default _top(xs, a), have at most _PREC bits."""
    if min(xs) < 0:
        raise ValueError("a fixed-point bound needs nonnegative slots")
    e = (_top(xs, a) if top is None else top) - _PREC
    return (_pack([_down(x, -a * i - e) for i, x in enumerate(xs)], w // 8),
            _pack([_up(x, -a * i - e) for i, x in enumerate(xs)], w // 8),
            e, len(xs))


def _trim(x, w: int, exact=None, a: int = 0):
    """(lo, hi, E, m, tail): x cut to its first m slots, through its last
    whose upper bound exceeds one unit, found with bit 0 of every slot
    masked.  tail bounds the sum of the dropped slots in units of 2^(E -
    _SUB): their upper bounds, each 0 or 1, counted as bits, or, given the
    exact slots x was made from at scale a, their exact mass (_mass)."""
    lo, hi, e, n = x
    m = -(-(hi & ~_ones(n, w)).bit_length() // w)
    tail = (hi >> w * m).bit_count() << _SUB if exact is None \
        else _mass(exact, a, e, m)
    keep = (1 << w * m) - 1
    return lo & keep, hi & keep, e, m, tail


def _sum_at(xs: list, a: int):
    """(N, d) with sum_i xs_i * 2^(-a*i) = N * 2^(-d), exact (Horner)."""
    acc = 0
    for x in xs:
        acc = (acc << a) + x
    return acc, a * (len(xs) - 1)


def _mass(xs: list, a: int, e: int, start: int) -> int:
    """ceil(sum_{i >= start} xs_i * 2^(-a*i - e + _SUB)), exact: the slots
    of xs from start on, in units of 2^(e - _SUB) at scale a."""
    num, d = _sum_at(xs[start:], a)
    return _up(num, _SUB - e - d - a * start)


def _reach(g, y, w: int) -> int:
    """The packed bound of what the dropped slots of y = _trim(...) add to
    G * Y: a dropped slot j >= m of Y reaches slot i of the product only
    through the slots up to i - m of G, so slot i gets the tail times the
    largest hi of G up to i - m, the tail rounded up to whole units."""
    _, hi, _, n = g
    m, tail = y[3:]
    tops = itertools.accumulate(_unpack(hi, w, 0, n - m), max)
    return _pack(list(tops), w // 8) * _up(tail, -_SUB) << w * m


def _walk_step(x, xs: list, a: int, w: int):
    """(y, reach): the step x = _fixed(xs, a, w) trimmed with the exact mass
    of its dropped slots, and the packed bound of their part of G * Y for
    every G of the walk, the tail times 2^_PREC, the bound of every hi of
    G, in each slot from the first dropped one on."""
    y = _trim(x, w, xs, a)
    n, m = x[3], y[3]
    return y, _ones(n - m, w) * _up(y[4], _PREC - _SUB) << w * m


def _times(g, y, reach: int, w: int):
    """The fixed-point bounds of G * Y, cut at G's n slots, for y = (lo, hi,
    E, m, tail) of _trim and reach the packed bound of its dropped slots'
    part, added to the hi side."""
    lo, hi, e, n = g
    ylo, yhi, ye = y[:3]
    window = (1 << w * n) - 1
    plo, phi = lo * ylo & window, (hi * yhi & window) + reach
    sh = _top_bits(phi, n, w) - _PREC
    return _floor(plo, sh, n, w), _ceil(phi, sh, n, w), e + ye + sh, n


def _head_lengths(T: int):
    """The head lengths _q_bounds tries: 16, doubled, up to all T slots."""
    L = 16
    while L < T:
        yield L
        L *= 2
    yield T


def _heads(k: int, nus, L: int) -> dict:
    """{nu: [(Q_nu, A * |E6|), (Q_nu * w, A * |E6| * w)]}, exact over L
    slots, A = theta1^nu * E4^(2-nu), w = E4^3 * h: each Q and a majorant
    of |Q| with nonnegative coefficients."""
    f0c, e4 = extremal._theta0(k, L), eisenstein_e4(L)
    e4s = [FracSeries.constant(1, L), e4, mul(e4, e4)]
    w = mul(mul(e4s[2], e4), h_series(L))
    e6, e6abs = eisenstein_e6(L), _eisenstein(L, 504, 5)
    out = {}
    for nu in nus:
        big = extremal._coset_mul(power(f0c, 8 * nu), e4s[2 - nu], k)
        q, major = mul(big, e6), mul(big, e6abs)
        out[nu] = [(q, major), (mul(q, w), mul(major, w))]
    return out


def _past_head(total, head: list, a: int, e: int, T: int) -> int:
    """A bound of sum_{len(head) <= j < T} M_j * 2^(-a*j) in units of 2^(e -
    _SUB), for M a product of nonnegative series whose sums at 2^(-a), cut
    at T, multiply to total ((N, d) as of _sum_at) and whose first slots
    are head.  The product of the cut sums holds every slot of M below T,
    so the mass past the head is at most that product minus the head's
    sum; none is left when the head holds all T slots."""
    if len(head) >= T:
        return 0
    (num, d), (hn, hd) = total, _sum_at(head, a)
    low = max(d, hd)
    return _up((num << low - d) - (hn << low - hd), _SUB - e - low)


def _q_bounds(k: int, nus, f0c: FracSeries, h: FracSeries, a: int,
              w: int) -> dict:
    """{nu: [q, qw]}, each a pair of _split bounds, of Q_nu and Q_nu * w
    from their exact heads (_heads) and the bound past the head
    (_past_head), the head doubled until that bound is below one unit.
    The majorants' sums at 2^(-a) multiply the sums of their factors:
    theta1 = f0c(t^k)^8, E4, |E6| and h, each cut at T."""
    T = h.T
    s_f0, s_h = _sum_at(f0c.coeffs, a * k), _sum_at(h.coeffs, a)
    s_e4 = _sum_at(eisenstein_e4(T).coeffs, a)
    s_e6 = _sum_at(_eisenstein(T, 504, 5).coeffs, a)
    totals = {}
    for nu in nus:
        t1 = _product([s_f0] * (8 * nu) + [s_e4] * (2 - nu) + [s_e6])
        totals[nu] = [t1, _product([t1] + [s_e4] * 3 + [s_h])]
    for L in _head_lengths(T):
        heads = _heads(k, nus, L)
        past = {nu: [_past_head(total, major.coeffs, a,
                                _top(q.coeffs, a) - _PREC, T)
                     for (q, major), total in zip(pair, totals[nu])]
                for nu, pair in heads.items()}
        if max(max(pair) for pair in past.values()) < 1 << _SUB:
            break
    return {nu: [_split(q.coeffs, a, w, bound)
                 for (q, _), bound in zip(pair, past[nu])]
            for nu, pair in heads.items()}


def _product(sums: list):
    """The product of exact sums (N, d) of _sum_at, as one (N, d)."""
    return (math.prod(num for num, _ in sums), sum(d for _, d in sums))


def _split(q: list, a: int, w: int, past: int):
    """Q = Q+ - Q-, each side (lo, hi, E, tail) as lists, trimmed on the
    exponent of Q's head q, its tail the exact mass of its dropped head
    slots plus past, the bound of |Q| past the head, in sub-units."""
    top, sides = _top(q, a), []
    for s in (1, -1):
        xs = [max(s * x, 0) for x in q]
        lo, hi, e, m, tail = _trim(_fixed(xs, a, w, top), w, xs, a)
        sides.append((_unpack(lo, w, 0, m), _unpack(hi, w, 0, m), e,
                      tail + past))
    return sides


def _window(g, top: int, span: int, w: int):
    """(glo, ghi, E, top): the bounds of G's slots top, top - 1, ..., the
    span slots down from top or down to slot 0, unpacked once for all the
    dots of one giant."""
    lo, hi, e, _ = g
    start = max(top + 1 - span, 0)
    return (*(_unpack(side, w, start, top + 1)[::-1] for side in (lo, hi)),
            e, top)


def _dot(view, q, s: int):
    """(lo, hi, E) bounding [t^s] G * Q, for G's window view (_window) and
    q = (Q+, Q-) of _split.  The dropped slots j >= m of a side of m slots
    reach slot s only if m <= s, and then add at most its tail times
    2^_PREC, the bound of every hi of G."""
    glo, ghi, e, top = view
    glo, ghi = glo[top - s:], ghi[top - s:]
    (plo, phi, qe, ptail), (mlo, mhi, _, mtail) = q
    pcut, mcut = (_up(tail, _PREC - _SUB) if len(side) <= s else 0
                  for tail, side in ((ptail, phi), (mtail, mhi)))
    return (sum(map(operator.mul, glo, plo))
            - sum(map(operator.mul, ghi, mhi)) - mcut,
            sum(map(operator.mul, ghi, phi))
            - sum(map(operator.mul, glo, mlo)) + pcut, e + qe)


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
