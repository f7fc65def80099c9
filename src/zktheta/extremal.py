"""Extremal theta-series coefficients for Type II Z_2k-codes.

The chain is: theta0 = theta1^j is the theta series of the sublattice
sqrt(2k)*Z^n inside the Construction A lattice; b_{2s} are the coefficients
of phi = E4^{-j} * theta0 expanded in powers of u = Delta / E4^3.  With
w = t/u = E4^3 * h = t*J (J the modular invariant), Lagrange-Buermann
gives [u^s] phi = [t^s] phi * w^s * (1 - t*w'/w), and Ramanujan's
t*J' = -J * E6/E4 makes 1 - t*w'/w = E6/E4, so

    b_{2s} = [t^s] theta1^j * E6 * E4^(3s-j-1) * h^s

with b_0 = 1; at s = mu+1 and mu+2 the E4 exponent is 2-nu and 5-nu.  Every
b is one dot product, fed by one baby-step giant-step walker (_walk): the
full b-list walks R * w^s, the tail b's of a run of lengths walk the eta
quotients theta1^(3mu) * h^(mu+1), each built from its logarithmic
derivative (_theta_h), times E6 and a factor per nu.  Other powers of
theta1 = f0^8 and h = P^(-24) are taken as powers of the lacunary f0 and
Euler's P, and E4^2, E4^3 as products.  f0(t) = f0c(t^k) lives on t^(kZ),
so every power of f0 and theta1 is kept as a series in u = t^k (_theta0): a
product X * Z with such an X is one product per residue class of Z's
exponents mod k (_coset_mul), and one slot of it is one strided dot.  The
putative extremal theta series is sum_{s<=mu} b_{2s} E4^{j-3s} Delta^s, and
its forced tail coefficients beta1 = beta*_{2(mu+1)}, beta2 =
beta*_{2(mu+2)} decide existence.  The positivity certificate reads each
window slot as one strided dot; the Theorem 1 sweep keeps, per layer, the
prefix of slots already certified and reads only past it, and beta1 > 0 off
its head layer, by the equal bracket form of b_{2(mu+1)} (_theorem1_chunk).
Everything here is exact integer arithmetic; the signs module takes
certified signs from the same walk operands (_tail_setup) in fixed point.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .errors import (GridViolation, InvalidLength, InvalidRange,
                     OutOfTruncation)
from .modforms import (_eisenstein, eisenstein_e4, eisenstein_e6, h_series,
                       theta_terms)
from .series import (
    FracSeries,
    euler_scaled,
    linear_combine,
    mul,
    power,
)


def _check_length(n: int) -> None:
    if n <= 0 or n % 8:
        raise InvalidLength(f"length {n} is not a positive multiple of 8")


def shape(n: int):
    """(j, mu, nu) with n = 8j, j = 3*mu + nu, nu in {0,1,2}."""
    _check_length(n)
    j = n // 8
    mu = n // 24
    nu = j - 3 * mu
    return j, mu, nu


# shape, b-list (b_{2s}, s = 0..mu+2, exact ints) and beta values
ExtremalProfile = namedtuple("ExtremalProfile", "n k j mu nu b beta1 beta2")


# the certificate at max_exponent = mu, its window read through t^(mu+1):
# the least coefficient seen there, its exponent (up to mu + 1) and the
# verdict
PositivityReport = namedtuple(
    "PositivityReport", "n k max_exponent min_coeff min_exponent verdict")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _coeff_of_product(xc: FracSeries, y: FracSeries, e: int, k: int = 1):
    """[t^e] X*y on the integer grid, X(t) = xc(t^k): one exact dot product
    of xc with y's slots e, e - k, e - 2k, ... (X and y must be kept through
    t^e: the callers raise OutOfTruncation)."""
    ys = y.coeffs
    if len(ys) <= e:
        ys = ys + [0] * (e + 1 - len(ys))
    return sum(map(operator.mul, xc.coeffs, ys[e::-k]))


def _coset_mul(xc: FracSeries, z: FracSeries, k: int) -> FracSeries:
    """X*z on the integer grid, X(t) = xc(t^k), cut at min(k*T_xc, T_z).

    Slot r + k*m of X*z is [u^m] xc * z_r with z_r(u) = sum_m z[r + k*m] u^m,
    so the product is k products of about T/k slots, one per residue class
    r of z's exponents mod k, each of which mul may take by Kronecker or
    Karatsuba.
    """
    if k == 1:
        return mul(xc, z)
    ns = min(k * xc.T, z.T)
    out = [0] * ns
    for r in range(min(k, ns)):
        zr = FracSeries(1, len(range(r, ns, k)), z.coeffs[r:ns:k])
        out[r::k] = mul(xc, zr).coeffs
    return FracSeries(1, ns, out)


def _theta0(k: int, T) -> FracSeries:
    """f0c with f0(t) = f0c(t^k) on the integer grid, cut at ceil(T/k), for
    f0 the theta function of 2kZ cut at T (modforms.theta_f).

    f0 sums t^(x^2/4k) = t^(k*y^2) over x = 2ky, so f0c =
    1 + 2*sum_{y>=1} u^(y^2), Jacobi's theta3 for every k.
    """
    terms = theta_terms(k, 0, T)  # raises InvalidModulus before T // k
    return FracSeries.from_terms(-(-T // k),
                                 {x2 // (4 * k * k): c for x2, c in terms})


def _theta_h(k: int, a: int, b: int, T: int) -> FracSeries:
    """f0^a * h^b on the integer grid, cut at T, from its logarithmic
    derivative.  By Jacobi's triple product f0(t) = P(t^2k)^5 / (P(t^k)^2 *
    P(t^4k)^2), and t * d/dt log P(t^c) = -c * sum_N sigma1(N) t^(cN), so
    L = t*H'/H has small integer coefficients and n*H_n = sum_{i=1..n} L_i *
    H_(n-i), Euler's recurrence for partitions."""
    sig = _eisenstein(T, 1, 1).coeffs
    lg = [24 * b * s for s in sig]
    for c, f in ((k, 2 * k), (2 * k, -10 * k), (4 * k, 8 * k)):
        lg[c::c] = map(operator.add, lg[c::c], [a * f * s for s in sig[1:]])
    out = [1]
    for n in range(1, T):
        q, rem = divmod(sum(map(operator.mul, lg[n:0:-1], out)), n)
        if rem:
            raise ArithmeticError(f"inexact slot {n} of f0^{a} h^{b}")
        out.append(q)
    return FracSeries(1, T, out)


def _b_at(x: FracSeries, y: FracSeries, s: int) -> int:
    """b_{2s} = [t^s] x*y."""
    if min(x.T, y.T) <= s:
        raise OutOfTruncation(f"[t^{s}] needs truncation above {s}")
    return _coeff_of_product(x, y, s)


def b_coefficients(n: int, k: int) -> list:
    """b_{2s} for s = 0..mu+2 by Lagrange-Buermann: _b_at(R * w^s, s) with
    R = theta1^j * E6 * E4^(-j-1), theta1^j = f0^(8j), walked as giant R,
    step w and the one factor w at offset s - 1."""
    j, mu, _ = shape(n)
    count = mu + 3
    f0c, e4 = _theta0(k, count), eisenstein_e4(count)
    w = mul(mul(mul(e4, e4), e4), h_series(count))
    r = mul(_coset_mul(power(f0c, 8 * j), eisenstein_e6(count), k),
            power(e4, -j - 1))
    walk = _walk(lambda m, ds: itertools.accumulate(
        [power(w, m)] * (len(ds) - 1), mul, initial=r),
        w, {0: [w]}, [(d, 0) for d in range(count - 1)])
    return [1] + [_b_at(g, x, s) for s, (g, [x]) in enumerate(walk, 1)]


def beta_stars(n: int, k: int):
    """(beta1, beta2) = forced tail coefficients of the extremal series."""
    _check_length(n)
    return _betas_from_b(*_tail_chunk(k, [n])[0])


def _threshold(n: int) -> int:
    """24*mu - 240*nu + 744 = -[t^(mu+2)] E4^(j-3(mu+1)) * Delta^(mu+1), so
    beta2 = -b_{2(mu+2)} + b_{2(mu+1)} * threshold."""
    _, mu, nu = shape(n)
    return 24 * mu - 240 * nu + 744


def _betas_from_b(n: int, b1: int, b2: int):
    """(beta1, beta2) from b1 = b_{2(mu+1)} and b2 = b_{2(mu+2)}."""
    return -b1, -b2 + b1 * _threshold(n)


def profile(n: int, k: int) -> ExtremalProfile:
    """Full per-(n, k) record: shape, b-list, beta values."""
    j, mu, nu = shape(n)
    b = b_coefficients(n, k)
    beta1, beta2 = _betas_from_b(n, b[mu + 1], b[mu + 2])
    return ExtremalProfile(n=n, k=k, j=j, mu=mu, nu=nu, b=b,
                           beta1=beta1, beta2=beta2)


# ---------------------------------------------------------------------------
# positivity certificate (Theorem 1.1 machinery)
# ---------------------------------------------------------------------------

def _theta_bracket(th1c: FracSeries, e4: FracSeries, k: int) -> FracSeries:
    """t * (theta1 * E4' - theta1' * E4) on the integer grid (exact ints),
    theta1(t) = th1c(t^k), as theta1 * euler_scaled(E4) -
    euler_scaled(theta1) * E4, where euler_scaled(theta1)(t) =
    k * euler_scaled(th1c)(t^k)."""
    return linear_combine(_coset_mul(th1c, euler_scaled(e4), k),
                          _coset_mul(euler_scaled(th1c), e4, k), 1, -k)


def _f_bracket(k: int, i: int, f0c: FracSeries, T: int):
    """(r, B) with 4k * t * (f0 * f_i' - f0' * f_i) = t^(r/4k) * B, cut at
    T, for f0(t) = f0c(t^k) and f_i the theta function of 2kZ + i
    (modforms.theta_f).

    f0 lives on t^Z and f_i on the coset i^2/4k + Z, so the bracket sits on
    that coset too, r = i^2 mod 4k.  It is summed from lattice terms: f0's
    from f0c, f_i's from theta_terms.  Each pair c0 * t^(x^2/4k) of f0 and
    ci * t^(y^2/4k) of f_i adds c0 * ci * (y^2 - x^2) to slot
    (x^2 + y^2 - r)/4k of B, an integer-grid series of exact ints.  A pair
    off the coset raises GridViolation.
    """
    D = 4 * k
    r, ns, yterms = i * i % D, D * T, theta_terms(k, i, T)
    out = [0] * len(range(r, ns, D))
    for m, c0 in f0c.nonzero_terms():
        x2 = D * k * m
        for y2, ci in yterms:
            if x2 + y2 >= ns:
                break
            if (x2 + y2 - r) % D:
                raise GridViolation(
                    f"f-bracket k={k}, i={i} off the coset {r}/{D} + Z")
            out[(x2 + y2) // D] += c0 * ci * (y2 - x2)
    return r, FracSeries(1, T, out)


def _certificate_factors(k: int, T):
    """f0c and (bracket, [(r_i, f0^7 * B_i) for i = 1..k]), all on the
    integer grid, f0(t) = f0c(t^k).

    f0^(8j-1) = theta1^(j-1) * f0^7, so every certificate layer at n = 8j
    is theta1^(j-1) times the bracket or one of the f0^7 * B_i.  One f0
    gives them all, theta1 = f0^8.
    """
    f0c = _theta0(k, T)
    f07c = power(f0c, 7)
    brks = [_f_bracket(k, i, f0c, T) for i in range(1, k + 1)]
    return f0c, (_theta_bracket(power(f0c, 8), eisenstein_e4(T), k),
                 [(r, _coset_mul(f07c, b, k)) for r, b in brks])


def _verdict(th1pow: FracSeries, cert, k: int, held: list, mu: int):
    """(verdict, least coefficient, 4k times its exponent, head, held) of
    the window slots, exponents through mu + 1, of theta1^(j-1) =
    th1pow(t^k) times each factor of cert (conditions:
    positivity_certificate), each slot one strided _coeff_of_product.
    held[0] (head layer) and held[i] (f-layer i) give the last slot through
    which a layer is known to hold; only later slots are read, and the new
    prefixes are returned.  The head layer comes first, slots 1..mu+1 (slot
    0 is B(0) = 0), each entering the least coefficient, head true if it
    holds through mu + 1; then the f-layers i = 1..k, slot s at exponent
    s + r/4k, only nonzero slots entering; the first minimum wins.
    held = [-1] * (k + 1) reads the whole window.

    The sweep passes the prefixes of a shorter length, with a lower power of
    theta1.  theta1 is the theta series of sqrt(2k)*Z^8: its coefficients
    are nonnegative and its constant term is 1, so a layer L whose slots
    0..e are all >= 0 has [t^e] theta1^d * L >= [t^e] L for d >= 0.  A held
    prefix is such a run, so it still holds.
    """
    bracket, fparts = cert
    if min(k * th1pow.T, bracket.T, *(f.T for _, f in fparts)) <= mu + 1:
        raise OutOfTruncation(f"[t^{mu + 1}] needs truncation above {mu + 1}")
    D, min_c, min_e, out, ok = 4 * k, math.inf, None, [], True
    for i, (r, f) in enumerate([(0, bracket)] + fparts):
        h = held[i] if i else max(held[0], 0)
        top = mu + (r == 0)
        for s in range(h + 1, top + 1):
            c = _coeff_of_product(th1pow, f, s, k)
            if h == s - 1 and (c > 0 if not i or s == i * i // D else c >= 0):
                h = s
            if (c or not i) and c < min_c:
                min_c, min_e = c, s * D + r
        out.append(h)
        ok = ok and h >= top
    return ok, min_c, min_e, out[0] > mu, out


def positivity_certificate(n: int, k: int) -> PositivityReport:
    """Check the positivity that drives the d_E bound at this (n, k).

    Two layers, both exact, read through exponent mu + 1:
      * t * theta1^(j-1) * (theta1 E4' - theta1' E4): every integer
        t-exponent 1..mu+1 must carry a strictly positive coefficient
        (this is the series the proof needs positive up to exponent mu).
      * for each i = 1..k, the scaled combination
        4k * t * f0^(8j-1) * (f0 f_i' - f0' f_i), which lives on the coset
        i^2/4k + Z: no coefficient with exponent <= mu+1 may be negative,
        and the leading exponent i^2/(4k) must be positive when it lies in
        that window.  Its coefficient is w_i * i^2 > 0 (w_i = 2 for i = k,
        else 1; f0(0) = 1), so past the window it holds by construction.
        Exponents absent from the underlying lattice sum carry coefficient
        zero and do not fail the certificate.
    """
    from fractions import Fraction
    j, mu, nu = shape(n)
    f0c, cert = _certificate_factors(k, mu + 2)
    ok, min_c, min_e, _, _ = _verdict(power(f0c, 8 * (j - 1)), cert, k,
                                      [-1] * (k + 1), mu)
    return PositivityReport(n=n, k=k, max_exponent=mu, min_coeff=min_c,
                            min_exponent=Fraction(min_e, 4 * k), verdict=ok)


# ---------------------------------------------------------------------------
# sweep drivers (incremental in j, deterministic merges)
# ---------------------------------------------------------------------------

ScanRow = namedtuple("ScanRow", "n beta1 beta2")


# ScanRows sorted by n; first_negative is the least n with beta2 < 0, or
# None
ScanResult = namedtuple("ScanResult", "k rows first_negative")


def _map_chunks(chunk, k: int, ns_list: list, workers: int) -> list:
    """chunk(k, run) over ascending runs of ns_list, concatenated in order.

    Up to `workers` contiguous runs, at most the CPU count at once; ex.map
    returns the parts in submission order, so the rows come out sorted by n.
    """
    if workers <= 1 or len(ns_list) < 2 * workers:
        return chunk(k, ns_list)
    import concurrent.futures
    import os
    size = (len(ns_list) + workers - 1) // workers
    runs = [ns_list[i:i + size] for i in range(0, len(ns_list), size)]
    pool = min(len(runs), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=pool) as ex:
        parts = list(ex.map(chunk, [k] * len(runs), runs))
    return [r for part in parts for r in part]


def _walk(giants, step: FracSeries, factors: dict, keyed: list):
    """Yield (g, babies) for each (d, key) of keyed, ascending in d >= 0,
    with [t^e] g * babies[i] = [t^e] G_0 * step^d * factors[key][i].

    Baby-step giant-step: for d = m*q + r, g = G_(m*q) = G_0 * step^(m*q)
    and babies[i] = step^r * factors[key][i]; giants(m, ds) yields G_d for
    the ascending offsets ds, only those that keyed reads.  Over a span of
    S values of d and f factors that is about S/m giants and f*(m - 1) baby
    products; a giant costs one to two babies (2.5 ms against 1.4-2.4 at
    the scan's 236-slot window), so m = isqrt(2*S // f), at least 1
    (isqrt(S // f) was 3% faster on the scan, 10% slower at 1003 slots).
    """
    span = keyed[-1][0] + 1 if keyed else 0
    m = max(1, math.isqrt(2 * span // sum(map(len, factors.values()))))
    babies = {key: [list(itertools.accumulate([step] * (m - 1), mul,
                                              initial=f)) for f in fs]
              for key, fs in factors.items()}
    gs, d_g = iter(giants(m, sorted({d - d % m for d, _ in keyed}))), None
    for d, key in keyed:
        if d - d % m != d_g:
            d_g, g = d - d % m, next(gs)
        yield g, [b[d % m] for b in babies[key]]


def _tail_chunk(k: int, ns_list: list) -> list:
    """(n, b_{2(mu+1)}, b_{2(mu+2)}) for an ascending run of lengths.

    They are [t^s] X * Z * h^s at s = mu+1, mu+2, with X = theta1^j,
    Z1 = E6 * E4^(2-nu) and Z2 = Z1 * E4^3.  One f0 serves the run; other
    powers of theta1 = f0^8 and h = P^(-24) come from Miller's recurrence
    over the lacunary f0c on u = t^k or P.  A run of one length leaves only
    two X * Z products, k products each (one per residue class), and the
    two dots dense.  A run of two or more walks G_mu of _tail_setup from
    the run's least mu0 by its step, offset mu - mu0 and key nu, each giant
    read built by _theta_h: the b's are [t^(mu+1)] G_mu * Q_nu and
    [t^(mu+2)] G_mu * Q_nu * w.
    """
    if not ns_list:
        return []
    if len(ns_list) == 1:
        n = ns_list[0]
        j, mu, nu = shape(n)
        T, f0c, e4s, e6 = _tail_factors(k, ns_list)
        x = power(f0c, 8 * j)
        z1 = mul(e6, e4s[2 - nu])
        z2 = mul(z1, e4s[3])
        return [(n, _b_at(_coset_mul(x, z1, k), h_series(T, mu + 1), mu + 1),
                 _b_at(_coset_mul(x, z2, k), h_series(T, mu + 2), mu + 2))]
    h, step, qs = _tail_setup(k, ns_list)
    mu0 = ns_list[0] // 24
    walk = _walk(lambda m, ds: (_theta_h(k, 24 * (mu0 + d), mu0 + d + 1, h.T)
                                for d in ds), step, qs,
                 [(n // 24 - mu0, n // 8 % 3) for n in ns_list])
    return [(n, _b_at(g, q, n // 24 + 1), _b_at(g, qw, n // 24 + 2))
            for n, (g, (q, qw)) in zip(ns_list, walk)]


def _tail_factors(k: int, ns_list: list):
    """(T, f0c, [1, E4, E4^2, E4^3], E6) for a run of lengths, cut at
    T = n_max // 24 + 3, past the slot mu + 2 of its longest length."""
    T = ns_list[-1] // 24 + 3
    f0c, e4, e6 = _theta0(k, T), eisenstein_e4(T), eisenstein_e6(T)
    return (T, f0c,
            [FracSeries.constant(1, T), *itertools.accumulate([e4] * 3, mul)],
            e6)


def _tail_setup(k: int, ns_list: list):
    """(h, step, qs): the exact operands of a run's walk, cut at the T of
    _tail_factors.

    The run's giants are G_mu = theta1^(3mu) * h^(mu+1) = h * step^mu, step
    = theta1^3 * h, and qs maps each nu of the run to [Q_nu, Q_nu * w], w =
    E4^3 * h and Q_nu = theta1^nu * E4^(2-nu) * E6.  h and step have
    positive coefficients; Q_nu has E6's mixed signs.
    """
    T, f0c, e4s, e6 = _tail_factors(k, ns_list)
    h = h_series(T)
    w, step = mul(e4s[3], h), _coset_mul(power(f0c, 24), h, k)
    qs = {nu: mul(_coset_mul(power(f0c, 8 * nu), e4s[2 - nu], k), e6)
          for nu in {n // 8 % 3 for n in ns_list}}
    return h, step, {nu: [q, mul(q, w)] for nu, q in qs.items()}


def _lengths(n_from: int, n_to: int) -> list:
    """The lengths n = 0 mod 8 of [n_from, n_to], for a crossover scan."""
    _check_length(n_from)
    if n_to < n_from:
        raise InvalidRange(f"empty range {n_from}..{n_to}")
    return list(range(n_from, n_to + 1, 8))


def crossover_scan(k: int, n_from: int, n_to: int,
                   workers: int = 1) -> ScanResult:
    """Exact beta1/beta2 for every n = 0 mod 8 in [n_from, n_to].

    Reports the least n with beta2 < 0 (None if no sign change in range).
    Worker count only affects wall time; the merged table is sorted by n.
    """
    rows = [ScanRow(n, *_betas_from_b(n, b1, b2)) for n, b1, b2 in
            _map_chunks(_tail_chunk, k, _lengths(n_from, n_to), workers)]
    first = next((r.n for r in rows if r.beta2 < 0), None)
    return ScanResult(k=k, rows=rows, first_negative=first)


Theorem1Row = namedtuple("Theorem1Row", "n beta1_positive positivity")


def theorem1_sweep(k: int, n_max: int, workers: int = 1) -> list:
    """beta1 > 0 plus positivity certificate for all n = 0 mod 8 up to n_max.

    Incremental over j along each worker's run: each certificate layer reads
    only past the prefix it has certified (_verdict), and beta1 > 0 comes off
    the head layer (_theorem1_chunk).  Results equal the per-n operations.
    """
    _check_length(n_max)
    return _map_chunks(_theorem1_chunk, k, list(range(8, n_max + 1, 8)),
                       workers)


def _theorem1_chunk(k: int, ns_list: list) -> list:
    """Theorem1Row for an ascending run of lengths, all on the integer grid.

    The certificate rides the upward walk of theta1^(j-1): f0^(8j-1) =
    theta1^(j-1) * f0^7, so each layer is theta1^(j-1) times a factor fixed
    per run.  The window grows only with mu: once every layer holds at some
    mu, the other lengths of that mu read nothing, and a length that reads
    takes theta1^(j-1) = f0^(8(j-1)) by Miller over the lacunary f0c.  The
    E6 form of the module docstring equals the bracket form: with the
    bracket B = t*(theta1*E4' - theta1'*E4), t*phi' = -j * theta1^(j-1) *
    E4^(-j-1) * B, so at s = mu + 1, b_{2s} = -(j/s) * sum_{e=1..s} c_e *
    Y_(s-e) with c_e = [t^e] theta1^(j-1) * B, c_0 = B(0) = 0, and
    Y = E4^(2-nu) * h^s, all of whose coefficients are >= 1 like those of
    E4 and h.  So where the head layer holds (c_e > 0, e = 1..s), beta1 =
    -b_{2s} > 0; only where it fails is beta1 computed, by beta_stars.
    """
    if not ns_list:
        return []
    f0c, cert = _certificate_factors(k, ns_list[-1] // 24 + 2)
    rows, held, done = [], [-1] * (k + 1), None  # done: mu where all held
    for n in ns_list:
        j, mu, _ = shape(n)
        if mu == done:
            rows.append(Theorem1Row(n, True, True))
            continue
        ok, _, _, head, held = _verdict(power(f0c, 8 * (j - 1)), cert, k,
                                        held, mu)
        done = mu if ok else None
        rows.append(Theorem1Row(n, head or beta_stars(n, k)[0] > 0, ok))
    return rows
