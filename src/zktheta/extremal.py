"""Extremal theta-series coefficients for Type II Z_2k-codes.

The chain is: theta0 = theta1^j is the theta series of the sublattice
sqrt(2k)*Z^n inside the Construction A lattice; b_{2s} are the coefficients
of E4^{-j} * theta0 expanded in powers of u = Delta / E4^3.  Matching
psi = theta1 / E4 against powers of u once gives G_k, the b-list of n = 8;
since substituting u is a ring map, the b-list of n = 8j is G_k^j.  The
putative extremal theta series is sum_{s<=mu} b_{2s} E4^{j-3s} Delta^s, and
its forced tail coefficients beta1 = beta*_{2(mu+1)}, beta2 = beta*_{2(mu+2)}
decide existence.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (GridViolation, InvalidLength, InvalidRange,
                     PrecisionTooSmall)
from .modforms import delta24, eisenstein_e4, h_series, theta1, theta_f
from .series import (
    FracSeries,
    differentiate,
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


@dataclass
class ExtremalProfile:
    n: int
    k: int
    j: int
    mu: int
    nu: int
    b: list  # b_{2s}, s = 0..mu+2, exact integers
    beta1: int
    beta2: int

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "j": self.j,
            "mu": self.mu,
            "nu": self.nu,
            "b": [str(v) for v in self.b],
            "beta1": str(self.beta1),
            "beta2": str(self.beta2),
        }


@dataclass
class PositivityReport:
    n: int
    k: int
    max_exponent: int  # checked up to this t-exponent (= mu)
    min_coeff: object  # smallest coefficient seen in the checked window
    min_exponent: Fraction
    verdict: bool

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "max_exponent": self.max_exponent,
            "min_coeff": str(self.min_coeff),
            "min_exponent": str(self.min_exponent),
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _g_series(k: int, N: int) -> FracSeries:
    """G_k = sum_s b_{2s}(8, k) x^s, the b-list of n = 8, truncated at x^N.

    Peels psi = theta1 / E4 by coefficient matching against a running power
    of u = Delta / E4^3: u = t + O(t^2), so after subtracting b_{2r} u^r for
    r < s the residual starts at t^s with coefficient b_{2s}.
    """
    e4 = eisenstein_e4(N)
    u = mul(delta24(N), power(e4, -3))
    resid = list(mul(theta1(k, N), power(e4, -1)).coeffs)
    upow = FracSeries.constant(1, N)
    b = []
    for s in range(N):
        bs = resid[s]
        b.append(bs)
        if bs:
            for e, c in upow.nonzero_terms():
                resid[e] -= bs * c
        upow = mul(upow, u)
    return FracSeries(1, N, b)


def b_coefficients(n: int, k: int, extra: int = 0) -> list:
    """b_{2s} for s = 0..mu+extra, read off G_k^(n/8).

    Substituting u = Delta / E4^3 is a ring map, so phi = psi^j expands in
    powers of u as G_k(u)^j with G_k the b-list of n = 8.
    """
    _check_length(n)
    if extra < 0:
        raise ValueError("extra must be >= 0")
    _, mu, _ = shape(n)
    count = mu + extra + 1
    bpow = power(_g_series(k, count), n // 8)
    return [bpow.coeff_index(s) for s in range(count)]


def b_coefficients_burmann(n: int, k: int, extra: int = 0) -> list:
    """Same contract as b_coefficients via the Buermann derivative form.

    b_{2s} = (1/s) * [t^(s-1)] ( phi' * (t*E4^3/Delta)^s ) for s >= 1,
    with phi = E4^{-j} theta0; an independent second path used as an oracle
    against the matching extraction.
    """
    _check_length(n)
    if extra < 0:
        raise ValueError("extra must be >= 0")
    _, mu, _ = shape(n)
    count = mu + extra + 1
    ns = count + 1  # phi' loses one term
    e4 = eisenstein_e4(ns)
    psi = mul(theta1(k, ns), power(e4, -1))
    phi = power(psi, n // 8)
    dphi = differentiate(phi)
    v = mul(power(e4, 3), h_series(ns - 1))  # t * E4^3 / Delta
    b = [phi.coeff_index(0)]
    for s in range(1, count):
        c = mul(dphi, power(v, s)).coeff_index(s - 1)
        bs = Fraction(c, s)
        if bs.denominator != 1:
            raise ArithmeticError(f"non-integral b at s={s}: {bs}")
        b.append(bs.numerator)
    return b


def beta_stars(n: int, k: int):
    """(beta1, beta2) = forced tail coefficients of the extremal series."""
    j, mu, nu = shape(n)
    b = b_coefficients(n, k, extra=2)
    return _betas_from_b(b, mu, nu)


def _betas_from_b(b: list, mu: int, nu: int):
    beta1 = -b[mu + 1]
    beta2 = -b[mu + 2] + b[mu + 1] * (24 * mu - 240 * nu + 744)
    return beta1, beta2


def profile(n: int, k: int) -> ExtremalProfile:
    """Full per-(n, k) record: shape, b-list, beta values."""
    j, mu, nu = shape(n)
    b = b_coefficients(n, k, extra=2)
    beta1, beta2 = _betas_from_b(b, mu, nu)
    return ExtremalProfile(n=n, k=k, j=j, mu=mu, nu=nu, b=b,
                           beta1=beta1, beta2=beta2)


def extremal_theta(n: int, k: int, T) -> FracSeries:
    """sum_{s<=mu} b_{2s} E4^{j-3s} Delta^s, truncated at T.

    Summed as E4^j * sum_s b_{2s} u^s with u = Delta * E4^(-3), by Horner.
    """
    j, mu, _ = shape(n)
    T = Fraction(T)
    if T <= mu + 2:
        raise PrecisionTooSmall(f"need T > mu+2 = {mu + 2}, got {T}")
    e4 = eisenstein_e4(T)
    u = mul(delta24(T), power(e4, -3))
    acc = FracSeries.constant(0, T)
    for bs in reversed(b_coefficients(n, k)):
        acc = mul(acc, u) + bs
    return mul(power(e4, j), acc)


def eq3_value(s: int, k: int, y: int, xs) -> Fraction:
    """((s+2)*(1+2ky)^2 - l) / 4k with l the summed square norm.

    xs supplies the s+1 free lattice coordinates; positive whenever l < s+2.
    """
    xs = list(xs)
    if len(xs) != s + 1:
        raise ValueError(f"need s+1 = {s + 1} coordinates, got {len(xs)}")
    head = (1 + 2 * k * y) ** 2
    l = head + sum((2 * k * x) ** 2 for x in xs)
    return Fraction((s + 2) * head - l, 4 * k)


# ---------------------------------------------------------------------------
# positivity certificate (Theorem 1.1 machinery)
# ---------------------------------------------------------------------------

def _theta_bracket(k: int, T):
    """t * (theta1 * E4' - theta1' * E4) on the integer grid (exact ints)."""
    e4 = eisenstein_e4(T)
    th1 = theta1(k, T)
    return linear_combine(
        mul(th1, euler_scaled(e4)), mul(euler_scaled(th1), e4), 1, -1
    ), th1


def _f_bracket(k: int, i: int, T):
    """(r, B) with 4k * t * (f0 * f_i' - f0' * f_i) = t^(r/4k) * B.

    f0 lives on t^Z and f_i on the coset i^2/4k + Z, so the bracket, formed
    on the 1/(4k) grid, sits on that coset too: r = i^2 mod 4k and B, its
    slots r, r + 4k, ..., is an integer-grid series of exact ints.  A
    nonzero coefficient off the coset raises GridViolation.
    """
    D = 4 * k
    f0 = theta_f(k, 0, T)
    fi = theta_f(k, i, T)
    brk = linear_combine(mul(f0, euler_scaled(fi)),
                         mul(euler_scaled(f0), fi), 1, -1)
    r = i * i % D
    if any(any(brk.coeffs[s::D]) for s in range(D) if s != r):
        raise GridViolation(f"f-bracket k={k}, i={i} off the coset {r}/{D} + Z")
    return r, FracSeries(1, T, brk.coeffs[r::D])


def _certificate_factors(k: int, T):
    """theta1 and (bracket, [(r_i, f0^7 * B_i) for i = 1..k]), all on t^Z.

    f0^(8j-1) = theta1^(j-1) * f0^7, so every certificate layer at n = 8j
    is theta1^(j-1) times the bracket or one of the f0^7 * B_i.
    """
    bracket, th1 = _theta_bracket(k, T)
    f07 = power(theta_f(k, 0, T).regrid(1), 7)
    brks = [_f_bracket(k, i, T) for i in range(1, k + 1)]
    return th1, (bracket, [(r, mul(f07, b)) for r, b in brks])


def _positivity(s1: FracSeries, pis: list, k: int, mu: int):
    """(verdict, least coefficient, its exponent) of the certificate series.

    s1 is the integer-grid layer; (r, pi) = pis[i-1] is the layer
    t^(r/4k) * pi for i = 1..k, whose exponents <= mu + 1 are pi's slots
    0..mu+1 if r = 0, else 0..mu (conditions: positivity_certificate).  The
    least coefficient is the first minimum over s1 at t^1..t^(mu+1), then
    the nonzero terms of each pi's window, in that order.
    """
    head = [s1.coeff_index(e) for e in range(1, mu + 2)]
    min_c = min(head)
    min_e = Fraction(head.index(min_c) + 1)
    ok = min_c > 0
    D = 4 * k
    for i, (r, pi) in enumerate(pis, start=1):
        window = pi.coeffs[:mu + 2 if r == 0 else mu + 1]
        # the leading exponent i^2/4k must carry a positive coefficient
        if pi.coeff_index(i * i // D) <= 0 or min(window, default=0) < 0:
            ok = False
        least = min((c for c in window if c), default=None)
        if least is not None and least < min_c:
            min_c, min_e = least, Fraction(window.index(least) * D + r, D)
    return ok, min_c, min_e


def _certify(th1pow: FracSeries, cert, k: int, mu: int):
    """_positivity of theta1^(j-1) times each fixed factor, cut at mu + 2."""
    bracket, fparts = cert
    T = mu + 2
    return _positivity(mul(th1pow, bracket.truncate(T)),
                       [(r, mul(th1pow, f.truncate(T))) for r, f in fparts],
                       k, mu)


def positivity_certificate(n: int, k: int) -> PositivityReport:
    """Check the positivity that drives the d_E bound at this (n, k).

    Two layers, both exact:
      * t * theta1^(j-1) * (theta1 E4' - theta1' E4): every integer
        t-exponent 1..mu+1 must carry a strictly positive coefficient
        (this is the series the proof needs positive up to exponent mu).
      * for each i = 1..k, the scaled combination
        4k * t * f0^(8j-1) * (f0 f_i' - f0' f_i), which lives on the coset
        i^2/4k + Z: no coefficient with exponent <= mu+1 may be negative,
        and the leading exponent i^2/(4k) must be positive.  Exponents
        absent from the underlying lattice sum carry coefficient zero and
        do not fail the certificate.
    """
    j, mu, nu = shape(n)
    th1, cert = _certificate_factors(k, mu + 2)
    ok, min_c, min_e = _certify(power(th1, j - 1), cert, k, mu)
    return PositivityReport(n=n, k=k, max_exponent=mu, min_coeff=min_c,
                            min_exponent=min_e, verdict=ok)


# ---------------------------------------------------------------------------
# sweep drivers (incremental in j, deterministic merges)
# ---------------------------------------------------------------------------

@dataclass
class ScanRow:
    n: int
    beta1: int
    beta2: int


@dataclass
class ScanResult:
    k: int
    rows: list
    first_negative: Optional[int]  # least n with beta2 < 0, if any

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "first_negative": self.first_negative,
            "rows": [
                {"n": r.n, "beta1": str(r.beta1), "beta2": str(r.beta2)}
                for r in self.rows
            ],
        }


def _map_chunks(chunk, k: int, ns_list: list, workers: int) -> list:
    """chunk(k, run) over ascending runs of ns_list, concatenated in order.

    Each of up to `workers` processes takes one contiguous run; ex.map
    returns the parts in submission order, so the rows come out sorted by n.
    """
    if workers <= 1 or len(ns_list) < 2 * workers:
        return chunk(k, ns_list)
    size = (len(ns_list) + workers - 1) // workers
    runs = [ns_list[i:i + size] for i in range(0, len(ns_list), size)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(chunk, [k] * len(runs), runs))
    return [r for part in parts for r in part]


def _scan_chunk(k: int, ns_list: list) -> list:
    """beta values for an ascending run of lengths; G_k^j steps by one mul."""
    if not ns_list:
        return []
    g = _g_series(k, ns_list[-1] // 24 + 3)
    j = ns_list[0] // 8
    bpow = power(g, j)
    rows = []
    for n in ns_list:
        while 8 * j < n:
            bpow = mul(bpow, g)
            j += 1
        _, mu, nu = shape(n)
        beta1, beta2 = _betas_from_b(bpow.coeffs, mu, nu)
        rows.append(ScanRow(n=n, beta1=beta1, beta2=beta2))
    return rows


def crossover_scan(k: int, n_from: int, n_to: int,
                   workers: int = 1) -> ScanResult:
    """Exact beta1/beta2 for every n = 0 mod 8 in [n_from, n_to].

    Reports the least n with beta2 < 0 (None if no sign change in range).
    Worker count only affects wall time; the merged table is sorted by n.
    """
    _check_length(n_from)
    if n_to < n_from:
        raise InvalidRange(f"empty range {n_from}..{n_to}")
    rows = _map_chunks(_scan_chunk, k, list(range(n_from, n_to + 1, 8)),
                       workers)
    first = next((r.n for r in rows if r.beta2 < 0), None)
    return ScanResult(k=k, rows=rows, first_negative=first)


@dataclass
class Theorem1Row:
    n: int
    beta1: int
    positivity: bool


def theorem1_sweep(k: int, n_max: int, workers: int = 1) -> list:
    """beta1 > 0 plus positivity certificate for all n = 0 mod 8 up to n_max.

    Incremental over j: each step multiplies G_k^j and theta1^(j-1) by one
    more factor, and each length costs k + 1 products with the fixed
    certificate factors; results identical to the per-n operations.
    """
    _check_length(n_max)
    return _map_chunks(_theorem1_chunk, k, list(range(8, n_max + 1, 8)),
                       workers)


def _theorem1_chunk(k: int, ns_list: list) -> list:
    """Theorem1Row for an ascending run of lengths, all on the integer grid.

    f0^(8j-1) = theta1^(j-1) * f0^7: theta1^(j-1) is the only running power
    of the certificate, times factors fixed per chunk.
    """
    if not ns_list:
        return []
    T = ns_list[-1] // 24 + 2
    j = ns_list[0] // 8
    # beta1 track
    g = _g_series(k, T)
    bpow = power(g, j)
    # positivity track
    th1, cert = _certificate_factors(k, T)
    th1pow = power(th1, j - 1)
    rows = []
    for n in ns_list:
        while 8 * j < n:
            bpow = mul(bpow, g)
            th1pow = mul(th1pow, th1)
            j += 1
        _, mu, _ = shape(n)
        ok = _certify(th1pow, cert, k, mu)[0]
        rows.append(Theorem1Row(n=n, beta1=-bpow.coeffs[mu + 1],
                                positivity=ok))
    return rows
