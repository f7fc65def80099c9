"""Extremal theta-series coefficients for Type II Z_2k-codes.

The chain is: theta0 = theta1^j is the theta series of the sublattice
sqrt(2k)*Z^n inside the Construction A lattice; b_{2s} are the coefficients
of phi = E4^{-j} * theta0 expanded in powers of u = Delta / E4^3.  With the
bracket B = t*(theta1*E4' - theta1'*E4) and w = t/u = E4^3 * h,
t*phi' = -j * theta1^(j-1) * E4^(-j-1) * B, so Lagrange-Buermann gives

    b_{2s} = -(j/s) * [t^s] theta1^(j-1) * B * E4^(3s-j-1) * h^s   (s >= 1)

and b_0 = 1; at s = mu+1 and mu+2 the E4 exponent is 2-nu and 5-nu.  Every
b is one dot product of a running product against a factor fixed per run:
the tail b's dot C_mu = theta1^(3mu) * B * h^(mu+1), stepped once per mu,
against Q_nu = theta1^(nu-1) * E4^(2-nu) and Q_nu * w; the full b-list
steps R * w^(m*g) by a giant w^m and dots it against baby powers of w.  The
putative extremal theta series is sum_{s<=mu} b_{2s} E4^{j-3s} Delta^s, and
its forced tail coefficients beta1 = beta*_{2(mu+1)}, beta2 = beta*_{2(mu+2)}
decide existence.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (GridViolation, InvalidLength, InvalidRange,
                     OutOfTruncation, PrecisionTooSmall)
from .modforms import delta24, eisenstein_e4, h_series, theta1, theta_f
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

def _b_at(x: FracSeries, y: FracSeries, j: int, s: int) -> int:
    """b_{2s} = -(j/s) * [t^s] x*y, an exact division (else ArithmeticError)."""
    if min(x.T, y.T) <= s:
        raise OutOfTruncation(f"[t^{s}] needs truncation above {s}")
    ys = y.coeffs[:s + 1]
    ys += [0] * (s + 1 - len(ys))
    dot = sum(map(operator.mul, x.coeffs[:s + 1], reversed(ys)))
    b, rem = divmod(-j * dot, s)
    if rem:
        raise ArithmeticError(f"non-integral b at s={s}")
    return b


def b_coefficients(n: int, k: int, extra: int = 0) -> list:
    """b_{2s} for s = 0..mu+extra by Lagrange-Buermann, baby-step giant-step.

    With R = theta1^(j-1) * B * E4^(-j-1) and m = isqrt(count - 1) + 1,
    b_{2s} = _b_at(R * w^(m*g), w^r) for s = m*g + r: the baby powers
    w^0..w^(m-1) are kept and R * w^(m*g) steps by the giant w^m, so the
    whole list costs about 2*sqrt(count) products.
    """
    _check_length(n)
    if extra < 0:
        raise ValueError("extra must be >= 0")
    j, mu, _ = shape(n)
    count = mu + extra + 1
    bracket, th1 = _theta_bracket(k, count)
    e4 = eisenstein_e4(count)
    w = mul(power(e4, 3), h_series(count))
    m = math.isqrt(count - 1) + 1
    baby = list(itertools.accumulate([w] * (m - 1), mul, initial=power(w, 0)))
    giant = mul(baby[-1], w)
    r = mul(mul(power(th1, j - 1), bracket), power(e4, -j - 1))
    b = [1]
    for s in range(1, count):
        if s % m == 0:
            r = mul(r, giant)
        b.append(_b_at(r, baby[s % m], j, s))
    return b


def beta_stars(n: int, k: int):
    """(beta1, beta2) = forced tail coefficients of the extremal series."""
    _check_length(n)
    return _betas_from_b(*_tail_chunk(k, [n])[0])


def _betas_from_b(n: int, b1: int, b2: int):
    """(beta1, beta2) from b1 = b_{2(mu+1)} and b2 = b_{2(mu+2)}."""
    _, mu, nu = shape(n)
    return -b1, -b2 + b1 * (24 * mu - 240 * nu + 744)


def profile(n: int, k: int) -> ExtremalProfile:
    """Full per-(n, k) record: shape, b-list, beta values."""
    j, mu, nu = shape(n)
    b = b_coefficients(n, k, extra=2)
    beta1, beta2 = _betas_from_b(n, b[mu + 1], b[mu + 2])
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
    """_positivity for theta1^(j-1) times each fixed factor, cut at mu + 2;
    theta1^(j-1) * bracket is the integer-grid layer."""
    bracket, fparts = cert
    T = mu + 2
    return _positivity(
        mul(th1pow, bracket.truncate(T)),
        [(r, mul(th1pow, f.truncate(T))) for r, f in fparts], k, mu)


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


def _per_mu(bracket: FracSeries, th1: FracSeries, h: FracSeries,
            ns_list: list):
    """Yield (n, j, mu, nu, C_mu) along an ascending run of lengths.

    C_mu = theta1^(3mu) * B * h^(mu+1) steps by the fixed series
    theta1^3 * h once per mu, and theta1^(j-1) * B * E4^(2-nu) * h^(mu+1)
    = C_mu * Q_nu with Q_nu from _q_factors.
    """
    step = mul(power(th1, 3), h)
    mu = ns_list[0] // 24
    c = mul(mul(power(step, mu), bracket), h)
    for n in ns_list:
        j, mu_n, nu = shape(n)
        while mu < mu_n:
            c = mul(c, step)
            mu += 1
        yield n, j, mu, nu, c


def _q_factors(th1: FracSeries, ns_list: list) -> dict:
    """{nu: theta1^(nu-1) * E4^(2-nu)} for the nu classes in the run.

    theta1(0) = 1, so theta1^(-1) is integral.
    """
    e4 = eisenstein_e4(th1.T)
    return {nu: mul(power(th1, nu - 1), power(e4, 2 - nu))
            for nu in {n // 8 % 3 for n in ns_list}}


def _tail_chunk(k: int, ns_list: list) -> list:
    """(n, b_{2(mu+1)}, b_{2(mu+2)}) for an ascending run of lengths.

    They are _b_at(C_mu, Q_nu) and _b_at(C_mu, Q_nu * w), w = E4^3 * h:
    one product per mu, and two dot products per length.
    """
    if not ns_list:
        return []
    T = ns_list[-1] // 24 + 3
    bracket, th1 = _theta_bracket(k, T)
    h = h_series(T)
    w = mul(power(eisenstein_e4(T), 3), h)
    qs = {nu: (q, mul(q, w)) for nu, q in _q_factors(th1, ns_list).items()}
    return [(n, _b_at(c, qs[nu][0], j, mu + 1), _b_at(c, qs[nu][1], j, mu + 2))
            for n, j, mu, nu, c in _per_mu(bracket, th1, h, ns_list)]


def crossover_scan(k: int, n_from: int, n_to: int,
                   workers: int = 1) -> ScanResult:
    """Exact beta1/beta2 for every n = 0 mod 8 in [n_from, n_to].

    Reports the least n with beta2 < 0 (None if no sign change in range).
    Worker count only affects wall time; the merged table is sorted by n.
    """
    _check_length(n_from)
    if n_to < n_from:
        raise InvalidRange(f"empty range {n_from}..{n_to}")
    rows = [ScanRow(n, *_betas_from_b(n, b1, b2)) for n, b1, b2 in
            _map_chunks(_tail_chunk, k, list(range(n_from, n_to + 1, 8)),
                        workers)]
    first = next((r.n for r in rows if r.beta2 < 0), None)
    return ScanResult(k=k, rows=rows, first_negative=first)


@dataclass
class Theorem1Row:
    n: int
    beta1: int
    positivity: bool


def theorem1_sweep(k: int, n_max: int, workers: int = 1) -> list:
    """beta1 > 0 plus positivity certificate for all n = 0 mod 8 up to n_max.

    Incremental over j: each step multiplies theta1^(j-1) by theta1, and
    each length costs k + 1 products with the fixed certificate factors;
    beta1 is a dot product of C_mu, stepped once per mu, against Q_nu.
    Results are identical to the per-n operations.
    """
    _check_length(n_max)
    return _map_chunks(_theorem1_chunk, k, list(range(8, n_max + 1, 8)),
                       workers)


def _theorem1_chunk(k: int, ns_list: list) -> list:
    """Theorem1Row for an ascending run of lengths, all on the integer grid.

    f0^(8j-1) = theta1^(j-1) * f0^7: theta1^(j-1) is the running power of
    the certificate, times factors fixed per chunk; beta1 = -b_{2(mu+1)} =
    -_b_at(C_mu, Q_nu) from the same C_mu as the tail b's.
    """
    if not ns_list:
        return []
    th1, cert = _certificate_factors(k, ns_list[-1] // 24 + 2)
    qs = _q_factors(th1, ns_list)
    j0 = ns_list[0] // 8
    th1pow = power(th1, j0 - 1)
    rows = []
    for n, j, mu, nu, c in _per_mu(cert[0], th1, h_series(th1.T), ns_list):
        for _ in range(j - j0):
            th1pow = mul(th1pow, th1)
        j0 = j
        rows.append(Theorem1Row(n=n, beta1=-_b_at(c, qs[nu], j, mu + 1),
                                positivity=_certify(th1pow, cert, k, mu)[0]))
    return rows
