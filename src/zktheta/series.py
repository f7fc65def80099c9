"""Exact truncated power series on the integer grid.

A :class:`FracSeries` stores the coefficients of t^e for integers
0 <= e < T, T a positive int.  Coefficients are exact Python ints and no
floating point enters anywhere; a result that is not integral (see
``power``) raises ArithmeticError.  A series on a coset r/4k + Z, such as a
theta function f_i, is kept by its callers as a pair (r, S) meaning
t^(r/4k) * S, S on this grid (``modforms.theta_f``).  A product of dense
operands is one multiply of packed ints (Kronecker substitution) or, for
wide coefficients in a long window, a Karatsuba short product on the
coefficient lists; every other product walks nonzero pairs only, so stored
zeros cost no arithmetic.  Miller's recurrence gives every integer power.

The variable t is q^2 throughout the package.
"""

from __future__ import annotations

import operator

from .errors import ZeroConstantTerm


class FracSeries:
    """Truncated exact series sum_e c_e * t^e, kept for e < T.

    coeffs holds exactly T slots: the constructor cuts a longer list at T
    and pads a shorter one with zeros.  Immutable by convention: operations
    return new objects and never write into an existing coefficient list.
    The name and the grid denominator D, always 1, stay for
    perfbench/tracer.py, which wraps this constructor as (self, D, T,
    coeffs) and reads D on every product.
    """

    __slots__ = ("D", "T", "coeffs")

    def __init__(self, D: int, T: int, coeffs):
        if D != 1:
            raise ValueError(f"grid denominator must be 1, got {D}")
        T = operator.index(T)
        if T <= 0:
            raise ValueError("truncation must be positive")
        coeffs = list(coeffs[:T])
        coeffs += [0] * (T - len(coeffs))
        self.D = 1
        self.T = T
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, T: int, terms) -> "FracSeries":
        """Build from {exponent: coefficient}; exponents at or past T are
        dropped."""
        coeffs = [0] * T
        for e, c in terms.items():
            if 0 <= e < T:
                coeffs[e] += c
        return cls(1, T, coeffs)

    @classmethod
    def constant(cls, value, T: int) -> "FracSeries":
        return cls.from_terms(T, {0: value})

    # -- basic queries -----------------------------------------------------

    def nonzero_terms(self):
        """List of (exponent, coefficient) with coefficient != 0."""
        return [(e, c) for e, c in enumerate(self.coeffs) if c]

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self.nonzero_terms() == other.nonzero_terms()

    __hash__ = None

    def __repr__(self):
        shown = []
        for e, c in self.nonzero_terms():
            shown.append(f"{c}*t^{e}")
            if len(shown) >= 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"FracSeries(T={self.T}: {body})"


def linear_combine(a: FracSeries, b: FracSeries, alpha, beta) -> FracSeries:
    """alpha*a + beta*b, exact; truncation = min(T_a, T_b)."""
    T = min(a.T, b.T)
    out = [0] * T
    if alpha:
        for e, c in enumerate(a.coeffs[:T]):
            if c:
                out[e] = alpha * c
    if beta:
        for e, c in enumerate(b.coeffs[:T]):
            if c:
                out[e] = out[e] + beta * c
    return FracSeries(1, T, out)


def mul(a: FracSeries, b: FracSeries) -> FracSeries:
    """Exact Cauchy product truncated at min(T_a, T_b).

    Three products, chosen from what the operands show.  A window of at
    most _SMALL slots, or one in which an operand has at most half its
    slots nonzero (sparse series such as a lacunary theta function),
    takes the schoolbook over nonzero pairs (_school): each nonzero term
    of a meets the nonzero terms of b in ascending order, up to the first
    whose index sum leaves the window, so zero slots are never visited.
    A dense window whose largest coefficients have bx + by bits, at most
    _NARROW, is one CPython multiply of two packed ints (_kronecker).  A
    wider one takes the Karatsuba short product (_short), which never forms
    the high x high block and has _school at its leaves, or in a window of
    at most _GATE slots _school itself.
    """
    ns = min(a.T, b.T)
    if ns > _SMALL:
        x, y = a.coeffs[:ns], b.coeffs[:ns]
        if 2 * x.count(0) < ns and 2 * y.count(0) < ns:
            if _bits(x) + _bits(y) <= _NARROW:
                return FracSeries(1, ns, _kronecker(x, y, ns))
            if ns > _GATE:
                return FracSeries(1, ns, _short(x, y, ns))
    return FracSeries(1, ns, _school(a.coeffs, b.coeffs, ns))


# Cut-offs, from per-product timings.  On the scan's dense 236-slot
# products (bx + by bits: Kronecker vs Karatsuba) 60: 0.19 vs 1.26 ms,
# 318: 1.14 vs 1.77, 336: 1.26 vs 1.72, 542: 2.53 vs 2.08, 1778: 13.2 vs
# 2.33; on graded random operands the two meet near 460 bits at 129 and
# 236 slots and near 380 at 64, so Kronecker up to _NARROW bits.  Windows
# of at most _SMALL slots, such as the sweep's 17-slot products, go to the
# schoolbook with no density scan before it.  Karatsuba recurses from
# windows over _GATE slots down to _BASE slots and runs _school at its
# leaves; a window of at most _GATE slots takes _school whole.  On dense
# operands whose slot i has 200 + 2i bits (_school vs _short, best of 9,
# one Xeon core, CPython 3.11) 64: 0.76 vs 0.76 ms, 100: 2.0 vs 1.8, 128:
# 3.5 vs 3.0, 160: 5.8 vs 4.7.
_SMALL, _NARROW, _GATE, _BASE = 32, 400, 128, 16


def _bits(x: list) -> int:
    """Bit length of the largest |coefficient| of x."""
    return max(max(x, default=0), -min(x, default=0)).bit_length()


def _school(x: list, y: list, ns: int) -> list:
    """The first ns slots of x*y, schoolbook over nonzero pairs."""
    out = [0] * ns
    ty = [(e, c) for e, c in enumerate(y) if c]
    for ea, ca in [(e, c) for e, c in enumerate(x) if c]:
        if ea >= ns:
            break
        lim = ns - ea
        for eb, cb in ty:
            if eb >= lim:
                break
            out[ea + eb] += ca * cb
    return out


def _kronecker(x: list, y: list, ns: int) -> list:
    """The first ns slots of x*y by Kronecker substitution.

    x and y are packed as X = sum x_i * 2^(W*i) and Y, with a slot of W
    bits that holds any |slot of x*y| < ns * 2^(bx + by) and its sign, W a
    whole number of bytes.  One multiply gives X*Y; adding 2^(W-1) to each
    of its low ns slots makes every slot nonnegative, so they are read off
    its bytes with no borrow, and 2^(W-1) is taken off again.
    """
    w = (_bits(x) + _bits(y) + ns.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    p = _pack(x, w) * _pack(y, w) + int.from_bytes(
        half.to_bytes(w, "little") * ns, "little")
    buf = (p & ((1 << 8 * w * ns) - 1)).to_bytes(w * ns, "little")
    return [int.from_bytes(buf[i:i + w], "little") - half
            for i in range(0, w * ns, w)]


def _pack(x: list, w: int) -> int:
    """sum x_i * 2^(8*w*i) for signed x_i with |x_i| < 2^(8*w - 2): each
    slot is packed as x_i + 2^(8*w - 2) >= 0 and the offsets taken off."""
    off = 1 << (8 * w - 2)
    return int.from_bytes(
        b"".join([(c + off).to_bytes(w, "little") for c in x]), "little") \
        - int.from_bytes(off.to_bytes(w, "little") * len(x), "little")


def _full(x: list, y: list) -> list:
    """x*y, all 2n - 1 slots, for x and y of one length n: Karatsuba with
    x = x0 + t^h x1, x0*y0 and x1*y1 and the middle (x0 + x1)(y0 + y1)
    minus both."""
    n = len(x)
    if n <= _BASE:
        return _school(x, y, 2 * n - 1)
    h = n // 2
    z0, z2 = _full(x[:h], y[:h]), _full(x[h:], y[h:])
    mid = _full([*map(operator.add, x[:h], x[h:]), *x[2 * h:]],
                [*map(operator.add, y[:h], y[h:]), *y[2 * h:]])
    out = z0 + [0] + z2
    for i, c in enumerate(map(operator.sub, mid, z2), h):
        out[i] += c
    for i, c in enumerate(z0, h):
        out[i] -= c
    return out


def _short(x: list, y: list, n: int) -> list:
    """The first n slots of x*y, for x and y of length n.

    With h = ceil(n/2) and x = x0 + t^h x1, the low halves' full product
    gives slots below 2h - 1 and the cross products x0*y1 and x1*y0, short
    again, give slots h..n-1.  x1*y1 starts at t^(2h), at or past t^n, so
    that high x high block is never formed.
    """
    if n <= _BASE:
        return _school(x, y, n)
    h = (n + 1) // 2
    lo = n - h
    out = _full(x[:h], y[:h])
    out += [0] * (n - len(out))
    for i, c in enumerate(map(operator.add, _short(x[:lo], y[h:], lo),
                              _short(x[h:], y[:lo], lo)), h):
        out[i] += c
    return out


def power(a: FracSeries, m: int) -> FracSeries:
    """a**m for any integer m by J. C. P. Miller's recurrence.

    With a = c * t^v * (1 + ...), p = a^m / t^(mv) satisfies
    c*s*p_s = sum_{i=1..s} ((m+1)*i - s) * a_{v+i} * p_{s-i}.  Every division
    is exact when m >= 0 or c = +-1; a negative power with c != +-1 is not
    integral and raises ArithmeticError.  power(a, -1) is the inverse.
    """
    if m == 0:
        return FracSeries.constant(1, a.T)
    if m == 1:
        return a
    terms = a.nonzero_terms()
    if m < 0 and (not terms or terms[0][0]):
        raise ZeroConstantTerm("negative power of a series with a(0) = 0")
    if not terms:
        return a
    v, c = terms[0]
    if m < 0 and c not in (1, -1):
        raise ArithmeticError(f"a^{m} with a(0) = {c} is not integral")
    rel = [(e - v, ce) for e, ce in terms[1:]]
    p = [c ** abs(m)]
    for s in range(1, a.T - m * v):
        acc = 0
        for i, ai in rel:
            if i > s:
                break
            acc += ((m + 1) * i - s) * ai * p[s - i]
        q, rem = divmod(acc, c * s)
        if rem:
            raise ArithmeticError(f"inexact division at slot {s} of a^{m}")
        p.append(q)
    # slots pushed past the truncation by the shift m*v are cut here
    return FracSeries(1, a.T, [0] * (m * v) + p)


def euler_scaled(a: FracSeries) -> FracSeries:
    """t * d/dt: maps c*t^e to (c*e)*t^e.

    Same truncation, integer coefficients stay integer.  Used to form
    t*(a*b' - a'*b) = a*euler_scaled(b) - euler_scaled(a)*b without ever
    leaving the nonnegative exponent grid.
    """
    return FracSeries(1, a.T, [c * e if c else 0 for e, c in enumerate(a.coeffs)])
