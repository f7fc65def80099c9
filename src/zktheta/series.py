"""Exact truncated power series on a fractional exponent grid.

A :class:`FracSeries` stores coefficients of t^(e/D) for integer e >= 0 on a
dense grid, with everything below an explicit truncation T kept exactly.
An integral T stays an int; ``fractions`` is imported only where an
exponent is really fractional.  Coefficients are exact Python ints and no
floating point enters anywhere; a result that is not integral (see
``power``, ``differentiate``) raises ArithmeticError.  A product of dense
operands is one multiply of packed ints (Kronecker substitution) or, for
wide coefficients, a Karatsuba short product on the coefficient lists;
every other product walks nonzero pairs only, so stored zeros cost no
arithmetic.  Miller's recurrence gives every integer power.

The variable t is q^2 throughout the package.
"""

from __future__ import annotations

import math
import operator

from .errors import (
    GridViolation,
    NegativeExponent,
    ZeroConstantTerm,
)


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, int):
        return x
    from fractions import Fraction
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _slots(D: int, T) -> int:
    """Number of stored grid indices: all e with e/D < T."""
    return max(math.ceil(T * D), 0)


class FracSeries:
    """Truncated exact series sum_e c_e * t^(e/D), kept for e/D < T.

    Immutable by convention: operations return new objects and never write
    into an existing coefficient list.
    """

    __slots__ = ("D", "T", "coeffs")

    def __init__(self, D: int, T, coeffs):
        if D < 1:
            raise ValueError("grid denominator must be >= 1")
        T = _exact(T)
        if T <= 0:
            raise ValueError("truncation must be positive")
        ns = _slots(D, T)
        if len(coeffs) > ns:
            coeffs = coeffs[:ns]
        self.D = D
        self.T = T
        self.coeffs = list(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, D: int, T, terms) -> "FracSeries":
        """Build from {grid_index: coefficient} (indices on the e grid)."""
        T = _exact(T)
        ns = _slots(D, T)
        coeffs = [0] * ns
        for e, c in terms.items():
            if 0 <= e < ns:
                coeffs[e] = coeffs[e] + c
        return cls(D, T, coeffs)

    @classmethod
    def constant(cls, value, T, D: int = 1) -> "FracSeries":
        return cls.from_terms(D, T, {0: value})

    # -- basic queries -----------------------------------------------------

    def coeff_index(self, e: int):
        """Coefficient at grid index e (0 if beyond stored length)."""
        if 0 <= e < len(self.coeffs):
            return self.coeffs[e]
        return 0

    def nonzero_terms(self):
        """List of (grid_index, coefficient) with coefficient != 0."""
        return [(e, c) for e, c in enumerate(self.coeffs) if c]

    # -- grid management ---------------------------------------------------

    def regrid(self, D2: int) -> "FracSeries":
        """Re-express on grid denominator D2.

        Refining (D | D2) always works; coarsening requires every nonzero
        coefficient to sit on the coarser grid, else GridViolation.
        """
        if D2 == self.D:
            return self
        if D2 % self.D and self.D % D2:
            raise GridViolation(f"grids 1/{self.D} and 1/{D2} are incompatible")
        ns = _slots(D2, self.T)
        coeffs = [0] * ns
        for e, c in self.nonzero_terms():
            e2, off = divmod(e * D2, self.D)
            if off:
                from fractions import Fraction
                raise GridViolation(
                    f"coefficient at t^{Fraction(e, self.D)} off grid 1/{D2}"
                )
            if e2 < ns:
                coeffs[e2] = c
        return FracSeries(D2, self.T, coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return linear_combine(self, _coerce(other, self), 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return linear_combine(self, _coerce(other, self), 1, -1)

    def __rsub__(self, other):
        return linear_combine(_coerce(other, self), self, 1, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FracSeries):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, m: int):
        return power(self, m)

    def scale(self, factor) -> "FracSeries":
        if factor == 1:
            return self
        return FracSeries(self.D, self.T, [c * factor if c else 0 for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        a, b = _align(self, other)
        return a.nonzero_terms() == b.nonzero_terms()

    __hash__ = None

    def __repr__(self):
        shown = []
        for e, c in self.nonzero_terms():
            shown.append(f"{c}*t^({e}/{self.D})")
            if len(shown) >= 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"FracSeries(D={self.D}, T={self.T}: {body})"


def _coerce(x, like: FracSeries) -> FracSeries:
    if isinstance(x, FracSeries):
        return x
    return FracSeries.constant(x, like.T, like.D)


def _align(a: FracSeries, b: FracSeries):
    """Common grid (lcm of denominators); truncations left untouched."""
    if a.D == b.D:
        return a, b
    D = math.lcm(a.D, b.D)
    return a.regrid(D), b.regrid(D)


def linear_combine(a: FracSeries, b: FracSeries, alpha, beta) -> FracSeries:
    """alpha*a + beta*b, exact; truncation = min(T_a, T_b)."""
    a, b = _align(a, b)
    T = min(a.T, b.T)
    ns = _slots(a.D, T)
    out = [0] * ns
    if alpha:
        for e, c in enumerate(a.coeffs[:ns]):
            if c:
                out[e] = alpha * c
    if beta:
        for e, c in enumerate(b.coeffs[:ns]):
            if c:
                out[e] = out[e] + beta * c
    return FracSeries(a.D, T, out)


def mul(a: FracSeries, b: FracSeries) -> FracSeries:
    """Exact Cauchy product truncated at min(T_a, T_b).

    Three products, chosen from what the operands show.  A window of at
    most _SMALL slots, or one in which an operand has at most half its
    slots nonzero (sparse series, the zero padding of a refined grid),
    takes the schoolbook over nonzero pairs (_school): each nonzero term
    of a meets the nonzero terms of b in ascending order, up to the first
    whose index sum leaves the window, so zero slots are never visited.
    A dense window whose largest coefficients have bx + by bits, at most
    _NARROW, is one CPython multiply of two packed ints (_kronecker).  A
    wider one takes the Karatsuba short product (_short), which never forms
    the high x high block, or in a window of at most _GATE slots the dense
    double loop (_dense).
    """
    a, b = _align(a, b)
    T = min(a.T, b.T)
    ns = _slots(a.D, T)
    if ns > _SMALL:
        x, y = a.coeffs[:ns], b.coeffs[:ns]
        if (2 * (len(x) - x.count(0)) > ns
                and 2 * (len(y) - y.count(0)) > ns):
            if _bits(x) + _bits(y) <= _NARROW:
                return FracSeries(a.D, T, _kronecker(x, y, ns))
            x += [0] * (ns - len(x))
            y += [0] * (ns - len(y))
            return FracSeries(a.D, T, (_short if ns > _GATE else _dense)(
                x, y, ns))
    return FracSeries(a.D, T, _school(a.coeffs, b.coeffs, ns))


# Cut-offs, from per-product timings.  On the scan's dense 236-slot
# products (bx + by bits: Kronecker vs Karatsuba) 60: 0.19 vs 1.26 ms,
# 318: 1.14 vs 1.77, 336: 1.26 vs 1.72, 542: 2.53 vs 2.08, 1778: 13.2 vs
# 2.33; on graded random operands the two meet near 460 bits at 129 and
# 236 slots and near 380 at 64, so Kronecker up to _NARROW bits.  Windows
# of at most _SMALL slots, such as the sweep's 17-slot products, go to the
# schoolbook with no density scan before it.  Karatsuba recurses from
# windows over _GATE slots (below that the dense loop is as fast) down to
# _BASE slots.
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


def _dense(x: list, y: list, ns: int) -> list:
    """The first ns slots of x*y, every pair of the window."""
    out = [0] * ns
    for i, c in enumerate(x[:ns]):
        for e, d in enumerate(y[:ns - i], i):
            out[e] += c * d
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
        return _dense(x, y, 2 * n - 1)
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
        return _dense(x, y, n)
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

    With a = c * t^(v/D) * (1 + ...), p = a^m / t^(mv/D) satisfies
    c*s*p_s = sum_{i=1..s} ((m+1)*i - s) * a_{v+i} * p_{s-i}.  Every division
    is exact when m >= 0 or c = +-1; a negative power with c != +-1 is not
    integral and raises ArithmeticError.  power(a, -1) is the inverse.
    """
    if m == 0:
        return FracSeries.constant(1, a.T, a.D)
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
    for s in range(1, _slots(a.D, a.T) - m * v):
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
    return FracSeries(a.D, a.T, [0] * (m * v) + p)


def differentiate(a: FracSeries) -> FracSeries:
    """d/dt; c*t^(e/D) -> c*(e/D)*t^(e/D - 1); truncation drops by 1.

    A nonzero term with 0 < e/D < 1 has no home on the nonnegative grid;
    that raises NegativeExponent rather than silently dropping weight.
    (The constant term differentiates to zero and is fine.)  A non-integer
    c*e/D raises ArithmeticError, which never happens on D = 1.
    """
    D = a.D
    T2 = a.T - 1
    if T2 <= 0:
        from fractions import Fraction
        T2 = Fraction(1, D)  # keep a valid (empty-able) window
    ns = _slots(D, T2)
    out = [0] * ns
    for e, c in a.nonzero_terms():
        if e == 0:
            continue
        if e < D:
            from fractions import Fraction
            raise NegativeExponent(
                f"term t^{Fraction(e, D)} differentiates below t^0"
            )
        e2 = e - D
        if e2 < ns:
            q, rem = divmod(c * e, D)
            if rem:
                raise ArithmeticError(f"c*e/D = {c}*{e}/{D} is not integral")
            out[e2] = q
    return FracSeries(D, T2, out)


def euler_scaled(a: FracSeries) -> FracSeries:
    """D * t * d/dt: maps c*t^(e/D) to (c*e)*t^(e/D).

    Same grid, same truncation, integer coefficients stay integer.  Used to
    form D*t*(a*b' - a'*b) = a*euler_scaled(b) - euler_scaled(a)*b without
    ever leaving the nonnegative exponent grid.
    """
    return FracSeries(a.D, a.T, [c * e if c else 0 for e, c in enumerate(a.coeffs)])
