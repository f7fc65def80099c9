"""Z_2k-codes: Euclidean weights, enumeration, symmetrized weight
enumerators, Construction A theta series, and length-8 Type II codes.

A code is spanned by r generator rows; enumeration runs over all (2k)^r
coefficient vectors, so each codeword comes once per element of the kernel
of c -> sum c_i * row_i (once if the code is free).  swe and theta_cosets
divide that back out.  The words are built in byte buffers, one integer sum
per row multiple (_blocks), and verify_type2 counts weights straight from
those buffers.  Only the theta functions import the series layers.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter, namedtuple

from .errors import (BadCodeFile, InvalidModulus, RangeError, SearchExhausted,
                     TooLarge)

# entries built by enumeration, (2k)^r words of length n; 10^7 words at n = 8
ENUM_GUARD = 8 * 10 ** 7
# longest code enumerated, whatever its rank: a rank-0 file of a few bytes
# would otherwise ask for one zero word of up to ENUM_GUARD entries
MAX_LENGTH = 10 ** 5
# bytes of words built at once; longer enumerations stream block by block
_BLOCK = 1 << 20


class LinearCode(namedtuple("LinearCode", "k n rows")):
    """Length-n code over Z_2k spanned by generator rows, entries reduced
    mod 2k."""

    __slots__ = ()

    def __new__(cls, k: int, n: int, rows):
        m = 2 * k
        rows = tuple(tuple(x % m for x in row) for row in rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("generator row length != n")
        return super().__new__(cls, k, n, rows)

    @property
    def modulus(self) -> int:
        return 2 * self.k

    @property
    def rank(self) -> int:
        return len(self.rows)

    def dumps(self) -> str:
        lines = [f"zcode {self.k} {self.n} {self.rank}"]
        for row in self.rows:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "LinearCode":
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        try:
            magic, k, n, r = lines[0]
            k, n, r = int(k), int(n), int(r)
            rows = [tuple(int(x) for x in ln) for ln in lines[1:]]
        except (IndexError, ValueError):
            raise BadCodeFile("bad 'zcode k n r' header or entries") from None
        if k < 1:
            raise InvalidModulus(f"k must be >= 1, got {k}")
        bad_rows = len(rows) != r or any(len(x) != n for x in rows)
        if magic != "zcode" or n < 1 or bad_rows:
            raise BadCodeFile(f"not a zcode file of {r} rows of length {n}")
        return cls(k=k, n=n, rows=tuple(rows))


def rho(k: int, x: int) -> int:
    """Signed minimal representative of x mod 2k: 0..k stay, k+1..2k-1 wrap."""
    if not 0 <= x < 2 * k:
        raise RangeError(f"residue {x} outside [0, {2 * k})")
    return x if x <= k else x - 2 * k


def euclidean_weight(k: int, word) -> int:
    """Sum of min(x^2, (2k-x)^2) over the entries; equals sum of rho(x)^2."""
    return sum(rho(k, x) ** 2 for x in word)


def _plus(buf: bytes, word: list, m: int, w: int) -> bytes:
    """Every word of buf plus word, mod m, as one integer sum.

    Fields are w bytes in native order and stay below 2m <= 2^(8w-1), so no
    carry crosses a field; adding 2^(8w-1) - m sets a field's top bit
    exactly where it is >= m, and m is taken off there.
    """
    order, top = sys.byteorder, 8 * w - 1
    tile = b"".join(x.to_bytes(w, order) for x in word)
    ones = int.from_bytes((1).to_bytes(w, order) * (len(buf) // w), order)
    s = (int.from_bytes(buf, order)
         + int.from_bytes(tile * (len(buf) // len(tile)), order))
    s -= ((s + ones * ((1 << top) - m)) >> top & ones) * m
    return s.to_bytes(len(buf), order)


def _blocks(code: LinearCode):
    """The words of enumerate_codewords, in order, as memoryviews of n
    fields each: bytes for m <= 128, else 4-byte ints.

    Rows are added last to first, each stage repeating the buffer once per
    multiple c * row with c outermost, which keeps the words in
    lexicographic order.  The stages stop short of _BLOCK bytes; the rows
    left over are walked by their coefficients, one block each, so peak
    memory does not grow with m^r.
    """
    m, n, rows = code.modulus, code.n, code.rows
    if n > MAX_LENGTH or m ** code.rank * n > ENUM_GUARD:
        raise TooLarge(f"{m}^{code.rank} codewords of length {n} "
                       "exceed the guard")
    w = 1 if m <= 128 else 4
    split = len(rows)
    while split and m ** (len(rows) - split + 1) * n * w <= _BLOCK:
        split -= 1
    buf = bytes(n * w)
    for row in reversed(rows[split:]):
        buf = b"".join(_plus(buf, [c * x % m for x in row], m, w)
                       for c in range(m))
    fmt = "B" if w == 1 else "I"
    for cs in itertools.product(range(m), repeat=split):
        word = [sum(c * x for c, x in zip(cs, col)) % m
                for col in zip(*rows[:split])]
        yield memoryview(_plus(buf, word, m, w) if split else buf).cast(fmt)


def enumerate_codewords(code: LinearCode):
    """Yield sum c_i * row_i mod 2k for every c in Z_2k^r, lexicographically.

    Each codeword comes once per kernel element (once if the code is free).
    Codes longer than MAX_LENGTH or with more than ENUM_GUARD entries raise
    TooLarge.
    """
    n = code.n
    for fields in _blocks(code):
        for i in range(0, len(fields), n):
            yield tuple(fields[i:i + n])


class Type2Report(namedtuple("Type2Report",
                             "self_dual all_weights_div_4k d_E")):
    """d_E is the minimum nonzero Euclidean weight (0 if the code is
    trivial)."""

    __slots__ = ()

    @property
    def is_type2(self) -> bool:
        return self.self_dual and self.all_weights_div_4k

    def to_jsonable(self) -> dict:
        return {
            "self_dual": self.self_dual,
            "all_weights_div_4k": self.all_weights_div_4k,
            "d_E": self.d_E,
            "is_type2": self.is_type2,
        }


def _column_sums(buf: bytes, n: int, w: int) -> memoryview:
    """The sum of each word's n byte entries in buf, as w-byte fields: the n
    columns are spread into w-byte fields and added as integers."""
    order, low = sys.byteorder, 0 if sys.byteorder == "little" else w - 1
    wide, total = bytearray(len(buf) // n * w), 0
    for j in range(n):
        wide[low::w] = buf[j::n]
        total += int.from_bytes(wide, order)
    return memoryview(total.to_bytes(len(wide), order)).cast(
        "H" if w == 2 else "I")


def _weights(code: LinearCode) -> Counter:
    """Counter of the Euclidean weights of the enumerated words.

    For k <= 15, rho^2 fits a byte: each block is translated to rho^2 and
    its columns summed (_column_sums) in 2-byte fields, or 4-byte ones when
    the largest weight n*k^2 reaches 2^16.  Larger k sums each word.
    """
    k, m, n = code.k, code.modulus, code.n
    if k > 15:
        return Counter(euclidean_weight(k, word)
                       for word in enumerate_codewords(code))
    sq = bytes(rho(k, x) ** 2 if x < m else 0 for x in range(256))
    w = 2 if n * k * k < 1 << 16 else 4
    weights = Counter()
    for fields in _blocks(code):
        weights.update(_column_sums(fields.obj.translate(sq), n, w))
    return weights


def verify_type2(code: LinearCode) -> Type2Report:
    """Full check by enumeration: self-duality, 4k-divisibility, d_E."""
    k, m = code.k, code.modulus
    gram_ok = all(
        sum(a * b for a, b in zip(r1, r2)) % m == 0
        for r1 in code.rows for r2 in code.rows
    )
    weights = _weights(code)
    # free iff only c = 0 gives the zero word, the one word of weight 0
    free_ok = weights[0] == 1
    # free + self-orthogonal + cardinality (2k)^(n/2) forces C = C-dual
    self_dual = gram_ok and free_ok and 2 * code.rank == code.n
    return Type2Report(self_dual=self_dual,
                       all_weights_div_4k=all(wt % (4 * k) == 0
                                              for wt in weights),
                       d_E=min(filter(None, weights), default=0))


# counts maps a composition (n_0, ..., n_k) to its number of codewords
SweTable = namedtuple("SweTable", "k n counts")


def swe(code: LinearCode) -> SweTable:
    """Symmetrized weight enumerator: each word counted under the (k+1)-tuple
    of its entry counts per |rho| class 0..k, which is the output format.

    For 2k <= 128 the entries are bytes: translated to the indicator of
    class c >= 1, a block's column sums (_column_sums) are every word's
    count of class c, and class 0 takes the rest of n.  Wider entries are
    counted word by word.
    """
    k, m, n = code.k, code.modulus, code.n
    counts = Counter()
    if m > 128:
        for word in enumerate_codewords(code):
            comp = [0] * (k + 1)
            for x in word:
                comp[min(x, m - x)] += 1
            counts[tuple(comp)] += 1
    else:
        w = 2 if n < 1 << 16 else 4
        marks = [bytes(min(x, m - x) == c for x in range(m)) + bytes(256 - m)
                 for c in range(1, k + 1)]
        for fields in _blocks(code):
            counts.update(zip(*[_column_sums(fields.obj.translate(mark), n, w)
                                for mark in marks]))
        counts = {(n - sum(c),) + c: v for c, v in counts.items()}
    kernel = counts[(n,) + (0,) * k]  # combinations giving the zero word
    return SweTable(k=k, n=n,
                    counts={c: v // kernel for c, v in counts.items()})


def theta_substitution(code: LinearCode, T: int) -> dict:
    """Theta series of A_2k(C) by substituting f_i into the swe, as {r: S_r}
    with theta = sum_r t^(r/4k) * S_r, each S_r on the integer grid, cut
    at T.

    With f_i = t^(r_i/4k) * g_i (modforms.theta_f), a swe monomial
    prod f_i^(m_i) is t^(R/4k) * prod g_i^(m_i), R = sum m_i * r_i: a shift
    by R // 4k slots on the coset R mod 4k.  R = sum m_i * i^2 mod 4k is the
    word's Euclidean weight mod 4k, so a Type II code gives {0: E4}.
    """
    from .modforms import theta_f
    from .series import FracSeries, mul, power
    k, D = code.k, 4 * code.k
    table = swe(code)
    fs = [theta_f(k, i, T) for i in range(k + 1)]
    pows = {(i, mult): power(fs[i][1], mult)
            for comp in table.counts for i, mult in enumerate(comp) if mult}
    out = {}
    for comp, cnt in sorted(table.counts.items()):
        shift, r = divmod(sum(mult * fs[i][0]
                              for i, mult in enumerate(comp)), D)
        term = FracSeries.from_terms(T, {shift: cnt})
        for i, mult in enumerate(comp):
            if mult:
                term = mul(term, pows[i, mult])
        out[r] = out[r] + term if r in out else term
    return out


def theta_cosets(code: LinearCode, norm_cap: int) -> dict:
    """Theta series of A_2k(C) up to lattice norm norm_cap, by direct
    enumeration of rho(c) + 2k*Z^n vectors (independent of the swe route),
    as {r: S_r} like theta_substitution.

    A vector v has norm |v|^2/2k and term t^(|v|^2/4k): slot |v|^2 // 4k of
    coset r = |v|^2 mod 4k.  S_r is cut past its last slot of norm at most
    norm_cap.
    """
    from .series import FracSeries
    k, m = code.k, code.modulus
    if norm_cap > 12:
        raise TooLarge("norm cap restricted to <= 12")
    budget = 2 * k * norm_cap  # bound on |v|^2 in the unscaled lattice
    # squares of the integers of [-bound, bound] by residue mod 2k, ascending
    bound = math.isqrt(budget)
    squares = {}
    for v in sorted(range(-bound, bound + 1), key=abs):
        squares.setdefault(v % m, []).append(v * v)
    counts = Counter()

    def dfs(word, idx, used):
        if idx == len(word):
            counts[used] += 1
            return
        for sq in squares.get(word[idx], ()):
            if used + sq > budget:
                break
            dfs(word, idx + 1, used + sq)

    for w in enumerate_codewords(code):
        dfs(w, 0, 0)
    # norm 0 comes only from the zero word, once per kernel element
    D, cosets = 4 * k, {}
    for e, c in counts.items():
        cosets.setdefault(e % D, {})[e // D] = c // counts[0]
    return {r: FracSeries.from_terms((budget - r) // D + 1, terms)
            for r, terms in sorted(cosets.items())}


# ---------------------------------------------------------------------------
# length-8 Type II codes
# ---------------------------------------------------------------------------

def _standard_form(k: int, a_block) -> LinearCode:
    """[I4 | A] as a length-8 rank-4 code over Z_2k."""
    rows = []
    for i in range(4):
        row = [0] * 4 + list(a_block[i])
        row[i] = 1
        rows.append(tuple(row))
    return LinearCode(k=k, n=8, rows=tuple(rows))


def _quaternion_block(a, b, c, d):
    return ((a, b, c, d),
            (-b, a, -d, c),
            (-c, d, a, -b),
            (-d, -c, b, a))


def _four_squares(target: int):
    """All decompositions a>=b>=c>=d>=0 with a^2+b^2+c^2+d^2 = target."""
    out = []
    a = int(math.isqrt(target))
    for a in range(a, -1, -1):
        ra = target - a * a
        for b in range(min(a, int(math.isqrt(ra))), -1, -1):
            rb = ra - b * b
            for c in range(min(b, int(math.isqrt(rb))), -1, -1):
                d2 = rb - c * c
                d = int(math.isqrt(d2))
                if d * d == d2 and d <= c:
                    out.append((a, b, c, d))
    return out


# curated generator blocks; k=1 is the extended Hamming code (for k=2 the
# first quaternionic block is a code equivalent to the octacode)
_DATABASE = {
    1: ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
}


def search_c8(k: int) -> LinearCode:
    """A verified length-8 Type II code over Z_2k in form [I4 | A].

    Order of attack: the built-in database, then quaternionic blocks Q from
    four-square decompositions of 4k-1.  QQ^T = (4k-1)*I makes the rows of
    [I4 | Q] orthogonal mod 2k, each of weight 4k (entries |x| <= k), and
    the weight mod 4k is a quadratic form, so the first block passes; every
    candidate still passes a full verify_type2 before being returned.
    """
    if k < 1:
        raise InvalidModulus(f"k must be >= 1, got {k}")
    if k in _DATABASE:
        code = _standard_form(k, _DATABASE[k])
        if verify_type2(code).is_type2:
            return code
    for quad in _four_squares(4 * k - 1):
        for signs in itertools.product((1, -1), repeat=4):
            vals = tuple(s * q for s, q in zip(signs, quad))
            code = _standard_form(k, _quaternion_block(*vals))
            if verify_type2(code).is_type2:
                return code
    raise SearchExhausted(f"no length-8 Type II code found for k={k}")
