"""Z_2k-codes: Euclidean weights, enumeration, symmetrized weight
enumerators, Construction A theta series, and length-8 Type II codes.

Only free codes are handled: r generator rows spanning (2k)^r distinct
codewords, which covers every object this package needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadCodeFile, InvalidModulus, RangeError, SearchExhausted,
                     TooLarge)
from .modforms import theta_f
from .series import FracSeries, mul, power

ENUM_GUARD = 10 ** 7


@dataclass(frozen=True)
class LinearCode:
    k: int              # modulus is 2k
    n: int              # length
    rows: tuple         # generator rows, entries reduced mod 2k

    def __post_init__(self):
        m = 2 * self.k
        object.__setattr__(
            self, "rows",
            tuple(tuple(x % m for x in row) for row in self.rows),
        )
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("generator row length != n")

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
            rows = [tuple(int(x) for x in ln) for ln in lines[1:1 + r]]
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


def enumerate_codewords(code: LinearCode):
    """Yield all (2k)^r codewords of a free code, each exactly once."""
    m = code.modulus
    if m ** code.rank > ENUM_GUARD:
        raise TooLarge(f"{m}^{code.rank} codewords exceed the guard")
    n = code.n
    for coeffs in itertools.product(range(m), repeat=code.rank):
        word = [0] * n
        for c, row in zip(coeffs, code.rows):
            if c:
                for idx in range(n):
                    word[idx] += c * row[idx]
        yield tuple(x % m for x in word)


@dataclass
class Type2Report:
    self_dual: bool
    all_weights_div_4k: bool
    d_E: int  # minimum nonzero Euclidean weight (0 if code is trivial)

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


def verify_type2(code: LinearCode) -> Type2Report:
    """Full check by enumeration: self-duality, 4k-divisibility, d_E."""
    k, m = code.k, code.modulus
    gram_ok = all(
        sum(a * b for a, b in zip(r1, r2)) % m == 0
        for r1 in code.rows for r2 in code.rows
    )
    words = set()
    min_w = None
    div_ok = True
    for w in enumerate_codewords(code):
        words.add(w)
        wt = euclidean_weight(k, w)
        if wt % (4 * k):
            div_ok = False
        if wt and (min_w is None or wt < min_w):
            min_w = wt
    free_ok = len(words) == m ** code.rank
    # free + self-orthogonal + cardinality (2k)^(n/2) forces C = C-dual
    self_dual = gram_ok and free_ok and 2 * code.rank == code.n
    return Type2Report(self_dual=self_dual,
                       all_weights_div_4k=div_ok,
                       d_E=min_w or 0)


@dataclass
class SweTable:
    k: int
    n: int
    counts: dict  # composition (n_0,...,n_k) -> number of codewords

    def total(self) -> int:
        return sum(self.counts.values())

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "counts": [
                {"composition": list(comp), "count": cnt}
                for comp, cnt in sorted(self.counts.items())
            ],
        }


def swe(code: LinearCode) -> SweTable:
    """Symmetrized weight enumerator: entries counted by |rho| class."""
    k = code.k
    counts = {}
    for w in enumerate_codewords(code):
        comp = [0] * (k + 1)
        for x in w:
            comp[abs(rho(k, x))] += 1
        key = tuple(comp)
        counts[key] = counts.get(key, 0) + 1
    return SweTable(k=k, n=code.n, counts=counts)


def theta_substitution(code: LinearCode, T) -> FracSeries:
    """Theta series of A_2k(C) by substituting f_i into the swe."""
    k = code.k
    table = swe(code)
    fs = [theta_f(k, i, T) for i in range(k + 1)]
    pow_cache = {}

    def fpow(i, m):
        if (i, m) not in pow_cache:
            pow_cache[(i, m)] = power(fs[i], m)
        return pow_cache[(i, m)]

    acc = None
    for comp, cnt in sorted(table.counts.items()):
        term = FracSeries.constant(cnt, T, 4 * k)
        for i, mult in enumerate(comp):
            if mult:
                term = mul(term, fpow(i, mult))
        acc = term if acc is None else acc + term
    return acc


def theta_cosets(code: LinearCode, norm_cap: int) -> FracSeries:
    """Theta series of A_2k(C) up to lattice norm norm_cap, by direct
    enumeration of rho(c) + 2k*Z^n vectors (independent of the swe route).

    Exponents are t^(norm/2); grid denominator 4k.
    """
    k, m = code.k, code.modulus
    if norm_cap > 12:
        raise TooLarge("norm cap restricted to <= 12")
    budget = 2 * k * norm_cap  # bound on |v|^2 in the unscaled lattice
    # candidate integer values per residue class mod 2k, sorted by square
    cands = {}
    for r in range(m):
        vals = []
        lo = -int(math.isqrt(budget)) - m
        hi = int(math.isqrt(budget)) + m
        for v in range(lo, hi + 1):
            if v % m == r and v * v <= budget:
                vals.append((v * v, v))
        cands[r] = sorted(vals)
    counts = {}

    def dfs(word, idx, used):
        if idx == len(word):
            counts[used] = counts.get(used, 0) + 1
            return
        for sq, _v in cands[word[idx]]:
            if used + sq > budget:
                break
            dfs(word, idx + 1, used + sq)

    for w in enumerate_codewords(code):
        dfs(w, 0, 0)
    T = Fraction(norm_cap, 2) + Fraction(1, 4 * k)
    return FracSeries.from_terms(4 * k, T, counts)


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


# curated generator blocks; k=1 is the extended Hamming code, k=2 a code
# equivalent to the octacode (length-8 Type II over Z4 with d_E = 8)
_DATABASE = {
    1: ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
    2: _quaternion_block(2, 1, 1, 1),
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
