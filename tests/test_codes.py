import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_codewords, naive_verify_type2
from zktheta import codes
from zktheta.codes import (
    LinearCode,
    enumerate_codewords,
    euclidean_weight,
    rho,
    search_c8,
    swe,
    theta_cosets,
    theta_substitution,
    verify_type2,
)
from zktheta.errors import RangeError, TooLarge
from zktheta.modforms import eisenstein_e4


def hamming8():
    return search_c8(1)


def octacode_like():
    return search_c8(2)


def test_rho_examples():
    assert rho(2, 3) == -1
    assert rho(3, 5) == -1
    assert rho(1, 1) == 1
    assert rho(2, 2) == 2
    assert [rho(2, x) for x in range(4)] == [0, 1, 2, -1]


def test_rho_range_check():
    with pytest.raises(RangeError):
        rho(2, 4)
    with pytest.raises(RangeError):
        rho(2, -1)


def test_euclidean_weight_two_ways():
    # min(x^2, (2k-x)^2) agrees with rho^2 on every residue
    for k in range(1, 7):
        for x in range(2 * k):
            assert min(x * x, (2 * k - x) ** 2) == rho(k, x) ** 2
    assert euclidean_weight(2, (0, 1, 2, 3)) == 0 + 1 + 4 + 1


def test_enumerate_counts():
    assert len(set(enumerate_codewords(hamming8()))) == 2 ** 4
    assert len(set(enumerate_codewords(octacode_like()))) == 4 ** 4


def test_enumerate_guard():
    big = LinearCode(k=6, n=10, rows=tuple((i,) * 10 for i in range(10)))
    with pytest.raises(TooLarge):
        list(enumerate_codewords(big))


def test_verify_hamming():
    rep = verify_type2(hamming8())
    assert rep.is_type2
    assert rep.d_E == 4


def test_verify_octacode_like():
    rep = verify_type2(octacode_like())
    assert rep.is_type2
    assert rep.d_E == 8


def test_verify_rejects_identity_rows():
    eye = LinearCode(k=1, n=8, rows=tuple(
        tuple(1 if j == i else 0 for j in range(8)) for i in range(4)))
    rep = verify_type2(eye)
    assert not rep.self_dual
    assert not rep.is_type2


def test_swe_hamming():
    table = swe(hamming8())
    assert table.counts == {(8, 0): 1, (4, 4): 14, (0, 8): 1}
    assert sum(table.counts.values()) == 16


def test_swe_total_matches_cardinality():
    code = octacode_like()
    assert sum(swe(code).counts.values()) == 4 ** 4


@pytest.mark.parametrize("k", range(1, 7))
def test_theta_substitution_is_e4(k):
    T = 5
    th = theta_substitution(search_c8(k), T)
    assert th == eisenstein_e4(T).regrid(4 * k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_theta_cosets_matches_substitution(k):
    code = search_c8(k)
    norm_cap = 6
    direct = theta_cosets(code, norm_cap)
    sub = theta_substitution(code, direct.T)
    assert direct == sub


def test_theta_cosets_min_norm():
    # A_2k(C) is even unimodular: after t = q^2 the first shell sits at t^1
    th = theta_cosets(search_c8(2), 4)
    terms = th.nonzero_terms()
    assert terms[0] == (0, 1)
    assert terms[1][0] == 8  # exponent 1 on grid 1/8


def test_theta_cosets_linear_in_the_modulus():
    # one zero word at k = 10^5: only residue 0 has an integer in
    # [-bound, bound], bound = isqrt(4k); a table over all 2k residues,
    # each filtered from that range, takes about a minute
    import time
    k = 10 ** 5
    t0 = time.process_time()
    th = theta_cosets(LinearCode(k=k, n=8, rows=()), 2)
    assert time.process_time() - t0 < 5
    assert (th.D, th.T) == (4 * k, 1 + Fraction(1, 4 * k))
    assert th.nonzero_terms() == [(0, 1)]
    # k = 50, norm cap 2: the residues 15..85 have no integer in [-14, 14],
    # so the words 15..85 times the all-ones row add nothing
    code = LinearCode(k=50, n=8, rows=((1,) * 8,))
    direct = theta_cosets(code, 2)
    assert direct == theta_substitution(code, direct.T)


def test_theta_cosets_cap_guard():
    with pytest.raises(TooLarge):
        theta_cosets(hamming8(), 40)


@pytest.mark.parametrize("k", range(1, 7))
def test_search_all_k(k):
    code = search_c8(k)
    assert code.n == 8 and code.rank == 4
    rep = verify_type2(code)
    assert rep.is_type2
    assert rep.d_E == 4 * k


def test_search_deterministic():
    assert search_c8(3) == search_c8(3)
    assert search_c8(5) == search_c8(5)


def test_code_file_roundtrip():
    code = search_c8(4)
    again = LinearCode.loads(code.dumps())
    assert again == code
    assert code.dumps().splitlines()[0] == "zcode 4 8 4"


def test_loads_rejects_garbage():
    with pytest.raises(ValueError):
        LinearCode.loads("nonsense 1 2 3\n")


def test_standard_form_rows_reduced():
    code = search_c8(2)
    for row in code.rows:
        assert all(0 <= x < 4 for x in row)


def test_gram_is_identity_times_minus_one():
    # generator rows of [I4|A] pair to 0 mod 2k; diagonal norms are 0 mod 2k
    code = search_c8(6)
    m = code.modulus
    for r1, r2 in itertools.product(code.rows, repeat=2):
        assert sum(a * b for a, b in zip(r1, r2)) % m == 0


# entries (2k)^r * n of a drawn code; the naive oracles rebuild every word
SMALL_ENTRIES = 4000


@st.composite
def small_codes(draw):
    """Codes with k <= 9, length <= 9 and rank 0..3, at most SMALL_ENTRIES
    entries: mostly not free and not self-orthogonal, since the rows are
    drawn at random."""
    k = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    rank = max(r for r in range(4) if (2 * k) ** r * n <= SMALL_ENTRIES)
    row = st.tuples(*[st.integers(0, 2 * k - 1)] * n)
    return LinearCode(k=k, n=n,
                      rows=tuple(draw(st.lists(row, max_size=rank))))


def _rank1(k, n):
    """The rank-1 code spanned by (k, ..., k, 1): its word c = 1 has weight
    (n - 1) * k^2 + 1, with every rho^2 but one at its largest, k^2."""
    return LinearCode(k=k, n=n, rows=((k,) * (n - 1) + (1,),))


@settings(max_examples=150, deadline=None)
@given(small_codes())
@example(LinearCode(k=1, n=2, rows=((1, 1),)))  # self-dual, weight 2
@example(LinearCode(k=1, n=4, rows=((1, 1, 1, 1),)))  # weights 0 and 4
@example(LinearCode(k=2, n=4, rows=((2, 2, 0, 0), (1, 3, 1, 3))))  # not free
@example(LinearCode(k=3, n=3, rows=()))  # rank 0: the zero word alone
# rho^2 in a byte up to k = 15, residues in a byte up to k = 64 (2k <= 128)
@example(_rank1(15, 3))
@example(_rank1(16, 3))
@example(_rank1(64, 3))
@example(_rank1(65, 3))
@example(LinearCode(k=65, n=2, rows=((129, 64), (1, 2))))
# the largest weight n * k^2 against 2-byte weight fields: 65475 < 2^16
# at n = 291, 65700 at n = 292
@example(LinearCode(k=15, n=291, rows=((15,) * 291,)))
@example(LinearCode(k=15, n=292, rows=((15,) * 292,)))
def test_codes_kernel_matches_naive(code):
    assert list(enumerate_codewords(code)) == list(naive_codewords(code))
    assert verify_type2(code) == naive_verify_type2(code)
    # the swe counts each distinct codeword once, free or not
    m = code.modulus
    comps = Counter(tuple(Counter(min(x, m - x) for x in w).get(c, 0)
                          for c in range(code.k + 1))
                    for w in set(naive_codewords(code)))
    assert swe(code).counts == comps


@pytest.mark.parametrize("k", range(1, 7))
def test_enumeration_is_lexicographic(k):
    # [I4 | A]: the first four entries of a word are its coefficients
    words = list(enumerate_codewords(search_c8(k)))
    assert [w[:4] for w in words] == \
        list(itertools.product(range(2 * k), repeat=4))


@pytest.mark.parametrize("code,block", [
    (search_c8(3), 64),
    (LinearCode(k=2, n=5, rows=((2, 2, 0, 0, 1), (1, 3, 1, 3, 0),
                                (0, 0, 2, 1, 1))), 64),
    (LinearCode(k=20, n=3, rows=((1, 39, 20), (3, 0, 7))), 64),
    (LinearCode(k=70, n=2, rows=((1, 139), (70, 3))), 1200),  # 4-byte fields
])
def test_enumeration_streams_in_blocks(monkeypatch, code, block):
    # with a small block, the rows past the first stages are walked by their
    # coefficients, one block each, and nothing else changes
    whole = list(enumerate_codewords(code)), verify_type2(code), swe(code)
    monkeypatch.setattr(codes, "_BLOCK", block)
    sizes = [b.nbytes for b in codes._blocks(code)]
    assert len(sizes) > 1 and max(sizes) <= block
    assert (list(enumerate_codewords(code)), verify_type2(code),
            swe(code)) == whole
    assert whole[0] == list(naive_codewords(code))


def test_enumeration_caps_the_length():
    # rank 0 has one word whatever n is, so the length is capped on its own
    assert list(enumerate_codewords(
        LinearCode(k=1, n=codes.MAX_LENGTH, rows=()))) == \
        [(0,) * codes.MAX_LENGTH]
    with pytest.raises(TooLarge):
        next(enumerate_codewords(
            LinearCode(k=1, n=codes.MAX_LENGTH + 1, rows=())))
    with pytest.raises(TooLarge):
        verify_type2(LinearCode(k=1, n=codes.MAX_LENGTH + 1, rows=()))


def test_verify_builds_no_table_of_the_modulus():
    # a 19-byte file "zcode 1000000 8 0" has one word, the zero word; a
    # table of rho^2 over all 2k residues would take tens of MiB
    import tracemalloc
    tracemalloc.start()
    try:
        rep = verify_type2(LinearCode(k=10 ** 6, n=8, rows=()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == (False, True, 0)
    assert peak < 1 << 20


def test_non_free_code_counts_each_word_once():
    # over Z_4, 2 * (2, 2, 0, ...) = 0: four combinations give two codewords
    code = LinearCode(k=2, n=8, rows=((2, 2, 0, 0, 0, 0, 0, 0),))
    assert len(list(enumerate_codewords(code))) == 4
    table = swe(code)
    assert table.counts == {(8, 0, 0): 1, (6, 0, 2): 1}
    assert sum(table.counts.values()) == 2
    direct = theta_cosets(code, 2)
    assert direct.nonzero_terms()[0] == (0, 1)
    assert direct == theta_substitution(code, direct.T)
    assert not verify_type2(code).self_dual
