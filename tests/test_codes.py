import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_codewords, naive_verify_type2
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
    assert table.total() == 16


def test_swe_total_matches_cardinality():
    code = octacode_like()
    assert swe(code).total() == 4 ** 4


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


@st.composite
def small_codes(draw):
    """Codes with k <= 3, length <= 6 and rank 0..3: mostly not free and not
    self-orthogonal, since the rows are drawn at random."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, 2 * k - 1)] * n)
    return LinearCode(k=k, n=n, rows=tuple(draw(st.lists(row, max_size=3))))


@settings(max_examples=150, deadline=None)
@given(small_codes())
@example(LinearCode(k=1, n=2, rows=((1, 1),)))  # self-dual, weight 2
@example(LinearCode(k=1, n=4, rows=((1, 1, 1, 1),)))  # weights 0 and 4
@example(LinearCode(k=2, n=4, rows=((2, 2, 0, 0), (1, 3, 1, 3))))  # not free
@example(LinearCode(k=3, n=3, rows=()))  # rank 0: the zero word alone
def test_codes_kernel_matches_naive(code):
    assert list(enumerate_codewords(code)) == list(naive_codewords(code))
    assert verify_type2(code) == naive_verify_type2(code)
    # the swe counts each distinct codeword once, free or not
    m = code.modulus
    comps = Counter(tuple(Counter(min(x, m - x) for x in w).get(c, 0)
                          for c in range(code.k + 1))
                    for w in set(naive_codewords(code)))
    assert swe(code).counts == comps


def test_non_free_code_counts_each_word_once():
    # over Z_4, 2 * (2, 2, 0, ...) = 0: four combinations give two codewords
    code = LinearCode(k=2, n=8, rows=((2, 2, 0, 0, 0, 0, 0, 0),))
    assert len(list(enumerate_codewords(code))) == 4
    table = swe(code)
    assert table.counts == {(8, 0, 0): 1, (6, 0, 2): 1}
    assert table.total() == 2
    direct = theta_cosets(code, 2)
    assert direct.nonzero_terms()[0] == (0, 1)
    assert direct == theta_substitution(code, direct.T)
    assert not verify_type2(code).self_dual
