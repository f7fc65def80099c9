import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (binary_power, brute_delta, brute_theta1, coeff_at,
                      monomial)
from zktheta import series
from zktheta.errors import OutOfTruncation, ZeroConstantTerm
from zktheta.extremal import _theta0
from zktheta.modforms import eisenstein_e4, h_series
from zktheta.series import (
    FracSeries,
    euler_scaled,
    linear_combine,
    mul,
    power,
)


def poly(*coeffs, T=40):
    return FracSeries(1, T, list(coeffs))


def test_linear_combine_cancellation():
    assert linear_combine(poly(1, 1), poly(1, -1), 1, 1) == poly(2)


def test_linear_combine_identity():
    e4 = eisenstein_e4(10)
    assert linear_combine(e4, h_series(10), 1, 0) == e4


def test_linear_combine_e4_minus_theta0():
    diff = linear_combine(eisenstein_e4(5),
                          FracSeries(1, 5, brute_theta1(1, 5)), 1, -1)
    assert coeff_at(diff, 1) == 240 - 16 == 224


def test_mul_basic():
    assert mul(poly(1, 1), poly(1, -1)) == poly(1, 0, -1)


def test_mul_delta_h_is_t():
    # h_series against Delta expanded independently
    prod = mul(FracSeries(1, 30, brute_delta(30)), h_series(30))
    assert prod == monomial(1, 1, 30)


def test_mul_e4_inverse():
    e4 = eisenstein_e4(20)
    assert mul(e4, power(e4, -1)) == poly(1, T=20)


def test_pow_binomial():
    assert power(poly(1, 1), 2) == poly(1, 2, 1)


def test_pow_f0_eighth(r8_counts):
    # theta1 = f0c^8 at k = 1 counts lattice vectors of Z^8 by norm
    t1 = power(_theta0(1, 4), 8)
    assert t1.coeffs == r8_counts[:4] == [1, 16, 112, 448]


def test_pow_one_is_identity():
    e4 = eisenstein_e4(10)
    assert power(e4, 1) == e4


def test_invert_geometric():
    inv = power(poly(1, -1, *[0] * 8, T=10), -1)
    assert inv.coeffs == [1] * 10


def test_invert_e4():
    inv = power(eisenstein_e4(3), -1)
    assert inv.coeffs == [1, -240, 55440]


def test_invert_delta_raises():
    with pytest.raises(ZeroConstantTerm):
        power(FracSeries(1, 10, brute_delta(10)), -1)


def test_invert_non_unit_constant_raises():
    # 1/(2 + t) = 1/2 - t/4 + t^2/8 - ... has no integer coefficients
    with pytest.raises(ArithmeticError):
        power(poly(2, 1, T=8), -1)


def test_pow_zero_series_and_shift_past_truncation():
    zero = FracSeries(1, 7, [])
    assert power(zero, 3).nonzero_terms() == []
    assert power(zero, 0) == FracSeries.constant(1, 7)
    # t^2 cubed is t^6, beyond T = 5
    assert power(monomial(1, 2, 5), 3).nonzero_terms() == []
    # leading shift v = 1: (t + 2t^2)^2 = t^2 + 4t^3 + O(t^4)
    sq = power(FracSeries(1, 4, [0, 1, 2, 0]), 2)
    assert sq.nonzero_terms() == [(2, 1), (3, 4)]


def test_coeff_at_examples():
    assert coeff_at(eisenstein_e4(10), 1) == 240
    assert coeff_at(poly(1, -1), 2) == 0
    assert coeff_at(FracSeries(1, 10, brute_delta(10)), 4) == -1472


def test_coeff_at_beyond_truncation():
    with pytest.raises(OutOfTruncation):
        coeff_at(poly(1, 2, T=2), 5)


def test_eq_compares_values_not_storage():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(1, 2, T=3) == poly(1, 2, T=40)
    assert poly(1, 2) != poly(1, 3)
    assert poly(1, 2) != poly(1, 2, 1)


def test_init_copies_its_list():
    src = [1, 0, -3]
    a = FracSeries(1, 3, src)
    src[0] = 9
    assert a.coeffs == [1, 0, -3]
    # every series holds exactly T slots: a short list is padded with
    # zeros, a long one cut at T
    assert FracSeries(1, 5, src).coeffs == [9, 0, -3, 0, 0]
    assert FracSeries(1, 2, src).coeffs == [9, 0]


def test_integral_truncation_is_an_int():
    # one grid: D is 1 and T a positive int
    from fractions import Fraction
    for T in (Fraction(6, 2), Fraction(7, 2), 3.5, 3.0, "3"):
        with pytest.raises(TypeError):
            FracSeries(1, T, [])
    for D, T in ((4, 3), (0, 3), (1, 0), (1, -2)):
        with pytest.raises(ValueError):
            FracSeries(D, T, [])
    assert len(FracSeries.constant(1, 3).coeffs) == 3
    assert type(mul(poly(1, 2), poly(3, 4, 5)).T) is int


def test_pipeline_builds_only_int_coefficients(monkeypatch):
    """Every series the production paths build holds ints only, exactly T
    of them."""
    from zktheta.codes import search_c8, theta_substitution
    from conftest import extremal_theta
    from zktheta.extremal import crossover_scan, profile, theorem1_sweep
    init = FracSeries.__init__
    kinds = set()

    def recording_init(self, D, T, coeffs):
        init(self, D, T, coeffs)
        kinds.update(map(type, self.coeffs))
        assert len(self.coeffs) == T

    monkeypatch.setattr(FracSeries, "__init__", recording_init)
    crossover_scan(2, 8, 480)
    theorem1_sweep(6, 480)
    profile(552, 3)
    extremal_theta(96, 2, 8)
    theta_substitution(search_c8(3), 4)
    assert kinds == {int}


def test_euler_scaled_matches_t_derivative():
    # t * d/dt takes c_e * t^e to e * c_e * t^e
    e4 = eisenstein_e4(10)
    assert euler_scaled(e4).coeffs == [e * c for e, c in enumerate(e4.coeffs)]
    assert euler_scaled(e4).coeffs[:5] == [0, 240, 2 * 2160, 3 * 6720,
                                           4 * 17520]


# -- randomized exact laws --------------------------------------------------

coeffs_st = st.lists(st.integers(min_value=-50, max_value=50),
                     min_size=1, max_size=12)


def _series(coeffs):
    return FracSeries(1, 33, coeffs)


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st)
def test_mul_commutative(a, b):
    assert mul(_series(a), _series(b)) == mul(_series(b), _series(a))


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st, coeffs_st)
def test_mul_associative(a, b, c):
    sa, sb, sc = _series(a), _series(b), _series(c)
    assert mul(mul(sa, sb), sc) == mul(sa, mul(sb, sc))


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st, coeffs_st)
def test_mul_distributes(a, b, c):
    sa, sb, sc = _series(a), _series(b), _series(c)
    assert mul(sa, linear_combine(sb, sc, 1, 1)) == \
        linear_combine(mul(sa, sb), mul(sa, sc), 1, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8),
       st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8))
def test_leibniz_rule(a, b):
    sa, sb = _series(a), _series(b)
    # t*(ab)' = a*(t*b') + (t*a')*b
    lhs = euler_scaled(mul(sa, sb))
    rhs = linear_combine(mul(sa, euler_scaled(sb)), mul(euler_scaled(sa), sb),
                         1, 1)
    assert lhs == rhs


# -- mul against the definition of the product -----------------------------

def _naive_product(a, b):
    """{exponent: coefficient} of a*b summed pair by pair over every stored
    slot of both factors, kept below min(T_a, T_b); zeros dropped."""
    T = min(a.T, b.T)
    out = {}
    for ea, ca in enumerate(a.coeffs):
        for eb, cb in enumerate(b.coeffs):
            if ea + eb < T:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {x: c for x, c in out.items() if c}


sparse_coeff_st = st.integers(min_value=-9, max_value=9)


@st.composite
def sparse_series(draw):
    """Zero-heavy series of up to 96 slots."""
    T = draw(st.integers(min_value=1, max_value=96))
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=96),
                                 sparse_coeff_st, max_size=10))
    return FracSeries.from_terms(T, terms)


@settings(max_examples=150, deadline=None)
@given(sparse_series(), sparse_series())
def test_mul_matches_naive_product(a, b):
    p = mul(a, b)
    assert p.T == min(a.T, b.T)
    assert dict(p.nonzero_terms()) == _naive_product(a, b)


def _convolution(x, y, ns):
    """The first ns slots of the product of coefficient lists x and y, each
    slot one sum over its index pairs."""
    return [sum(x[i] * y[e - i]
                for i in range(max(0, e - len(y) + 1), min(e + 1, len(x))))
            for e in range(ns)]


def _dense_coeffs(rnd, ns, fill):
    """ns slots, fill of them nonzero at random places: signed ints of 3, 64
    or 400 bits."""
    out = [0] * ns
    for e in rnd.sample(range(ns), fill):
        bits = rnd.getrandbits(rnd.choice((3, 64, 400))) or 1
        out[e] = rnd.choice((-1, 1)) * bits
    return out


@st.composite
def dense_pairs(draw):
    """Two series whose window has ns slots on both sides of series._GATE.
    Each operand has ns // 2 nonzero slots (not more than half:
    schoolbook), one more (Karatsuba when both are) or ns; one has the
    window's truncation and may drop its trailing zeros, the other up to
    three slots more."""
    rnd = draw(st.randoms(use_true_random=False))
    g = series._GATE
    ns = draw(st.sampled_from([g - 1, g, g + 1, g + 2, 2 * g + 1, 300]))
    fills = [draw(st.sampled_from([ns // 2, ns // 2 + 1, ns])) for _ in "ab"]
    a = _dense_coeffs(rnd, ns, fills[0])
    while a and not a[-1] and draw(st.booleans()):
        a.pop()
    extra = draw(st.integers(min_value=0, max_value=3))
    b = _dense_coeffs(rnd, ns + extra, fills[1])
    pair = [FracSeries(1, ns, a), FracSeries(1, ns + extra, b)]
    return pair if draw(st.booleans()) else pair[::-1]


@settings(max_examples=40, deadline=None)
@given(dense_pairs())
def test_mul_matches_convolution_dense(pair):
    a, b = pair
    p = mul(a, b)
    ns = min(a.T, b.T)
    assert (p.D, p.T) == (1, ns)
    assert p.coeffs == _convolution(a.coeffs, b.coeffs, ns)


def test_karatsuba_kernels_match_convolution():
    # every length through two recursion levels past the base, some of the
    # signed coefficients zero
    rnd = random.Random(20)
    for n in range(1, 4 * series._BASE + 4):
        x, y = ([rnd.randint(-3, 3) * rnd.getrandbits(70) for _ in range(n)]
                for _ in "xy")
        want = _convolution(x, y, 2 * n - 1)
        assert series._full(x, y) == want, n
        assert series._short(x, y, n) == want[:n], n


def _signed(rnd, bits, m, zeros=0.0):
    """m signed ints of at most `bits` bits, a share `zeros` of them 0 and
    every tenth one +-(2^bits - 1)."""
    top = (1 << bits) - 1
    return [0 if rnd.random() < zeros else rnd.choice((-1, 1)) *
            (top if i % 10 == 3 else rnd.getrandbits(bits))
            for i in range(m)]


def test_kronecker_matches_convolution_every_window():
    # every window length through 70 and three past the Karatsuba gate,
    # signed operands with zero slots, and one operand shorter than the
    # window
    rnd = random.Random(22)
    for ns in [*range(1, 71), 129, 236, 300]:
        x, y = _signed(rnd, 30, ns, 0.2), _signed(rnd, 45, ns, 0.2)
        assert series._kronecker(x, y, ns) == _convolution(x, y, ns), ns
        cut = x[:rnd.randrange(ns)]
        assert series._kronecker(cut, y, ns) == _convolution(cut, y, ns), ns
        assert series._kronecker(y, cut, ns) == _convolution(y, cut, ns), ns


def test_kronecker_slot_width_boundaries():
    # coefficients at the slot-width boundaries: the widest slot sums come
    # from operands all +-(2^b - 1), of one sign or of both
    rnd = random.Random(64)
    for b in (1, 7, 8, 9, 63, 64, 65):
        top = (1 << b) - 1
        for ns in (1, 2, 7, 8, 33, 70, 129, 236):
            for sx, sy in ((1, 1), (1, -1), (-1, -1)):
                x, y = [sx * top] * ns, [sy * top] * ns
                want = _convolution(x, y, ns)
                assert want[-1] == sx * sy * ns * top * top
                assert series._kronecker(x, y, ns) == want, (b, ns, sx, sy)
            x, y = _signed(rnd, b, ns), _signed(rnd, b, ns, 0.3)
            negative = [-abs(c) or -1 for c in x]
            for u, v in ((x, y), (negative, y), (negative, negative)):
                assert series._kronecker(u, v, ns) == _convolution(u, v, ns), \
                    (b, ns)


def _kernel_calls(monkeypatch, a, b):
    """mul(a, b) and the names of the kernels it ran, outermost first."""
    calls = []
    for name in ("_school", "_kronecker", "_short"):
        def spy(x, y, n, real=getattr(series, name), name=name):
            calls.append(name)
            return real(x, y, n)
        monkeypatch.setattr(series, name, spy)
    p = mul(a, b)
    monkeypatch.undo()
    return p, calls


def test_mul_dispatch_picks_the_kernel_meant_for_the_operands(monkeypatch):
    # windows of at most _SMALL slots and sparse operands: schoolbook; dense
    # operands of at most _NARROW bits together: Kronecker; wider dense
    # ones: Karatsuba past _GATE, the schoolbook below it
    rnd = random.Random(7)
    small, narrow, gate = series._SMALL, series._NARROW, series._GATE
    wide = narrow // 2 + 1
    cases = [
        (small, 30, 30, 0.0, "_school"),
        (small + 1, 30, 30, 0.6, "_school"),
        (236, 30, 30, 0.6, "_school"),
        (small + 1, 30, 30, 0.0, "_kronecker"),
        (236, 1, narrow - 1, 0.0, "_kronecker"),
        (236, 30, 30, 0.4, "_kronecker"),
        (236, 1, narrow, 0.0, "_short"),
        (236, wide, wide, 0.0, "_short"),
        (gate + 1, wide, wide, 0.2, "_short"),
        (gate, wide, wide, 0.0, "_school"),
    ]
    for ns, bx, by, zeros, kernel in cases:
        a = FracSeries(1, ns, _signed(rnd, bx, ns, zeros))
        b = FracSeries(1, ns, _signed(rnd, by, ns, zeros))
        p, calls = _kernel_calls(monkeypatch, a, b)
        assert calls[0] == kernel, (ns, bx, by, zeros)
        assert kernel == "_short" or calls == [kernel]
        assert p.coeffs == _convolution(a.coeffs, b.coeffs, ns)


@settings(max_examples=150, deadline=None)
@given(st.one_of(coeffs_st.map(_series), sparse_series()),
       st.integers(min_value=-6, max_value=12))
def test_pow_matches_repeated_mul(a, m):
    """Miller's recurrence against repeated squaring with mul."""
    if m >= 0:
        assert power(a, m) == binary_power(a, m)
    elif a.coeffs[0] == 0:
        with pytest.raises(ZeroConstantTerm):
            power(a, m)
    elif a.coeffs[0] not in (1, -1):
        with pytest.raises(ArithmeticError):
            power(a, m)
    else:
        one = FracSeries.constant(1, a.T)
        assert mul(power(a, m), binary_power(a, -m)) == one
