import itertools

import pytest

# filled in by tests/test_acceptance.py; echoed after the test report so the
# per-criterion verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def brute_force_r8(m_max: int):
    """Counts of x in Z^8 with sum(x_i^2) = m, for m = 0..m_max.

    Independent oracle for theta1: plain enumeration, no series math.  The
    points of Z^2 are counted by norm one by one, and Z^4, Z^8 by pairing
    those counts: (2b+1)^2 points instead of (2b+1)^8, b = isqrt(m_max).
    """
    import math

    bound = math.isqrt(m_max)
    counts = [0] * (m_max + 1)
    for x, y in itertools.product(range(-bound, bound + 1), repeat=2):
        if x * x + y * y <= m_max:
            counts[x * x + y * y] += 1
    for _ in range(2):
        counts = [sum(counts[a] * counts[m - a] for a in range(m + 1))
                  for m in range(m_max + 1)]
    return counts


@pytest.fixture
def in_process_pool(monkeypatch):
    """concurrent.futures.ProcessPoolExecutor replaced by a pool that maps in
    this process, so that patched layers reach its runs; the list returned
    collects each pool's max_workers."""
    import concurrent.futures
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    return sizes


def eq3_value(s: int, k: int, y: int, xs):
    """((s+2)*(1+2ky)^2 - l) / 4k as a Fraction, with l the summed square
    norm: the Eq. (3) value that criterion 8 and test_extremal sample.

    xs supplies the s+1 free lattice coordinates; positive whenever l < s+2.
    """
    from fractions import Fraction

    xs = list(xs)
    if len(xs) != s + 1:
        raise ValueError(f"need s+1 = {s + 1} coordinates, got {len(xs)}")
    head = (1 + 2 * k * y) ** 2
    l = head + sum((2 * k * x) ** 2 for x in xs)
    return Fraction((s + 2) * head - l, 4 * k)


def brute_theta1(k: int, T: int):
    """[t^m] theta1 for m < T, theta1 the theta series of sqrt(2k)*Z^8:
    r8(m/k) where k divides m, else 0, from brute_force_r8."""
    r8 = brute_force_r8((T - 1) // k)
    return [r8[m // k] if m % k == 0 else 0 for m in range(T)]


def brute_delta(T: int):
    """[t^m] Delta for m < T: direct convolution expansion of
    t * prod (1 - t^m)^24, one factor (1 - t^m) at a time."""
    prod = [1] + [0] * (T - 2)
    for m in range(1, T - 1):
        for _ in range(24):
            nxt = list(prod)
            for e in range(len(prod)):
                if prod[e] and e + m < len(prod):
                    nxt[e + m] -= prod[e]
            prod = nxt
    return [0] + prod


def qp_F(y, digits: int):
    """F(y) = 1/Delta(t) = 1/(t * qp(t)^24), t = e^(-2*pi*y), with mpmath's
    q-Pochhammer symbol qp(t) = prod (1 - t^m), at digits + 10 working
    digits, rounded on return to the caller's working precision.

    Oracle for asymptotics._F, which sums the logarithm of Euler's product
    up to its own cutoff.
    """
    import mpmath as mp

    with mp.workdps(digits + 10):
        t = mp.exp(-2 * mp.pi * mp.mpf(y))
        val = 1 / (t * mp.qp(t) ** 24)
    return +val


def F_at(y, digits: int):
    """asymptotics._F(y) at `digits` working digits."""
    import mpmath as mp

    from zktheta.asymptotics import _F

    with mp.workdps(digits):
        return _F(mp.mpf(y))


def expand_u(xc, k: int):
    """X with X(t) = xc(t^k), every slot of the integer grid stored."""
    from zktheta.series import FracSeries

    out = [0] * (k * len(xc.coeffs))
    out[::k] = xc.coeffs
    return FracSeries(1, k * xc.T, out)


def monomial(coeff, exponent: int, T: int):
    """coeff * t^exponent as a FracSeries cut at T."""
    from zktheta.series import FracSeries

    return FracSeries.from_terms(T, {exponent: coeff})


def coeff_at(a, exponent, k: int = 1):
    """Exact coefficient of t^exponent in a, a series on the integer grid or
    a pair (r, S) meaning t^(r/4k) * S with S on the integer grid; 0 for an
    exponent off that coset below the truncation, OutOfTruncation at or
    past it."""
    from fractions import Fraction

    from zktheta.errors import OutOfTruncation

    r, s, D = (*a, 4 * k) if isinstance(a, tuple) else (0, a, 1)
    slot, off = divmod(Fraction(exponent) * D - r, D)
    if slot >= s.T:
        raise OutOfTruncation(f"exponent {exponent} past truncation {s.T}")
    return s.coeffs[slot] if slot >= 0 and not off else 0


def on_v_grid(cosets, k: int, N: int):
    """[v^x] for x < N of sum_r t^(r/4k) * S_r, cosets = {r: S_r}, with
    v = t^(1/4k): the coset form laid out on one dense grid, slot 4k*e + r
    from [t^e] S_r.  A slot past some S_r's truncation raises
    OutOfTruncation."""
    from zktheta.errors import OutOfTruncation

    D, out = 4 * k, [0] * N
    for r, s in cosets.items():
        if D * s.T + r < N:
            raise OutOfTruncation(f"coset {r}/{D} cut at {s.T}, below v^{N}")
        for e, c in s.nonzero_terms():
            if D * e + r < N:
                out[D * e + r] = c
    return out


def theta_v(k: int, i: int, T: int):
    """f_i = modforms.theta_f(k, i, T) as a series in v = t^(1/4k), every
    slot stored, cut at v^(4kT).  On this grid 4k * t * d/dt is v * d/dv,
    series.euler_scaled."""
    from zktheta.modforms import theta_f
    from zktheta.series import FracSeries

    return FracSeries(1, 4 * k * T, on_v_grid(dict([theta_f(k, i, T)]), k,
                                             4 * k * T))


def binary_power(a, m: int):
    """a^m for m >= 0 by repeated squaring with series.mul.

    Oracle for series.power, which runs Miller's recurrence and shares no
    code with this.
    """
    from zktheta.series import FracSeries, mul

    result = FracSeries.constant(1, a.T)
    while m:
        if m & 1:
            result = mul(result, a)
        m >>= 1
        if m:
            a = mul(a, a)
    return result


def dense_theta_bracket(th1, e4):
    """t * (theta1 * E4' - theta1' * E4) from a theta1 stored on every slot
    of the integer grid, by plain products.

    Oracle for extremal._theta_bracket, which keeps theta1 on t^k.
    """
    from zktheta.series import euler_scaled, linear_combine, mul

    return linear_combine(mul(th1, euler_scaled(e4)),
                          mul(euler_scaled(th1), e4), 1, -1)


def w_powers(T):
    """[w^s for s = 0..T-1], w = E4^3 * h = t*J, each cut at T."""
    from zktheta.modforms import eisenstein_e4, h_series
    from zktheta.series import FracSeries, mul, power

    w = mul(power(eisenstein_e4(T), 3), h_series(T))
    out = [FracSeries.constant(1, T)]
    for _ in range(1, T):
        out.append(mul(out[-1], w))
    return out


def bracket_b_list(n: int, k: int, extra: int, wpows: list):
    """b_{2s} for s = 0..mu+extra in the bracket form of Lagrange-Buermann,
    b_{2s} = -(j/s) * [t^s] theta1^(j-1) * B * E4^(3s-j-1) * h^s with the
    bracket B = t * (theta1 * E4' - theta1' * E4) from dense_theta_bracket;
    every division by s is asserted exact.

    Oracle for extremal's E6 form, b_{2s} = [t^s] theta1^j * E6 *
    E4^(3s-j-1) * h^s, which has no bracket and no division.  The b's are
    [t^s] R * w^s with R = theta1^(j-1) * B * E4^(-j-1); wpows is
    w_powers(T) for any T > mu + extra.
    """
    from zktheta.modforms import eisenstein_e4
    from zktheta.series import FracSeries, mul, power

    j, N = n // 8, n // 24 + extra + 1
    th1, e4 = FracSeries(1, N, brute_theta1(k, N)), eisenstein_e4(N)
    r = mul(mul(power(th1, j - 1), dense_theta_bracket(th1, e4)),
            power(e4, -j - 1)).coeffs
    out = [1]
    for s in range(1, N):
        ws = wpows[s].coeffs
        b, rem = divmod(-j * sum(r[e] * ws[s - e] for e in range(s + 1)), s)
        assert rem == 0, (n, k, s)
        out.append(b)
    return out


def matching_b_list(n: int, k: int, extra: int):
    """b_{2s} for s = 0..mu+extra by coefficient matching.

    Oracle for extremal.b_coefficients, which runs Lagrange-Buermann.
    Peels psi = theta1 / E4 against a running power of u = Delta / E4^3:
    u = t + O(t^2), so after subtracting b_{2r} u^r for r < s the residual
    starts at t^s with coefficient b_{2s}.  That gives G_k, the b-list of
    n = 8; substituting u is a ring map, so the b-list of n = 8j is G_k^j.
    """
    from zktheta.modforms import eisenstein_e4
    from zktheta.series import FracSeries, mul, power

    N = n // 24 + extra + 1
    e4 = eisenstein_e4(N)
    u = mul(FracSeries(1, N, brute_delta(N)), power(e4, -3))
    resid = list(mul(FracSeries(1, N, brute_theta1(k, N)),
                     power(e4, -1)).coeffs)
    upow = FracSeries.constant(1, N)
    g = []
    for s in range(N):
        g.append(resid[s])
        for e, c in upow.nonzero_terms():
            resid[e] -= g[s] * c
        upow = mul(upow, u)
    return power(FracSeries(1, N, g), n // 8).coeffs


def extremal_theta(n: int, k: int, T: int):
    """sum_{s<=mu} b_{2s} E4^{j-3s} Delta^s, truncated at T: the putative
    extremal theta series, summed as E4^j * sum_s b_{2s} u^s with
    u = Delta * E4^(-3), by Horner, from extremal.b_coefficients and
    brute_delta."""
    from zktheta.extremal import b_coefficients, shape
    from zktheta.modforms import eisenstein_e4
    from zktheta.series import FracSeries, linear_combine, mul, power

    j, mu, _ = shape(n)
    if T <= mu + 2:
        raise ValueError(f"need T > mu+2 = {mu + 2}, got {T}")
    e4 = eisenstein_e4(T)
    u = mul(FracSeries(1, T, brute_delta(T)), power(e4, -3))
    acc = FracSeries.constant(0, T)
    for bs in reversed(b_coefficients(n, k)[:mu + 1]):
        acc = linear_combine(mul(acc, u), FracSeries.constant(bs, T), 1, 1)
    return mul(power(e4, j), acc)


def _trunc_mul(a, b, N):
    """Product of two coefficient lists, cut to N terms."""
    out = [0] * N
    for i, ai in enumerate(a[:N]):
        if ai:
            for e, be in enumerate(b[:N - i]):
                if be:
                    out[i + e] += ai * be
    return out


def _trunc_pow(a, m, N):
    """a^m cut to N terms, for a[0] == 1 (J. C. P. Miller's recurrence)."""
    nz = [(l, c) for l, c in enumerate(a[:N]) if l and c]
    p = [1] + [0] * (N - 1)
    for i in range(1, N):
        acc = 0
        for l, c in nz:
            if l > i:
                break
            acc += ((m + 1) * l - i) * c * p[i - l]
        p[i] = acc // i
    return p


def extremal_excess(n: int, ks):
    """{k: (beta1, beta2)} from the definition alone, with no zktheta code.

    A Type II Z_2k-code C of length n = 8j gives the even unimodular lattice
    A(C) = {x in Z^n : x mod 2k in C} / sqrt(2k), which contains
    sqrt(2k)Z^n.  A vector outside that sublattice has norm >= d_E / 2k, so
    if C is extremal, d_E = 4k(mu + 1) with mu = n // 24, the theta series
    of A(C) (sum of t^(norm/2), t = q^2) agrees with (sum_y t^(k y^2))^n
    through t^mu.  It is a modular form of weight 4j, and the forms
    E4^(j-3s) Delta^s, s = 0..mu, are a basis of those with
    Delta^s = t^s + ..., so that agreement fixes it by a triangular solve.
    beta1, beta2 are its excess over (sum_y t^(k y^2))^n at t^(mu+1) and
    t^(mu+2).  E4 comes from sigma_3 and Delta / t = prod (1 - t^m)^24 from
    Euler's pentagonal series: no division, inversion or change of variable.
    """
    j, mu = n // 8, n // 24
    N = mu + 3
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
                for m in range(1, N)]
    euler = [0] * N
    g = 0
    while g * (3 * g - 1) // 2 < N:
        for p in (g * (3 * g - 1) // 2, g * (3 * g + 1) // 2):
            if p < N:
                euler[p] = (-1) ** g
        g += 1
    delta_t = _trunc_pow(euler, 24, N)
    # basis[s][e] is the coefficient of t^(s+e) in E4^(j-3s) Delta^s
    basis = []
    dpow = [1]
    for s in range(mu + 1):
        basis.append(_trunc_mul(_trunc_pow(e4, j - 3 * s, N - s), dpow, N - s))
        dpow = _trunc_mul(dpow, delta_t, N - s - 1)
    out = {}
    for k in ks:
        th = [0] * N
        y = 0
        while k * y * y < N:
            th[k * y * y] = 2 if y else 1
            y += 1
        resid = _trunc_pow(th, n, N)  # theta of sqrt(2k)Z^n minus the form
        for s, row in enumerate(basis):
            c = resid[s]
            if c:
                for e, be in enumerate(row):
                    resid[s + e] -= c * be
        assert not any(resid[:mu + 1])
        out[k] = (-resid[mu + 1], -resid[mu + 2])
    return out


def uncancelled_g_ratio(t0):
    """G2(t0)/G1(t0) from the full exact product series, no cancellation.

    G1 = E4^2 * core and G2 = E4^5 * core with core = theta1^(j-1) *
    (theta bracket) * h at j = 30, k = 1, nu = 0; the product cutoff T
    doubles from 160 until two values agree to 1e-12.  Equals E4(t0)^3 when
    the shared factors cancel as the asymptotics assume.  Each series is
    summed at t0 by mpmath's Horner rule, polyval.
    """
    import mpmath as mp

    from zktheta.modforms import eisenstein_e4, h_series
    from zktheta.series import FracSeries, mul, power

    j = 30
    with mp.workdps(40):
        prev = None
        for T in (160, 320, 640):
            # the bracket carries a factor t, which cancels in the ratio
            th1 = FracSeries(1, T, brute_theta1(1, T))
            e4 = eisenstein_e4(T)
            core = mul(mul(power(th1, j - 1), dense_theta_bracket(th1, e4)),
                       h_series(T))
            ratio = (mp.polyval(mul(power(e4, 5), core).coeffs[::-1], t0)
                     / mp.polyval(mul(power(e4, 2), core).coeffs[::-1], t0))
            if prev is not None and abs(ratio / prev - 1) < mp.mpf("1e-12"):
                break
            prev = ratio
        return ratio


def padded_certificate(n: int, k: int) -> bool:
    """The verdict of the certificate on padded grids.

    Each f-layer 4k*t*(f0*f_i' - f0'*f_i) * f0^(8j-1) is built densely in
    v = t^(1/4k) (theta_v), with no coset bookkeeping and no use of theta1,
    and read through every power of v up to 4k*(mu+1), the window; the head
    layer is t*theta1^(j-1)*(theta1*E4' - theta1'*E4).  Conditions follow
    extremal._verdict.  Both powers come from binary_power, not from
    series.power.
    """
    from zktheta.modforms import eisenstein_e4
    from zktheta.series import FracSeries, euler_scaled, linear_combine, mul

    j, mu = n // 8, n // 24
    T, D = mu + 2, 4 * k
    th1 = FracSeries(1, T, brute_theta1(k, T))
    bracket = dense_theta_bracket(th1, eisenstein_e4(T))
    s1 = mul(binary_power(th1, j - 1), bracket)
    ok = min(s1.coeffs[1:mu + 2]) > 0
    f0 = theta_v(k, 0, T)
    f0pow = binary_power(f0, 8 * j - 1)
    for i in range(1, k + 1):
        fi = theta_v(k, i, T)
        brk = linear_combine(mul(f0, euler_scaled(fi)),
                             mul(euler_scaled(f0), fi), 1, -1)
        pi = mul(f0pow, brk)
        window = pi.coeffs[:D * (mu + 1) + 1]
        # the leading index i^2 must be positive if it is a window index
        lead_ok = i * i > D * (mu + 1) or pi.coeffs[i * i] > 0
        if not lead_ok or min(window, default=0) < 0:
            ok = False
    return ok


def dense_f_bracket(k: int, i: int, T):
    """(r, B) with 4k * t * (f0 * f_i' - f0' * f_i) = t^(r/4k) * B.

    Oracle for extremal._f_bracket, which sums lattice-term pairs straight
    into the coset's slots: here the bracket is formed densely in
    v = t^(1/4k), f0 * euler_scaled(f_i) - euler_scaled(f0) * f_i, and its
    slots r, r + 4k, ..., r = i^2 mod 4k, are read off; a nonzero
    coefficient off that coset raises GridViolation.
    """
    from zktheta.errors import GridViolation
    from zktheta.series import FracSeries, euler_scaled, linear_combine, mul

    D = 4 * k
    f0, fi = theta_v(k, 0, T), theta_v(k, i, T)
    brk = linear_combine(mul(f0, euler_scaled(fi)), mul(euler_scaled(f0), fi),
                         1, -1)
    r = i * i % D
    if any(any(brk.coeffs[s::D]) for s in range(D) if s != r):
        raise GridViolation(
            f"f-bracket k={k}, i={i} off the coset {r}/{D} + Z")
    return r, FracSeries(1, T, brk.coeffs[r::D])


def _coset_vectors(residues, m: int, bound: int):
    """Every integer vector v with v[c] = residues[c] mod m and |v|^2 <= bound.

    Plain box enumeration, one coordinate at a time.
    """
    import math

    if not residues:
        yield ()
        return
    lim = math.isqrt(bound)
    for x in range(-lim, lim + 1):
        if (x - residues[0]) % m == 0:
            for rest in _coset_vectors(residues[1:], m, bound - x * x):
                yield (x,) + rest


def lattice_certificate(n: int, k: int) -> bool:
    """The verdict of the certificate from lattice points alone, with no
    zktheta code.

    The head layer t*theta1^(j-1)*(theta1*E4' - theta1'*E4) is
    A*t*E4' - t*A'*E4/j with A = theta1^j, the theta series
    sum t^(k|v|^2) of sqrt(2k)Z^n counted point by point, and E4 from
    sigma_3.  The f-layer i, 4k*t*f0^(n-1)*(f0*f_i' - f0'*f_i), is the sum
    of (x^2 - y^2)*t^(|p|^2/4k) over the points p = (x, y, z_1..z_(n-1))
    with x = i and y, z = 0 mod 2k: each point of norm <= 4k(mu + 1), the
    window, adds x^2 - y^2 to its norm's slot.  Conditions follow
    extremal._verdict.
    """
    j, mu = n // 8, n // 24
    D = 4 * k
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
                for m in range(1, mu + 2)]
    a = [0] * (mu + 2)
    for v in _coset_vectors((0,) * n, 1, (mu + 1) // k):
        a[k * sum(x * x for x in v)] += 1
    ok = True
    for e in range(1, mu + 2):
        c, rem = divmod(sum(a[s] * e4[e - s] * (j * (e - s) - s)
                            for s in range(e + 1)), j)
        assert not rem
        ok = ok and c > 0
    for i in range(1, k + 1):
        slots = {}
        for p in _coset_vectors((i,) + (0,) * n, 2 * k, D * (mu + 1)):
            norm = sum(x * x for x in p)
            slots[norm] = slots.get(norm, 0) + p[0] ** 2 - p[1] ** 2
        if i * i <= D * (mu + 1) and slots.get(i * i, 0) <= 0:
            ok = False
        ok = ok and min(slots.values(), default=0) >= 0
    return ok


def naive_codewords(code):
    """Every sum c_i * row_i mod 2k, c in lexicographic order.

    Oracle for codes.enumerate_codewords, which adds each row multiple to
    a whole byte buffer at once; here each word is rebuilt from all r rows.
    """
    m, n = code.modulus, code.n
    for coeffs in itertools.product(range(m), repeat=code.rank):
        word = [0] * n
        for c, row in zip(coeffs, code.rows):
            for idx in range(n):
                word[idx] += c * row[idx]
        yield tuple(x % m for x in word)


def naive_verify_type2(code):
    """codes.Type2Report from the set of distinct codewords.

    Oracle for codes.verify_type2, which counts weights without a set and
    reads freeness off the number of zero words: here the code is free iff
    its (2k)^r combinations give (2k)^r distinct words, and the weight of x
    is min(x, 2k - x)^2, without codes.rho.
    """
    from zktheta.codes import Type2Report

    k, m = code.k, code.modulus
    words = set(naive_codewords(code))
    weights = {sum(min(x, m - x) ** 2 for x in w) for w in words}
    gram_ok = all(sum(a * b for a, b in zip(r1, r2)) % m == 0
                  for r1 in code.rows for r2 in code.rows)
    free_ok = len(words) == m ** code.rank
    return Type2Report(
        self_dual=gram_ok and free_ok and 2 * code.rank == code.n,
        all_weights_div_4k=all(w % (4 * k) == 0 for w in weights),
        d_E=min((w for w in weights if w), default=0))


@pytest.fixture(scope="session")
def r8_counts():
    return brute_force_r8(12)
