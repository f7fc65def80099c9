"""The certified sign route of text and csv crossover (zktheta.signs)."""

import functools
import json

import pytest

from zktheta import extremal, signs
from zktheta.cli import run
from zktheta.series import mul


def scaled_within(bounds, b: int, shift: int) -> bool:
    """lo * 2^E <= b * 2^(-shift) <= hi * 2^E, for bounds = (lo, hi, E),
    compared exactly as integers."""
    lo, hi, e = bounds
    x = e + shift
    return (lo << max(x, 0)) <= (b << max(-x, 0)) <= (hi << max(x, 0))


@functools.lru_cache(maxsize=None)
def exact_b(k: int, n_from: int, n_to: int) -> list:
    """(n, b_{2(mu+1)}, b_{2(mu+2)}) of the exact walk over a window."""
    return extremal._tail_chunk(k, list(range(n_from, n_to + 1, 8)))


def assert_intervals_hold(k, n_from, n_to, decide=True):
    """Every interval of the window holds its exact b and, if decide, gives
    the exact signs."""
    exact = exact_b(k, n_from, n_to)
    walked = list(signs._intervals(k, [n for n, _, _ in exact]))
    assert [w[0] for w in walked] == [n for n, _, _ in exact]
    for (n, b1, b2), (_, a, i1, i2) in zip(exact, walked):
        mu = n // 24
        assert scaled_within(i1, b1, a * (mu + 1)), (k, n)
        assert scaled_within(i2, b2, a * (mu + 2)), (k, n)
        if decide:
            assert signs._beta_signs(n, a, i1, i2) == tuple(
                map(signs._sign, extremal._betas_from_b(n, b1, b2))), (k, n)


@pytest.mark.parametrize("k,n_from,n_to", [
    *((k, 4800, 5608) for k in range(1, 7)),
    (1, 10120, 10192),  # the k = 1 crossover, 10152
])
def test_intervals_contain_the_exact_b(k, n_from, n_to):
    # at the route's precision these windows need no exact fallback
    assert_intervals_hold(k, n_from, n_to)


def slots(x, w):
    """The (lo, hi) slot lists of a packed series (lo, hi, E, n, ...)."""
    return [signs._unpack(side, w, 0, x[3]) for side in x[:2]]


def test_fixed_rounds_each_side_outward():
    w = signs._width(3)
    xs = [(1 << signs._PREC) + 1, 3, 1]
    lo, hi, e, n = signs._fixed(xs, 1, w)
    for i, (l, h) in enumerate(zip(*slots((lo, hi, e, n), w))):
        assert scaled_within((l, h, e), xs[i], i), i
        assert l < h, i  # every slot here needs rounding


def test_bounds_hold_where_the_dropped_slots_decide():
    # exact operands (lo = hi) whose last step slot, one unit, is dropped
    # by _trim, so only the step's exact tail keeps the true slot 2 of the
    # product inside; slot 1 is odd above the shift, so only rounding the
    # hi side up keeps it inside
    u, w = 1 << signs._PREC - 1, signs._width(3)
    g = signs._fixed([u + 1] * 3, 0, w)
    x = signs._fixed([u, 2, 1], 0, w)
    step, reach = signs._walk_step(x, [u, 2, 1], 0, w)
    assert step[3] == 2 and step[4] == 1 << signs._SUB
    prod = mul(*(extremal.FracSeries(1, 3, c)
                 for c in ([u + 1] * 3, [u, 2, 1])))
    # the walk's product and the opening's, with its running-max reach
    for got in (signs._times(g, step, reach, w), signs._power(g, x, 1, w)):
        for s, (lo, hi) in enumerate(zip(*slots(got, w))):
            assert scaled_within((lo, hi, got[2]), prod.coeffs[s], 0), s
    # the dot's tails, on each side of Q = Q+ - Q-
    g = signs._fixed([u] * 3, 0, w)
    for q in ([u, 2, 1], [u, -2, -1]):
        b = signs._dot(signs._window(g, 2, 3, w), signs._split(q, 0, w, 0),
                       2)
        assert scaled_within(b, u * sum(q), 0), q


def test_each_giant_unpacks_every_slot_its_dots_read(monkeypatch):
    # the dots read the same bounds from a window of every slot of G
    run_ns = list(range(4800, 5609, 8))
    want = list(signs._intervals(1, run_ns))
    window = signs._window
    monkeypatch.setattr(signs, "_window",
                        lambda g, top, span, w: window(g, top, top + 1, w))
    assert list(signs._intervals(1, run_ns)) == want


def test_mixed_signs_never_enter_a_walked_bound():
    with pytest.raises(ValueError):
        signs._fixed([1, -504, 0], 0, signs._width(3))


def recorded_past_head(monkeypatch) -> list:
    """The list that every bound of signs._past_head is appended to."""
    bounds, past_head = [], signs._past_head

    def recorded(*args):
        bounds.append(past_head(*args))
        return bounds[-1]

    monkeypatch.setattr(signs, "_past_head", recorded)
    return bounds


@pytest.mark.parametrize("k,n_from,n_to", [(1, 10120, 10192),
                                           (6, 4800, 5608)])
def test_a_short_head_keeps_the_exact_b_inside(monkeypatch, k, n_from,
                                                n_to):
    # with Q exact over 4 slots only, the bound past the head carries most
    # of Q's mass, and the intervals must still hold the exact b
    bounds = recorded_past_head(monkeypatch)
    monkeypatch.setattr(signs, "_head_lengths", lambda T: [4])
    assert_intervals_hold(k, n_from, n_to, decide=False)
    assert max(bounds) > 1 << signs._SUB


@pytest.mark.parametrize("k,n_from,n_to", [(1, 8, 16), (2, 16, 24)])
def test_a_head_of_every_slot_leaves_nothing_past_it(monkeypatch, k, n_from,
                                                     n_to):
    # T = 3 and 4 slots: the first head holds them all, so the bound past
    # it is exactly 0 and every length is decided
    bounds = recorded_past_head(monkeypatch)
    assert_intervals_hold(k, n_from, n_to)
    assert bounds and not any(bounds)


def width(bounds) -> int:
    """log2 of an interval's width relative to its value, in whole bits."""
    lo, hi, _ = bounds
    return (hi - lo).bit_length() - max(abs(lo), abs(hi)).bit_length()


@pytest.mark.parametrize("k,n_from,n_to,widest", [(1, 4800, 5608, -86),
                                                  (6, 24000, 24400, -48)])
def test_the_widest_interval_keeps_its_bits(k, n_from, n_to, widest):
    # the widest b interval of the window is no wider than it was before
    # the walk was packed
    walked = signs._intervals(k, list(range(n_from, n_to + 1, 8)))
    assert max(width(b) for _, _, b1, b2 in walked for b in (b1, b2)) \
        <= widest


def test_tiny_precision_falls_back_to_exact_signs(monkeypatch):
    exact = []
    tail_chunk = extremal._tail_chunk

    def counted(k, ns_list):
        exact.extend(ns_list)
        return tail_chunk(k, ns_list)

    monkeypatch.setattr(extremal, "_tail_chunk", counted)
    monkeypatch.setattr(signs, "_PREC", 2)
    for k, n_from, n_to in ((1, 10120, 10192), (3, 96, 240)):
        scan = extremal.crossover_scan(k, n_from, n_to)
        exact.clear()
        rows, first = signs.crossover_signs(k, n_from, n_to)
        assert exact == [r.n for r in scan.rows]
        assert rows == [(r.n, signs._sign(r.beta1), signs._sign(r.beta2))
                        for r in scan.rows]
        assert first == scan.first_negative


def test_one_length_runs_are_exact(monkeypatch):
    monkeypatch.setattr(signs, "_intervals", None)
    assert signs.crossover_signs(1, 10152, 10152) == ([(10152, 1, -1)], 10152)
    assert signs.crossover_signs(1, 10144, 10144, workers=3) == \
        ([(10144, 1, 1)], None)


def test_one_interval_walk_for_every_worker_count(monkeypatch,
                                                  in_process_pool):
    # the interval walk runs once over the whole scan; only the lengths it
    # leaves undecided go to the exact route, cut into runs for the workers
    walks, undecided, runs = [], [], []
    intervals, beta_signs = signs._intervals, signs._beta_signs
    tail_chunk = extremal._tail_chunk

    def walked(k, ns_list):
        walks.append(list(ns_list))
        return intervals(k, ns_list)

    def decided(n, *bounds):
        got = beta_signs(n, *bounds)
        if got is None:
            undecided.append(n)
        return got

    def exact(k, ns_list):
        runs.append(list(ns_list))
        return tail_chunk(k, ns_list)

    monkeypatch.setattr(signs, "_intervals", walked)
    monkeypatch.setattr(signs, "_beta_signs", decided)
    monkeypatch.setattr(extremal, "_tail_chunk", exact)
    scan = extremal.crossover_scan(1, 10120, 10192)
    want = [(r.n, signs._sign(r.beta1), signs._sign(r.beta2))
            for r in scan.rows]
    # 2 bits decide no length, so the exact route takes all ten in three
    # runs; 24 bits leave a few, too few to split
    for prec, n_runs, n_undecided in ((2, 3, 10), (24, 1, 2)):
        monkeypatch.setattr(signs, "_PREC", prec)
        del walks[:], undecided[:], runs[:]
        rows, first = signs.crossover_signs(1, 10120, 10192, workers=3)
        assert walks == [[r.n for r in scan.rows]], prec
        assert len(undecided) == n_undecided, prec
        assert len(runs) == n_runs and sum(runs, []) == undecided, prec
        assert (rows, first) == (want, scan.first_negative), prec
    assert len(in_process_pool) == 1  # only the three runs start a pool


def cli_rows(capsys, fmt, workers, k, n_from, n_to):
    rc = run(["--format", fmt, "--workers", str(workers), "crossover",
              "--k", str(k), "--from", str(n_from), "--to", str(n_to)])
    out = capsys.readouterr().out
    assert rc == 0
    if fmt == "json":
        payload = json.loads(out)
        return ([[r["n"], signs._sign(int(r["beta1"])),
                  signs._sign(int(r["beta2"]))] for r in payload["rows"]],
                payload["first_negative"])
    lines = out.splitlines()
    cells = [line.split("," if fmt == "csv" else None) for line in lines]
    assert cells[0] == ["n", "beta1_sign", "beta2_sign"]
    assert cells[-1][0] == "first_negative"
    first = cells[-1][-1]
    return ([[int(c) for c in row] for row in cells[1:-1]],
            None if first in ("", "None") else int(first))


@pytest.mark.parametrize("k,n_from,n_to", [(1, 10120, 10192), (2, 8, 120)])
def test_text_and_csv_signs_equal_json(capsys, k, n_from, n_to):
    want = cli_rows(capsys, "json", 1, k, n_from, n_to)
    for fmt in ("text", "csv"):
        for workers in (1, 3):
            assert cli_rows(capsys, fmt, workers, k, n_from, n_to) == want, \
                (fmt, workers)
