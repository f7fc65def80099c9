"""The certified sign route of text and csv crossover (zktheta.signs)."""

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


@pytest.mark.parametrize("k,n_from,n_to", [
    *((k, 4800, 5608) for k in range(1, 7)),
    (1, 10120, 10192),  # the k = 1 crossover, 10152
])
def test_intervals_contain_the_exact_b(k, n_from, n_to):
    run_ns = list(range(n_from, n_to + 1, 8))
    exact = extremal._tail_chunk(k, run_ns)
    walked = list(signs._intervals(k, run_ns))
    assert [w[0] for w in walked] == run_ns
    for (n, b1, b2), (_, a, i1, i2) in zip(exact, walked):
        mu = n // 24
        assert scaled_within(i1, b1, a * (mu + 1)), (k, n)
        assert scaled_within(i2, b2, a * (mu + 2)), (k, n)
        # at the route's precision these windows need no exact fallback
        assert signs._beta_signs(n, a, i1, i2) == tuple(
            map(signs._sign, extremal._betas_from_b(n, b1, b2))), (k, n)


def test_bounds_hold_where_the_dropped_slots_decide():
    # exact operands (lo = hi) whose last slot, one unit, is dropped by
    # _trim, and a sum that the hi side's shift leaves exact: only the
    # tail bound keeps the true value inside
    u = 1 << signs._PREC - 1
    g = signs._fixed([u, u, u], 0)
    step = signs._trim(signs._fixed([u, 2, 1], 0))
    assert g[0] == g[1] and step[:2] == ([u, 2], [u, 2]) and step[3] == 1
    prod = mul(*(extremal.FracSeries(1, 3, c) for c in ([u] * 3, [u, 2, 1])))
    got = signs._times(g, step)
    for s in range(3):
        assert scaled_within((got[0][s], got[1][s], got[2]),
                             prod.coeffs[s], 0), s
    # the dot's tails, on each side of Q = Q+ - Q-
    for q in ([u, 2, 1], [u, -2, -1]):
        b = signs._dot(g, signs._split(q, 0), 2)
        assert scaled_within(b, u * sum(q), 0), q


def test_mixed_signs_never_enter_a_walked_bound():
    with pytest.raises(ValueError):
        signs._fixed([1, -504, 0], 0)


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
