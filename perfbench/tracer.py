"""Span tracer for the zktheta layers, installed from outside the package.

Every public function defined in one of the traced modules is replaced by a
wrapper that times the call as a span whose parent is the innermost traced
call still running.  The package binds many of these functions by value
(``from .series import mul`` in extremal, modforms, codes, asymptotics and
the package ``__init__``), so patching ``zktheta.series.mul`` alone would
miss those calls: each wrapper is written into *every* loaded zktheta
namespace that holds the original object.

Spans are folded into per-function totals in memory as they close (so a
long run holds no per-call list) and read out once, by :func:`summary`,
when the traced process ends.  A span's self time is its duration minus the
wrapper time of its child spans; the bookkeeping a wrapper does after the
call returns (counting series work) is charged to neither the child nor the
parent.

Two kinds of public function get no span.  Generator functions return
before doing their work, so a span would time nothing.  ``codes.rho`` and
``codes.euclidean_weight`` run once per codeword entry (about 6e5 calls in
one pass of code searches), so a span each would cost more than the work;
their time stays in their caller's self time, which is the same layer.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import math
import sys
from time import perf_counter

LAYERS = ("series", "modforms", "extremal", "codes", "asymptotics", "cli")

UNTRACED = frozenset({"codes.rho", "codes.euclidean_weight"})

# counters kept outside the spans: name -> number
_counts: dict = {}
_max_bits = 0
# closed spans by function name: [calls, total_s, self_s]
_spans: dict = {}
# open spans, innermost last: [wrapper time of closed children]
_stack: list = []


def _bump(name: str, by=1) -> None:
    _counts[name] = _counts.get(name, 0) + by


def _nonzero_positions(s, step: int) -> list:
    return [e * step for e, c in enumerate(s.coeffs) if c]


def _count_mul(a, b, out) -> None:
    """Work counters for one series.mul call, from its operands and result."""
    global _max_bits
    D = math.lcm(a.D, b.D)
    ns = len(out.coeffs)
    pa = _nonzero_positions(a, D // a.D)
    pb = _nonzero_positions(b, D // b.D)
    pairs = 0
    for e in pa:
        if e >= ns:
            break
        pairs += bisect.bisect_left(pb, ns - e)
    _bump("series.mul.pairs", pairs)
    _bump("series.mul.out_slots", ns)
    _bump("series.mul.out_nonzero", ns - out.coeffs.count(0))
    if out.coeffs:
        top = max(map(abs, out.coeffs))
        bits = (top.bit_length() if isinstance(top, int)
                else max(top.numerator.bit_length(),
                         top.denominator.bit_length()))
        _max_bits = max(_max_bits, bits)


def _count_rows(name: str, result) -> None:
    if name == "extremal.crossover_scan":
        _bump("extremal.rows", len(result.rows))
    elif name == "extremal.theorem1_sweep":
        _bump("extremal.rows", len(result))
    elif name == "extremal.profile":
        _bump("extremal.rows", 1)


def _wrap(name: str, fn):
    count_mul = name == "series.mul"
    count_rows = name.startswith("extremal.")
    totals = _spans.setdefault(name, [0, 0.0, 0.0])

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = [0.0]
        _stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            returned = perf_counter()
            _stack.pop()
            totals[0] += 1
            totals[1] += returned - start
            totals[2] += returned - start - frame[0]
            if _stack:
                _stack[-1][0] += returned - start
        if count_mul:
            _count_mul(args[0], args[1], result)
        elif count_rows:
            _count_rows(name, result)
        if _stack:
            _stack[-1][0] += perf_counter() - returned
        return result

    return traced


def _public_functions(module, layer: str):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not inspect.isgeneratorfunction(obj)
                and f"{layer}.{attr}" not in UNTRACED):
            yield attr, obj


def install() -> None:
    """Patch every zktheta namespace and start counting series coefficients."""
    modules = {layer: importlib.import_module("zktheta." + layer)
               for layer in LAYERS}
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "zktheta" or n.startswith("zktheta.")]
    # keyed by id: the wrappers keep every original alive, so no other
    # object can share one of these ids while the namespaces are scanned
    wrappers = {id(fn): _wrap(f"{layer}.{attr}", fn)
                for layer in LAYERS
                for attr, fn in _public_functions(modules[layer], layer)}
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrappers:
                setattr(ns, attr, wrappers[id(obj)])

    series = modules["series"]
    init = series.FracSeries.__init__

    def counted_init(self, D, T, coeffs):
        init(self, D, T, coeffs)
        _bump("series.coeffs_built", len(self.coeffs))

    series.FracSeries.__init__ = counted_init


def summary() -> dict:
    """Per-layer self times, per-function totals and counters of this process."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for name, (calls, total_s, self_s) in _spans.items():
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += calls
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total_s
        out[f"{name}.self_s"] = self_s
    out.update(_counts)
    out["series.mul.max_bits"] = _max_bits
    return out
