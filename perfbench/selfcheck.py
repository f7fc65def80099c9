"""Checks of the benchmark itself (not of zktheta).

    python3 perfbench/selfcheck.py

Runs one untraced and one traced pass of every workload (about a minute)
and asserts that
  * BENCHMARK.json names exactly the metrics, with the units, that run.py
    prints, and every printed value is a finite number;
  * every invocation passes its output check, and a traced invocation
    prints byte for byte what the untraced one printed;
  * series.mul.calls and series.power.calls > 0 on scan-k1: the scan calls
    power only through names that extremal and modforms bound with
    ``from .series import ...``, so this shows the tracer patched those
    bindings, not just the series module;
  * extremal has the largest layer self time on scan-k1, and series on
    certify-k6;
  * in a directory holding only BENCHMARK.json and the benchmark, run.py
    exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import tracer

DOMINANT_LAYER = {"scan-k1": "extremal", "certify-k6": "series"}


def _check_metric_names(problems: list) -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != printed:
            problems.append(f"BENCHMARK.json {key} {listed} != run.py {printed}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")


def _check_workload(name: str, problems: list) -> None:
    m = run.measure(name, seed=0, seconds=0, trace=True)
    print("\n".join(run.report(m)[0]))
    for o in m.outcomes:
        if not o.ok:
            problems.append(f"{name}: {' '.join(o.argv)} failed: {o.why}")
    plain = {" ".join(o.argv): o.stdout for o in m.plain[0].outcomes}
    for o in m.traced[0].outcomes:
        if plain.get(" ".join(o.argv)) != o.stdout:
            problems.append(f"{name}: traced output of {' '.join(o.argv)} "
                            "differs from untraced")
    layers = run.per_layer(m)
    for metric, value in {**run.end_to_end(m), **layers}.items():
        if not math.isfinite(value):
            problems.append(f"{name}: {metric} = {value}")
    totals = run.layer_totals(m.traced[0])
    if name == "scan-k1" and min(totals.get("series.mul.calls", 0),
                                 totals.get("series.power.calls", 0)) <= 0:
        problems.append("scan-k1: no series.mul or series.power calls traced; "
                        "rebound names missed")
    if name in DOMINANT_LAYER:
        shares = {layer: layers.get(f"{layer}.self_s", 0.0)
                  for layer in tracer.LAYERS}
        top = max(shares, key=shares.get)
        if top != DOMINANT_LAYER[name]:
            problems.append(f"{name}: largest self time is {top}, expected "
                            f"{DOMINANT_LAYER[name]} ({shares})")


def _check_bare_directory(problems: list) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "scan-k1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("run.py without sources did not fail cleanly: "
                        f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    problems = []
    run.WORK.mkdir(exist_ok=True)
    _check_metric_names(problems)
    _check_bare_directory(problems)
    for name in run.WORKLOADS:
        _check_workload(name, problems)
    for p in problems:
        print("SELFCHECK FAIL:", p)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
