"""zktheta benchmark: fixed CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is not installed.  Every zktheta
invocation is a fresh child interpreter running ``zktheta.cli.run(argv)``
with ``PYTHONPATH=src`` (see child.py), one at a time (closed loop, one
client, ``--workers 1``).  A *pass* runs the whole workload once; its wall
time is the sum of its invocations' wall times, spawn to reap, so the
harness's own output checks are not in it.  Passes repeat until the next
one would end after S seconds, and every metric is the median over the
run's passes.

``--trace 0`` prints the end-to-end metrics: pass wall time, the children's
user+sys CPU time (from ``os.wait4``) and largest peak RSS, and set-up time
(a fresh interpreter answering ``e4 --terms 1``, median of several).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of tracer.py plus the tracing overhead.

Every output is checked: exact outputs against the sha256 digests in
expected.json, ``code verify`` for ``is_type2 True`` and the asymptotics
values against a closed-form reference (reference.py) to at least 12
digits.  A failed check, non-zero exit or timeout counts as a failed
invocation; it does not stop the run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (``--seed`` only permutes the order of the queries; each query is
its own process, so the order must not matter):
  scan-k1     the beta2 sign-change scan over 102 lengths; extremal's
              raw-list u-power table, step multiply and b-extraction
  certify-k6  the Theorem 1 positivity sweep over 300 lengths at k = 6;
              series.mul on the padded 1/24 grid
  queries     16 single-answer invocations: the only workload running
              asymptotics, codes and the per-n b_coefficients path, and
              paying interpreter and import set-up on every answer
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import mpmath

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0        # whole run, including a hung child's timeout
SETUP_REPEATS = 9
SETUP_ARGV = ["e4", "--terms", "1"]
MIN_DIGITS = 12

SCAN_ARGV = ["--workers", "1", "crossover", "--k", "1",
             "--from", "4800", "--to", "5608"]
CERTIFY_ARGV = ["--workers", "1", "theorem1", "--k", "6", "--nmax", "2400"]
ASYMPTOTICS_ARGV = ["asymptotics", "--digits", "30"]


@dataclass
class Outcome:
    """One child invocation: what it cost and whether its output checked."""
    argv: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    why: str = ""
    stdout: bytes = b""
    trace: dict = field(default_factory=dict)


@dataclass
class Pass:
    outcomes: list

    @property
    def wall_s(self) -> float:
        """Time to all answers: the invocations' walls, without the checks."""
        return sum(o.wall_s for o in self.outcomes)


class Runner:
    """Spawns child invocations within the run's time limit; checks outputs."""

    def __init__(self):
        self.begun = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(BENCH / "expected.json") as fh:
            self.expected = json.load(fh)
        self.reference = reference.saddle()
        self.digits = []  # digits_correct of each asymptotics answer

    def spawn(self, argv: list, traced: bool = False):
        """Run one invocation and return its Outcome (not yet output-checked)."""
        stats_path = WORK / "stats.json"
        stats_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"),
               "--stats-out", str(stats_path)]
        if traced:
            cmd.append("--trace")
        cmd += ["--"] + argv
        timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - self.begun))
        with open(WORK / "stdout", "w+b") as out, \
                open(WORK / "stderr", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            # wait on a pidfd so the child is still unreaped on timeout;
            # wait4 then reaps it and gives its own rusage
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        outcome = Outcome(argv=argv, wall_s=wall,
                          cpu_s=usage.ru_utime + usage.ru_stime,
                          rss_mb=0.0, ok=True, stdout=stdout)
        if not exited:
            outcome.ok, outcome.why = False, f"timeout after {timeout:.0f} s"
        elif proc.returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            outcome.ok, outcome.why = False, f"exit {proc.returncode} {tail}"
        else:
            try:
                with open(stats_path) as fh:
                    stats = json.load(fh)
                outcome.rss_mb = stats["vm_hwm_kib"] / 1024.0
            except (OSError, ValueError, KeyError) as exc:
                outcome.ok, outcome.why = False, f"no child stats: {exc}"
                return outcome
            outcome.trace = stats.get("layers", {})
        return outcome

    # -- output checks -------------------------------------------------------

    def check_digest(self, outcome: Outcome) -> None:
        key = " ".join(outcome.argv)
        got = hashlib.sha256(outcome.stdout).hexdigest()
        if got != self.expected[key]:
            outcome.ok, outcome.why = False, f"stdout sha256 {got[:16]}... differs"

    def check_asymptotics(self, outcome: Outcome) -> None:
        try:
            rows = dict(line.split(None, 1)
                        for line in outcome.stdout.decode().splitlines()[1:])
            digits = min(reference.digits_correct(rows[f].strip(),
                                                  self.reference[f])
                         for f in reference.FIELDS)
        except (KeyError, ValueError) as exc:
            outcome.ok, outcome.why = False, f"unparsable asymptotics: {exc}"
            return
        self.digits.append(digits)
        if digits < MIN_DIGITS:
            outcome.ok = False
            outcome.why = f"{digits} correct digits < {MIN_DIGITS}"

    @staticmethod
    def check_type2(outcome: Outcome) -> None:
        lines = outcome.stdout.decode(errors="replace").split("\n") + [""]
        row = dict(zip(lines[0].split(), lines[1].split()))
        if row.get("is_type2") != "True":
            outcome.ok, outcome.why = False, "code verify: is_type2 not True"

    # -- queries -------------------------------------------------------------

    def exact(self, argv: list, traced: bool) -> list:
        outcome = self.spawn(argv, traced)
        if outcome.ok:
            self.check_digest(outcome)
        return [outcome]

    def asymptotics(self, traced: bool) -> list:
        outcome = self.spawn(ASYMPTOTICS_ARGV, traced)
        if outcome.ok:
            self.check_asymptotics(outcome)
        return [outcome]

    def code_pair(self, k: int, traced: bool) -> list:
        """`code search` (digest-checked), then `code verify` on its output."""
        search = self.exact(["code", "search", "--k", str(k)], traced)[0]
        path = WORK / f"c8-k{k}.zcode"
        path.write_bytes(search.stdout)
        verify = self.spawn(["code", "verify", "--file",
                             str(path.relative_to(ROOT))], traced)
        if verify.ok:
            self.check_type2(verify)
        return [search, verify]


def _workloads(runner: Runner) -> dict:
    """name -> list of queries; a query is a callable(traced) -> outcomes."""
    def exact(argv):
        return lambda traced: runner.exact(argv, traced)

    def code_pair(k):
        return lambda traced: runner.code_pair(k, traced)

    queries = [
        runner.asymptotics,
        exact(["extremal", "--n", "2400", "--k", "1"]),
        exact(["extremal", "--n", "4800", "--k", "3"]),
        exact(["--format", "csv", "ratio", "--k", "1", "--n-list", "2400,4800"]),
    ] + [code_pair(k) for k in range(1, 7)]
    return {
        "scan-k1": [exact(SCAN_ARGV)],
        "certify-k6": [exact(CERTIFY_ARGV)],
        "queries": queries,
    }


WORKLOADS = ("scan-k1", "certify-k6", "queries")


def run_pass(queries: list, rng: random.Random, traced: bool) -> Pass:
    order = list(queries)
    rng.shuffle(order)
    outcomes = []
    for query in order:
        outcomes.extend(query(traced))
    return Pass(outcomes)


def measure_setup(runner: Runner) -> list:
    """Wall times of fresh interpreters answering `e4 --terms 1`.

    The first also writes the bytecode caches; the median absorbs it.
    Exits the benchmark if the program cannot answer at all.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        outcome = runner.spawn(SETUP_ARGV)
        if not outcome.ok or outcome.stdout != b"1\n":
            sys.stderr.write(f"set-up invocation failed: {outcome.why} "
                             f"{outcome.stdout[:80]!r}\n")
            raise SystemExit(1)
        times.append(outcome.wall_s)
    return times


def layer_totals(p: Pass) -> dict:
    """Sum the children's trace summaries of one traced pass."""
    total = {}
    for o in p.outcomes:
        for name, value in o.trace.items():
            if name == "series.mul.max_bits":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    slots = total.get("series.mul.out_slots", 0)
    total["series.mul.density"] = (total.get("series.mul.out_nonzero", 0) / slots
                                   if slots else 0.0)
    return total


# name -> unit of every metric printed; BENCHMARK.json lists the same names
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "extremal.self_s": "s",
    "extremal.rows": "count",
    "extremal.b_coefficients.calls": "count",
    "extremal.b_coefficients.total_s": "s",
    "series.self_s": "s",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.pairs": "count",
    "series.mul.density": "frac",
    "series.mul.max_bits": "bit",
    "series.power.self_s": "s",
    "series.invert.self_s": "s",
    "series.coeffs_built": "count",
    "modforms.self_s": "s",
    "modforms.calls": "count",
    "modforms.delta24.total_s": "s",
    "modforms.h_series.total_s": "s",
    "modforms.theta_f.calls": "count",
    "asymptotics.self_s": "s",
    "asymptotics.find_saddle.total_s": "s",
    "asymptotics.predicted_ratio_limit.total_s": "s",
    "asymptotics.digits_correct": "digit",
    "codes.self_s": "s",
    "codes.search_c8.total_s": "s",
    "codes.verify_type2.total_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Measurement:
    name: str
    seed: int
    setup: list         # set-up wall times
    plain: list         # untraced passes
    traced: list        # traced passes (empty with --trace 0)
    digits: list        # digits_correct of each asymptotics answer

    @property
    def outcomes(self) -> list:
        return [o for p in self.plain + self.traced for o in p.outcomes]


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set up, then run passes (untraced, or untraced/traced pairs)."""
    runner = Runner()
    queries = _workloads(runner)[name]
    rng = random.Random(seed)
    setup = measure_setup(runner)
    start = perf_counter()
    plain, traced = [], []
    while True:
        t0 = perf_counter()
        plain.append(run_pass(queries, rng, traced=False))
        if trace:
            traced.append(run_pass(queries, rng, traced=True))
        # start another only if it should still end within `seconds`
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return Measurement(name, seed, setup, plain, traced, runner.digits)


def end_to_end(m: Measurement) -> dict:
    return {
        "wall_s": statistics.median(p.wall_s for p in m.plain),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p.outcomes)
                                   for p in m.plain),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes)
                                         for p in m.plain),
        "setup_s": statistics.median(m.setup),
    }


def per_layer(m: Measurement) -> dict:
    per_pass = [layer_totals(p) for p in m.traced]
    values = {metric: statistics.median(p.get(metric, 0) for p in per_pass)
              for metric in PER_LAYER}
    values["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in m.traced)
        / statistics.median(p.wall_s for p in m.plain) - 1)
    values["asymptotics.digits_correct"] = min(m.digits) if m.digits else 0
    return values


def report(m: Measurement) -> tuple:
    """(human-readable lines, the result object for the last line)."""
    outcomes = m.outcomes
    failed = [o for o in outcomes if not o.ok]
    walls = [p.wall_s for p in m.plain]
    lines = [f"workload {m.name} seed {m.seed}: {len(m.plain)} untraced + "
             f"{len(m.traced)} traced passes, {len(outcomes)} invocations",
             f"env cpu_count={os.cpu_count()} "
             f"python={platform.python_version()} mpmath={mpmath.__version__}"]
    lines += [f"FAILED {' '.join(o.argv)}: {o.why}" for o in failed]
    lines.append(f"fail_frac {len(failed) / len(outcomes):.4g} ratio")
    if m.digits:
        lines.append(f"digits_correct {min(m.digits)} digit")
    lines.append(f"wall_s min {min(walls):.4f} max {max(walls):.4f} "
                 f"over {len(walls)} untraced passes")
    if m.traced:
        units, values = PER_LAYER, per_layer(m)
    else:
        units, values = END_TO_END, end_to_end(m)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    lines += [f"{name} {mv['value']:.6g} {mv['unit']}"
              for name, mv in metrics.items()]
    return lines, {"correct": not failed, "attempted": len(outcomes),
                   "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "zktheta" / "cli.py").is_file():
        sys.stderr.write(f"no zktheta sources under {ROOT / 'src'}\n")
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        lines, result = report(measure(name, args.seed, args.seconds,
                                       bool(args.trace)))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
