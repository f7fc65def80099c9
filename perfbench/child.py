"""Run one zktheta CLI invocation in this interpreter, optionally traced.

    PYTHONPATH=src python3 perfbench/child.py --stats-out FILE [--trace] -- ARGV...

ARGV goes unchanged to ``zktheta.cli.run``, exactly as the ``zktheta``
console script would receive it; the package need not be installed.  When
the invocation ends, FILE receives a JSON object with this process's peak
resident set size (``VmHWM``) and, with ``--trace``, the layer tracer's
summary (tracer.py), installed before the CLI runs.

The peak RSS is read here, not from the parent's ``wait4`` rusage, because
Linux carries the spawning process's high-water mark across ``exec`` into
the child's ``ru_maxrss``, so that figure would include the benchmark
harness's own memory.
"""

from __future__ import annotations

import json
import sys


def _vm_hwm_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    if "--" not in argv:
        sys.stderr.write("usage: child.py --stats-out FILE [--trace] -- ARGV...\n")
        return 2
    cut = argv.index("--")
    opts, cli_argv = argv[:cut], argv[cut + 1:]
    traced = "--trace" in opts
    if traced:
        opts.remove("--trace")
    if len(opts) != 2 or opts[0] != "--stats-out":
        sys.stderr.write(f"child.py: bad options {argv[:cut]}\n")
        return 2
    stats = {}
    if traced:
        import tracer
        tracer.install()
    from zktheta import cli
    try:
        return cli.run(cli_argv)
    finally:
        if traced:
            stats["layers"] = tracer.summary()
        stats["vm_hwm_kib"] = _vm_hwm_kib()
        with open(opts[1], "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
