"""Batch front end: subcommands with JSON/CSV/text output.

The layers return plain records (namedtuples); this module alone shapes
them into JSON, keyed by their field names.  Big integers are always
emitted as decimal strings (JSON numbers would be silently truncated by
many readers); identical invocations produce byte-identical output
regardless of worker count.  Each handler imports the layers it runs, so an
answer pays only for its own imports.
"""

from __future__ import annotations

import argparse
import io
import sys

from .errors import ZkThetaError


def _emit_json(obj) -> str:
    import json
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _jsonable(record, exact=()) -> dict:
    """record's fields by name, those named in exact (an exact integer or a
    list of them) as decimal strings."""
    out = record._asdict()
    for name in exact:
        v = out[name]
        out[name] = [str(x) for x in v] if isinstance(v, list) else str(v)
    return out


def _emit_csv(header, rows) -> str:
    import csv
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _emit_text(header, rows) -> str:
    cols = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    lines = [
        "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
        for row in cols
    ]
    return "\n".join(lines) + "\n"


def _tabular(args, header, rows):
    if args.format == "csv":
        return _emit_csv(header, rows)
    return _emit_text(header, rows)


def _positive_int(text: str) -> int:
    """argparse type for a count that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _digits(text: str) -> int:
    """argparse type for a working precision, which must be >= 15 digits."""
    value = int(text)
    if value < 15:
        raise argparse.ArgumentTypeError(f"must be >= 15, got {value}")
    return value


def _int_list(text: str) -> list:
    """argparse type for comma-separated integers."""
    return [int(x) for x in text.split(",")]


# -- subcommand handlers ----------------------------------------------------

def _cmd_e4(args) -> str:
    from . import modforms
    series = modforms.eisenstein_e4(args.terms)
    coeffs = [series.coeff_index(e) for e in range(args.terms)]
    if args.format == "json":
        return _emit_json({"terms": args.terms,
                           "coefficients": [str(c) for c in coeffs]})
    if args.format == "csv":
        return _emit_csv(["m", "coefficient"],
                         [(m, c) for m, c in enumerate(coeffs)])
    return " ".join(str(c) for c in coeffs) + "\n"


def _cmd_extremal(args) -> str:
    from . import extremal
    # only json prints the b-list; the table needs the two tail b's
    if args.format == "json":
        return _emit_json(_jsonable(extremal.profile(args.n, args.k),
                                    ("b", "beta1", "beta2")))
    j, mu, nu = extremal.shape(args.n)
    beta1, beta2 = extremal.beta_stars(args.n, args.k)
    header = ["n", "k", "j", "mu", "nu", "beta1", "beta2"]
    rows = [(args.n, args.k, j, mu, nu, str(beta1), str(beta2))]
    return _tabular(args, header, rows)


def _cmd_crossover(args) -> str:
    # json prints every exact beta; the tables print only their signs,
    # certified by fixed-point intervals or computed exactly
    if args.format == "json":
        from . import extremal
        scan = extremal.crossover_scan(args.k, getattr(args, "from"), args.to,
                                       workers=args.workers)
        return _emit_json(dict(scan._asdict(), rows=[
            _jsonable(r, ("beta1", "beta2")) for r in scan.rows]))
    from . import signs
    rows, first = signs.crossover_signs(args.k, getattr(args, "from"),
                                        args.to, workers=args.workers)
    rows.append(("first_negative", "", first))
    return _tabular(args, ["n", "beta1_sign", "beta2_sign"], rows)


def _cmd_theorem1(args) -> str:
    from . import extremal
    rows = extremal.theorem1_sweep(args.k, args.nmax, workers=args.workers)
    ok = all(r.beta1_positive and r.positivity for r in rows)
    if args.format == "json":
        return _emit_json({"k": args.k, "nmax": args.nmax, "all_pass": ok,
                           "rows": [r._asdict() for r in rows]})
    return _tabular(args, extremal.Theorem1Row._fields,
                    rows + [("all_pass", ok, "")])


def _cmd_asymptotics(args) -> str:
    import mpmath as mp
    from . import asymptotics
    sd = asymptotics.find_saddle(args.digits)
    payload = {name: v if isinstance(v, int) else mp.nstr(v, sd.digits)
               for name, v in sd._asdict().items()}
    payload["predicted_ratio_limit"] = mp.nstr(
        asymptotics.predicted_ratio_limit(sd), sd.digits)
    if args.format == "json":
        return _emit_json(payload)
    return _tabular(args, ["field", "value"], sorted(payload.items()))


def _cmd_ratio(args) -> str:
    import mpmath as mp
    from . import asymptotics
    rows = [r._replace(ratio=mp.nstr(r.ratio, 20),
                       margin=mp.nstr(r.margin, 20))
            for r in asymptotics.ratio_report(args.k, args.n_list)]
    if args.format == "json":
        return _emit_json({"k": args.k, "rows": [r._asdict() for r in rows]})
    return _tabular(args, asymptotics.RatioRow._fields, rows)


def _type2_columns(rep):
    """(header, row) of a Type2Report: its fields and its verdict."""
    return (*rep._fields, "is_type2"), (*rep, rep.is_type2)


def _cmd_code_verify(args) -> str:
    from . import codes
    with open(args.file, errors="replace") as fh:
        code = codes.LinearCode.loads(fh.read())
    header, row = _type2_columns(codes.verify_type2(code))
    if args.format == "json":
        return _emit_json(dict(zip(header, row)))
    return _tabular(args, header, [row])


def _cmd_code_search(args) -> str:
    from . import codes
    code = codes.search_c8(args.k)
    if args.format == "json":
        report = dict(zip(*_type2_columns(codes.verify_type2(code))))
        return _emit_json(dict(code._asdict(), report=report))
    return code.dumps()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zktheta")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="text")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for sweeps, at most the CPU "
                   "count at once (results identical)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("e4", help="E4 q-expansion coefficients")
    sp.add_argument("--terms", type=_positive_int, required=True)
    sp.set_defaults(func=_cmd_e4)

    sp = sub.add_parser("extremal", help="extremal profile for one (n, k)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_extremal)

    sp = sub.add_parser("crossover", help="beta2 sign scan over a range of n")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--from", type=int, required=True)
    sp.add_argument("--to", type=int, required=True)
    sp.set_defaults(func=_cmd_crossover)

    sp = sub.add_parser("theorem1",
                        help="beta1 > 0 and positivity certificate sweep")
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_theorem1)

    sp = sub.add_parser("asymptotics", help="saddle data and ratio limit")
    sp.add_argument("--digits", type=_digits, default=30)
    sp.set_defaults(func=_cmd_asymptotics)

    sp = sub.add_parser("ratio", help="exact tail-coefficient ratio table")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n-list", type=_int_list, required=True,
                    help="comma-separated lengths")
    sp.set_defaults(func=_cmd_ratio)

    code_p = sub.add_parser("code", help="Z_2k code operations")
    code_sub = code_p.add_subparsers(dest="code_command", required=True)
    sp = code_sub.add_parser("verify", help="verify a code file")
    sp.add_argument("--file", required=True)
    sp.set_defaults(func=_cmd_code_verify)
    sp = code_sub.add_parser("search", help="find a length-8 Type II code")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_code_search)

    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        sys.stdout.write(args.func(args))
    except ZkThetaError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
