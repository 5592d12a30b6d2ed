"""Command-line surface: counting, listing, bijection traces, series expansion,
and the verification sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an unexpected exception, reported in one stderr line), 130 interrupted
(Ctrl-C, reported in one stderr line), 141 stdout closed by its reader (as in
``| head -1``; nothing is printed).  The verify
subcommand writes one JSON line per report to stdout followed by an aggregate
summary object; diagnostics go to stderr.  CSV columns for tabular commands
are documented in each subcommand's --help.
"""

import argparse
import json
import os
import re
import sys
from math import isqrt

from . import verify
from .bijections import bijection_trace, pi_to_lambda
from .partitions import (
    FrobeniusSymbol,
    build_census,
    count_by_blocks,
    count_by_columns,
    count_exact,
    iter_symbols_in_class,
    parity_blocks,
)
from .posets import PosetPartition, build_s_beta
from .qseries import (
    PLUS,
    SIGNS,
    euler_inverse,
    qbinomial,
    series_by_blocks,
    series_by_columns,
    series_exact,
)


DEFAULT_PRECISION = 40

# count mode -> (count function, the flags it takes between --n and --sign)
COUNT_MODES = {
    "exact": (count_exact, ("d", "m")),
    "by-blocks": (count_by_blocks, ("m",)),
    "by-columns": (count_by_columns, ("d",)),
}

# series target -> (series function, the flags it takes before --precision,
# the precision without --precision: None keeps a polynomial's own degree)
SERIES_TARGETS = {
    "thm-main": (series_exact, ("d", "m", "sign"), DEFAULT_PRECISION),
    "thm-1.2": (series_by_blocks, ("m", "sign"), DEFAULT_PRECISION),
    "thm-1.4": (series_by_columns, ("d", "sign"), DEFAULT_PRECISION),
    "euler-inverse": (euler_inverse, (), DEFAULT_PRECISION),
    "qbinomial": (qbinomial, ("n", "k"), None),
}

# verify flags, passed through as one settings dict: each moves a bound or
# fixes a grid axis of every selected target
VERIFY_FLAGS = ("precision", "max_d", "max_m", "max_s", "d", "m", "s", "t", "r", "sign")


def _render_symbol(f: FrobeniusSymbol) -> str:
    """Two rows with a vertical bar between parity blocks, e.g. (3 | 2 1 / 5 | 1 0)."""
    sizes = parity_blocks(f).sizes
    cuts = set()
    acc = 0
    for size in sizes[:-1]:
        acc += size
        cuts.add(acc)

    def row(entries):
        out = []
        for i, x in enumerate(entries, start=1):
            out.append(str(x))
            if i in cuts:
                out.append("|")
        return " ".join(out)

    return f"({row(f.top)} / {row(f.bottom)})"


def _parse_symbol(text: str) -> FrobeniusSymbol:
    text = text.strip()
    if text.startswith("{"):
        # A `list --format json` entry also carries its blocks; they must be
        # the symbol's own, and no other key is read.
        data = json.loads(text)
        unknown = sorted(set(data) - {"top", "bottom", "blocks"})
        if unknown:
            raise ValueError(f"symbol JSON takes only 'top', 'bottom' and 'blocks', got {unknown}")
        f = FrobeniusSymbol.from_json_dict(data)
        if "blocks" in data:
            # Compared as JSON text, so that 1.0 or true is no block size.
            given, own = (json.dumps(b, sort_keys=True)
                          for b in (data["blocks"], parity_blocks(f).to_json_dict()))
            if given != own:
                raise ValueError(f"symbol JSON blocks {given} are not the symbol's blocks {own}")
        return f
    rows = [row.replace("|", " ").split() for row in text.strip("() \t").split("/")]
    if len(rows) != 2:
        raise ValueError("inline symbol must look like '3 2 1 / 5 1 0'")
    for tok in rows[0] + rows[1]:
        if not re.fullmatch("-?[0-9]+", tok):
            raise ValueError(f"inline symbol entries must be integers, got {tok!r}")
    return FrobeniusSymbol(*(tuple(map(int, row)) for row in rows))


def _check_flags(parser, args, what, used, optional):
    """Exit 2 when a flag in ``used`` is missing, or one of the other
    ``optional`` flags is given: no flag is silently ignored."""
    missing = [f"--{flag}" for flag in used if getattr(args, flag) is None]
    if missing:
        parser.error(f"{what} needs {' and '.join(missing)}")
    unused = [f"--{flag}" for flag in optional
              if flag not in used and getattr(args, flag) is not None]
    if unused:
        parser.error(f"{what} does not use {' '.join(unused)}")


def _emit(args, payload, text_lines, csv_rows):
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join("" if x is None else str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_count(args, parser):
    mode = args.mode
    count, flags = COUNT_MODES[mode]
    _check_flags(parser, args, f"mode {mode!r}", flags, ("d", "m"))
    # A census of every column count a size-n symbol can have; the count
    # builds only the tables it reads.
    census = build_census(dict.fromkeys(range(1, isqrt(max(args.n, 0)) + 1), args.n))
    value = count(census, args.n, *(getattr(args, f) for f in flags), args.sign)
    payload = {"mode": mode, "n": args.n, "d": args.d, "m": args.m,
               "sign": args.sign, "count": value}
    _emit(args, payload, [str(value)],
          [("mode", "n", "d", "m", "sign", "count"),
           (mode, args.n, args.d, args.m, args.sign, value)])
    return 0


def _cmd_list(args, parser):
    symbols = list(iter_symbols_in_class(args.n, args.d, args.m, args.sign))
    payload = [dict(f.to_json_dict(), blocks=pb.to_json_dict()) for f, pb in symbols]
    quoted = lambda row: '"' + " ".join(map(str, row)) + '"'
    _emit(args, payload, [_render_symbol(f) for f, _ in symbols],
          [("top", "bottom", "sizes", "signs")]
          + [(quoted(f.top), quoted(f.bottom), quoted(pb.sizes), pb.sign_word)
             for f, pb in symbols])
    return 0


def _cmd_biject(args, parser):
    symbol = _parse_symbol(args.symbol)
    trace = bijection_trace(symbol)
    if args.invert:
        pi_stage = trace[-1]
        sign = trace[0]["sign"]
        structure = build_s_beta(pi_stage["beta"])
        pi = PosetPartition.from_rows(structure, pi_stage["rows"])
        recovered = pi_to_lambda(pi, sign)
        trace.append({"stage": "lambda_roundtrip",
                      "top": list(recovered.top), "bottom": list(recovered.bottom),
                      "weight": recovered.size,
                      "matches_input": recovered == symbol})
        if not trace[-1]["matches_input"]:
            print("round trip failed to reproduce the input symbol", file=sys.stderr)
            print(json.dumps(trace, indent=None))
            return 1
    if args.format == "json":
        print(json.dumps(trace))
    else:
        for stage in trace:
            print(json.dumps(stage))
    return 0


def _cmd_series(args, parser):
    series_of, flags, precision = SERIES_TARGETS[args.target]
    if "sign" in flags and args.sign is None:
        args.sign = PLUS
    _check_flags(parser, args, f"target {args.target!r}", flags, ("d", "m", "n", "k", "sign"))
    if args.precision is not None:
        precision = args.precision
    series = series_of(*(getattr(args, flag) for flag in flags), precision)
    payload = series.to_json_dict()
    _emit(args, payload, [",".join(str(c) for c in series.coeffs)],
          [("exponent", "coefficient")] + [(k, c) for k, c in enumerate(series.coeffs)])
    return 0


def _cmd_verify(args, parser):
    wanted = [t for chunk in args.targets for t in chunk.split(",") if t]
    if not wanted:
        parser.error("--targets names no target")
    settings = {k: getattr(args, k) for k in VERIFY_FLAGS if getattr(args, k) is not None}
    total = failures = 0
    # Each report goes out as its check finishes, so an interrupted or piped
    # run keeps the reports it finished.
    for report in verify.iter_reports(wanted, settings):
        print(json.dumps(report.to_json_dict()), flush=True)
        total += 1
        failures += not report.passed
    summary = {"summary": {"total": total, "passed": total - failures, "failed": failures}}
    print(json.dumps(summary))
    print(f"verify: {total - failures}/{total} checks passed", file=sys.stderr)
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Report a usage error in one stderr line, without the usage banner."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankblocks",
        description="Exact enumeration of partitions by successive-rank parity "
                    "blocks, with closed-form verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json", "csv")):
        p.add_argument("--format", choices=choices, default="text", help="output format")

    p_count = sub.add_parser("count", help="count partitions by columns/blocks/sign")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--d", type=int)
    p_count.add_argument("--m", type=int)
    p_count.add_argument("--sign", choices=SIGNS, required=True)
    p_count.add_argument("--mode", choices=COUNT_MODES, default="exact")
    add_format(p_count)

    p_list = sub.add_parser(
        "list", help="list the Frobenius symbols behind an exact count "
                     "(CSV columns: top,bottom,sizes,signs)")
    p_list.add_argument("--n", type=int, required=True)
    p_list.add_argument("--d", type=int, required=True)
    p_list.add_argument("--m", type=int, required=True)
    p_list.add_argument("--sign", choices=SIGNS, required=True)
    add_format(p_list)

    p_biject = sub.add_parser("biject", help="trace a symbol through the "
                                             "weight-controlled chain; the "
                                             "composition and the sign are read "
                                             "off its parity blocks")
    p_biject.add_argument("--symbol", required=True,
                          help="JSON {\"top\": [...], \"bottom\": [...]}, which may "
                               "carry the \"blocks\" of a `list --format json` entry, "
                               "or inline '3 2 1 / 5 1 0'")
    p_biject.add_argument("--invert", action="store_true",
                          help="also run the inverse chain and check the round trip")
    add_format(p_biject, ("text", "json"))

    p_series = sub.add_parser("series", help="print coefficients of a closed form "
                                             "(CSV columns: exponent,coefficient)")
    p_series.add_argument("--target", required=True,
                          choices=SERIES_TARGETS)
    p_series.add_argument("--d", type=int)
    p_series.add_argument("--m", type=int)
    p_series.add_argument("--n", type=int)
    p_series.add_argument("--k", type=int)
    p_series.add_argument("--sign", choices=SIGNS,
                          help="defaults to plus for the targets that take a sign")
    p_series.add_argument("--precision", type=int)
    add_format(p_series)

    p_verify = sub.add_parser("verify", help="run verification targets "
                                             "(JSON lines + summary on stdout)")
    p_verify.add_argument("--targets", nargs="+", default=["all"],
                          help="target names or 'all': " + ", ".join(verify.TARGETS))
    for flag in VERIFY_FLAGS:
        kind = {"choices": SIGNS} if flag == "sign" else {"type": int}
        p_verify.add_argument("--" + flag.replace("_", "-"), dest=flag, **kind)
    return parser


_HANDLERS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "biject": _cmd_biject,
    "series": _cmd_series,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the final flush
        # at exit writes nothing, and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("rankblocks: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # A fault of the program, not of its input: keep exit 1 for a failed
        # verification and 2 for a usage error.
        print(f"rankblocks: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
