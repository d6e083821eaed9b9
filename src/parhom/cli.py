"""Command-line front end.

Two subcommands: `analyze` reports on one (type, psi_p, psi_q) triple,
`enumerate` sweeps every marking pair of a type, printing each row as it
is built.  The guard limit is read here only: `--weyl-limit`, else
PARHOM_WEYL_LIMIT through the same parser, else the default; the library
takes it as an int.  The parser is built on the first `main` call and
reused by later calls in the same process; the environment is read on
every call.  Exit codes: 0 success, 2 bad input (diagram, marking,
flag or PARHOM_WEYL_LIMIT), 3 guard-limit breach, total rank over MAX_RANK
or out of memory, 4 internal failure (a consistency check or any exception
not named here), 5 stdout could not be written: quietly when the reader
closed it (`parhom enumerate ... | head`), else with one `error:` line.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache
from itertools import chain, combinations

from .connectivity import DEFAULT_MAX_K, ConsistencyError
from .dynkin import (DiagramError, DynkinDiagram, Marking, RankLimitError,
                     parse_diagram_spec)
from .report import (PsiPContext, build_report, render_json, render_text,
                     render_tsv_row, tsv_header)
from .rootweyl import DEFAULT_WEYL_LIMIT, GuardLimitError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT = 5

LIMIT_ENV = "PARHOM_WEYL_LIMIT"
MAX_K_HELP = f"chain scan cutoff (default {DEFAULT_MAX_K})"
WEYL_LIMIT_HELP = (f"guard limit on orbit sizes and sweep pair counts; overrides {LIMIT_ENV} "
                   "(default: that variable if set and non-empty, else 10^6)")


def _positive_int(text: str) -> int:
    digits = re.fullmatch(r"\s*([+-]?)0*(\d+)\s*", text)
    try:
        value = int(digits.group(1) + digits.group(2)) if digits else int(text)
    except ValueError:  # int() refuses over 4300 digits; count them, do not echo
        if digits is None:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        what = "must be at least 1, got a negative" if digits.group(1) == "-" else "too large: an"
        raise argparse.ArgumentTypeError(
            f"{what} integer of {len(digits.group(2))} digits") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call:
    each call gets a fresh namespace, and nothing it resolves goes back
    onto the parser."""
    parser = argparse.ArgumentParser(
        prog="parhom",
        description="Marked Dynkin diagram calculator: cycle dimensions, "
                    "reductions, connectivity, minimal chain lengths.")
    sub = parser.add_subparsers(dest="command", required=True)

    ana = sub.add_parser("analyze", help="full report for one marking pair")
    ana.add_argument("--type", required=True, help="diagram string, e.g. A3 or B2xG2")
    ana.add_argument("--p", required=True, help="psi_p nodes, e.g. '2' or '1,3' ('-' for empty)")
    ana.add_argument("--q", required=True, help="psi_q nodes ('-' for empty)")
    ana.add_argument("--chain-length", action="store_true",
                     help="run the Weyl reachability scan for the minimal chain length")
    ana.add_argument("--max-k", type=_positive_int, default=DEFAULT_MAX_K, help=MAX_K_HELP)
    ana.add_argument("--json", action="store_true", help="emit the parhom/1 JSON report")
    ana.add_argument("--weyl-limit", type=_positive_int, default=None, help=WEYL_LIMIT_HELP)

    enu = sub.add_parser("enumerate", help="sweep all marking pairs of a type")
    enu.add_argument("--type", required=True, help="diagram string")
    enu.add_argument("--nontrivial-only", action="store_true",
                     help="keep only pairs with nontrivial cycles (Q not inside P, Q != G)")
    enu.add_argument("--with-chains", action="store_true",
                     help="run the chain-length scan on every row")
    enu.add_argument("--format", choices=("json", "tsv"), default="tsv",
                     help="one parhom/1 JSON report per line, or TSV rows under a header "
                          "(default tsv)")
    enu.add_argument("--max-k", type=_positive_int, default=DEFAULT_MAX_K, help=MAX_K_HELP)
    enu.add_argument("--weyl-limit", type=_positive_int, default=None, help=WEYL_LIMIT_HELP)
    return parser


def cmd_analyze(args) -> int:
    d = parse_diagram_spec(args.type)
    p, q = Marking.parse(args.p), Marking.parse(args.q)
    context = PsiPContext(d, p, with_chains=args.chain_length, max_k=args.max_k,
                          weyl_limit=args.weyl_limit)
    report = build_report(context, q)
    print(render_json(report) if args.json else render_text(report))
    return EXIT_OK


def _all_markings(d: DynkinDiagram) -> list[Marking]:
    nodes = range(1, d.n + 1)
    return sorted(map(Marking, chain.from_iterable(combinations(nodes, k)
                                                   for k in range(d.n + 1))))


def cmd_enumerate(args) -> int:
    d = parse_diagram_spec(args.type)
    pairs = (2 ** d.n - 1) * 2 ** d.n
    if pairs > args.weyl_limit:
        raise GuardLimitError(pairs, args.weyl_limit, "sweep pair count")
    subsets = _all_markings(d)
    if args.format == "tsv":
        print(tsv_header())
    for p in subsets:
        if not p:
            continue
        context = PsiPContext(d, p, with_chains=args.with_chains, max_k=args.max_k,
                              weyl_limit=args.weyl_limit, with_sizes=args.format == "json")
        for q in subsets:
            if args.nontrivial_only and (set(p) <= set(q) or not q):
                continue
            report = build_report(context, q)
            print(render_json(report, compact=True) if args.format == "json"
                  else render_tsv_row(report))
    return EXIT_OK


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that the flush at
    interpreter exit drops what a failed write left in the buffer and
    prints no second error (the recipe in the Python docs, `signal`
    module, "Note on SIGPIPE")."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.weyl_limit is None:
        env = os.environ.get(LIMIT_ENV)
        try:
            args.weyl_limit = _positive_int(env) if env else DEFAULT_WEYL_LIMIT
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{LIMIT_ENV}: {exc}")
    if sys.stdout is None:  # started with fd 1 closed: print would drop every line
        print("error: cannot write stdout: it is closed", file=sys.stderr)
        return EXIT_OUTPUT
    try:
        try:
            if args.command == "analyze":
                return cmd_analyze(args)
            return cmd_enumerate(args)
        finally:  # a failed write surfaces here, not at interpreter exit
            sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout
        _discard_stdout()
        return EXIT_OUTPUT
    except OSError as exc:
        _discard_stdout()
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardLimitError as exc:
        print(f"error: {exc}; raise --weyl-limit or {LIMIT_ENV}", file=sys.stderr)
        return EXIT_GUARD
    except RankLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("error: out of memory; lower --weyl-limit or pick a smaller input",
              file=sys.stderr)
        return EXIT_GUARD
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: one line, not a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
