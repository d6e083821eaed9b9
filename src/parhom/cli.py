"""Command-line front end.

Two subcommands: `analyze` reports on one (type, psi_p, psi_q) triple,
`enumerate` sweeps every marking pair of a type, printing each row as it
is built.  Exit codes: 0 success, 2 bad input (diagram, marking, flag or
PARHOM_WEYL_LIMIT), 3 guard-limit breach, total rank over MAX_RANK or out
of memory, 4 internal failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain, combinations

from .connectivity import ConsistencyError
from .dynkin import (DiagramError, DynkinDiagram, Marking, RankLimitError,
                     parse_diagram_spec)
from .report import (build_report, render_json, render_text, render_tsv_row,
                     tsv_header)
from .rootweyl import GuardLimitError, resolve_weyl_limit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    ana.add_argument("--max-k", type=_positive_int, default=32,
                     help="chain scan cutoff (default 32)")
    ana.add_argument("--json", action="store_true", help="emit the parhom/1 JSON report")
    ana.add_argument("--weyl-limit", type=_positive_int, default=None,
                     help="override the guard on Weyl and orbit sizes (default 10^6)")

    enu = sub.add_parser("enumerate", help="sweep all marking pairs of a type")
    enu.add_argument("--type", required=True, help="diagram string")
    enu.add_argument("--nontrivial-only", action="store_true",
                     help="keep only pairs with nontrivial cycles (Q not inside P, Q != G)")
    enu.add_argument("--with-chains", action="store_true",
                     help="run the chain-length scan on every row")
    enu.add_argument("--format", choices=("json", "tsv"), default="tsv")
    enu.add_argument("--max-k", type=_positive_int, default=32)
    enu.add_argument("--weyl-limit", type=_positive_int, default=None)
    return parser


def cmd_analyze(args, out=None) -> int:
    out = out or sys.stdout
    d = parse_diagram_spec(args.type)
    psi_p = Marking.parse(args.p).validate_on(d)
    psi_q = Marking.parse(args.q).validate_on(d)
    report = build_report(d, psi_p, psi_q, with_chains=args.chain_length,
                          max_k=args.max_k, weyl_limit=args.weyl_limit)
    print(render_json(report) if args.json else render_text(report), file=out)
    return EXIT_OK


def _all_markings(d: DynkinDiagram) -> list[tuple[int, ...]]:
    nodes = range(1, d.n + 1)
    return sorted(chain.from_iterable(combinations(nodes, k) for k in range(d.n + 1)))


def cmd_enumerate(args, out=None) -> int:
    out = out or sys.stdout
    d = parse_diagram_spec(args.type)
    limit = resolve_weyl_limit(args.weyl_limit)
    pairs = (2 ** d.n - 1) * 2 ** d.n
    if pairs > limit:
        raise GuardLimitError(pairs, limit, "sweep pair count")
    subsets = _all_markings(d)
    if args.format == "tsv":
        print(tsv_header(), file=out)
    for p in subsets:
        if not p:
            continue
        for q in subsets:
            if args.nontrivial_only and (set(p) <= set(q) or not q):
                continue
            report = build_report(d, p, q, with_chains=args.with_chains,
                                  max_k=args.max_k, weyl_limit=limit)
            print(render_json(report, compact=True) if args.format == "json"
                  else render_tsv_row(report), file=out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.weyl_limit = resolve_weyl_limit(args.weyl_limit)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_enumerate(args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GuardLimitError, RankLimitError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
