"""Assemble, cross-check, and render analysis reports.

JSON output follows the in-repo "parhom/1" schema (fixed key order, sorted
integer arrays for markings); TSV rows carry the fixed column set
documented in the README.  Every report is verified against the module
cross-checks before it is rendered, and rendering fails loudly if any
check does not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .connectivity import (ChainAnalysis, ConsistencyError, ExceptionFlags,
                           ReductionResult, _where, boundary_codim_class, chain_analysis,
                           exception_flags, is_cycle_connected, is_separating, reduction)
from .dynkin import DynkinDiagram, Marking, tree_path
from .geometry import CycleDescriptor, ParabolicPair, cycle_descriptor, dim_flag
from .rootweyl import generate_roots

SCHEMA_VERSION = "parhom/1"

TSV_COLUMNS = ("type", "psi_p", "psi_q", "dim_GP", "cycle_dim", "reduced",
               "connected", "minimal_n", "exception")

_TOWER_NOTE = "per-level dimension formula is derived, not tabulated"
_LINEARITY_NOTE = ("cycle linearity not computed; the tangency exception "
                   "table assumes its linearity hypothesis")


class PsiPContext:
    """What the reports of one psi_p share: the root system, the validated
    psi_p, dim G/P, its boundary class and whether to analyse chains; one
    row per psi_q; per red psi_q, on which alone the chains depend, its
    `ChainAnalysis`; and per witness start (p, q), its path.
    `chain_options` (max_k, weyl_limit, with_sizes) go to `chain_analysis`
    unchanged, which holds their defaults, so a misspelt one raises its
    TypeError at the first chained row."""

    def __init__(self, diagram: DynkinDiagram, psi_p, with_chains: bool = False,
                 **chain_options):
        self.roots = generate_roots(diagram)
        self.psi_p = Marking(psi_p).validate_on(diagram)
        self.dim_gp = dim_flag(self.roots, self.psi_p)
        self.boundary = boundary_codim_class(self.roots, self.psi_p)
        self.with_chains, self.chain_options = with_chains, chain_options
        self.rows: dict[Marking, tuple[ParabolicPair, ReductionResult, CycleDescriptor]] = {}
        self.chains: dict[Marking, ChainAnalysis] = {}
        self.paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def row(self, psi_q: Marking) -> tuple[ParabolicPair, ReductionResult, CycleDescriptor]:
        """(pair, reduction, cycle) of (psi_p, psi_q), psi_q validated; made once.

        >>> from parhom import parse_diagram_spec
        >>> PsiPContext(parse_diagram_spec("A4"), [2]).row(Marking([1, 3, 4]))[1].reduced_marking
        (1, 3)
        """
        entry = self.rows.get(psi_q)
        if entry is None:
            pair = ParabolicPair.of_valid(self.roots, self.psi_p, psi_q)
            entry = self.rows[psi_q] = (pair, reduction(pair), cycle_descriptor(pair))
        return entry

    def chains_of(self, red: Marking) -> ChainAnalysis:
        """The chains of (psi_p, red), shared by every psi_q that reduces to red."""
        chains = self.chains.get(red)
        if chains is None:
            chains = self.chains[red] = chain_analysis(self.row(red)[0], **self.chain_options)
        return chains

    def path(self, p: int, q: int) -> tuple[int, ...]:
        """The witness path from p to q, drawn once per context: `tree_path`
        is a traced function, so it is memoised here, never at module level."""
        path = self.paths.get((p, q))
        if path is None:
            path = self.paths[p, q] = tuple(tree_path(self.roots.diagram, p, q))
        return path


@dataclass
class AnalysisReport:
    pair: ParabolicPair
    dim_gq: int
    dim_gpq: int
    cycle: CycleDescriptor
    red: ReductionResult
    flags: ExceptionFlags
    context: PsiPContext
    chains: ChainAnalysis | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def dual_dim(self) -> int:
        return self.dim_gpq - self.context.dim_gp


def build_report(ctx: PsiPContext, psi_q) -> AnalysisReport:
    """The checked report on (ctx.psi_p, psi_q); rows of one red psi_q share
    the context's `ChainAnalysis`."""
    rs = ctx.roots
    pair, red, cycle = ctx.row(Marking(psi_q).validate_on(rs.diagram))
    chains = ctx.chains_of(red.reduced_marking) if ctx.with_chains else None
    flags = exception_flags(pair)
    warnings = [_LINEARITY_NOTE, *flags.notes]
    if chains is not None and not chains.complete:  # it ran max_k levels
        warnings.append(f"chain analysis truncated at max_k={len(chains.reachable_dims) - 1} "
                        "before stabilization")
    report = AnalysisReport(
        pair=pair,
        dim_gq=dim_flag(rs, pair.psi_q),
        dim_gpq=dim_flag(rs, pair.union_marking),
        cycle=cycle,
        red=red,
        flags=flags,
        context=ctx,
        chains=chains,
        warnings=warnings,
    )
    verify_report(report)
    return report


def verify_report(r: AnalysisReport) -> None:
    """Cross-field consistency checks; raises ConsistencyError on failure.
    The reduced pair is the row of red psi_q in `r.context`; containment and
    separation give it the row's psi_p & psi_q, so what `chain_analysis`
    checks on it (the criterion, the top cell) holds for the row."""
    pair, ctx = r.pair, r.context

    def expect(ok: bool, what: str):
        if not ok:
            raise ConsistencyError(f"{what} failed for {_where(pair)}")

    expect(ctx.dim_gp <= r.dim_gpq and r.dim_gq <= r.dim_gpq, "dim monotonicity")
    expect(r.cycle.dim == r.cycle.dim_recomputed(), "cycle dim internal recomputation")
    expect(r.cycle.is_point == (r.cycle.dim == 0), "point flag")

    red = r.red.reduced_marking
    expect(red.issubset(pair.psi_q), "reduction containment")
    expect(is_separating(pair, red), "reduction separates")
    _, red_again, red_cycle = ctx.row(red)
    expect(red_again.reduced_marking == red, "reduction idempotence")
    expect(red_cycle.dim == r.cycle.dim, "moduli dim consistency")

    c = r.chains
    if c is not None:
        # S_j = [e, x_j], so S_j < S_{j+1} iff x_j < x_{j+1}: lengths, and dims, grow
        rising = c.reachable_dims[1:-1] if c.complete else c.reachable_dims[1:]
        expect(all(a < b for a, b in zip(c.reachable_dims, rising)),
               "lengths strictly increase before stabilization")
    if c is not None and c.complete:
        sizes = c.reachable_sizes  # empty when the scan counted no sizes
        expect(all(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 2)),
               "reachable sizes strictly increase before stabilization")
        expect(sizes[-1] >= sizes[-2] if len(sizes) > 1 else True, "reachable sizes monotone")
        dims = c.reachable_dims
        expect(all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1)),
               "reachable dims non-decreasing")
        # x_j stops at w_0(R), R the quotient: l = |Phi+| - dim G/P_R, from |Phi+| - dim G/P
        expect(dims[-1] == ctx.dim_gp - dim_flag(pair.roots, pair.intersection_marking),
               "quotient marking")


def _factor_echo(d: DynkinDiagram) -> list[dict]:
    return [{"type": str(f), "nodes": list(range(lo, hi + 1))}
            for f, (lo, hi) in zip(d.factors, d.factor_spans)]


def report_to_dict(r: AnalysisReport) -> dict:
    """Plain-dict form of the report, keys in the documented order."""
    pair = r.pair
    connectivity = {"connected": is_cycle_connected(pair), "computed": r.chains is not None}
    for key in ("complete", "minimal_n", "reachable_sizes", "reachable_dims"):
        value = getattr(r.chains, key, None)
        connectivity[key] = list(value) if isinstance(value, tuple) else value
    case = r.flags.larger_automorphism_case
    return {
        "schema": SCHEMA_VERSION,
        "input": {
            "type": pair.diagram.type_string,
            "factors": _factor_echo(pair.diagram),
            "psi_p": list(pair.psi_p),
            "psi_q": list(pair.psi_q),
        },
        "dims": {"flag_p": r.context.dim_gp, "flag_q": r.dim_gq, "flag_pq": r.dim_gpq},
        "cycle": {
            "type": r.cycle.type_string,
            "marking": list(r.cycle.marking),
            "dim": r.cycle.dim,
            "is_point": r.cycle.is_point,
            "is_whole_space": r.cycle.is_whole_space,
        },
        "dual_cycle_dim": r.dual_dim,
        # tower level j adds one cycle fiber and one dual-cycle fiber, so its
        # dimension is j*(k_cycle + l_dual): derived from the iterated pullback
        # construction, not quoted; `verify_report` checks both dimensions
        "tower": {
            "k_cycle": r.cycle.dim,
            "l_dual": r.dual_dim,
            "level_increment": r.cycle.dim + r.dual_dim,
            "note": _TOWER_NOTE,
        },
        "reduction": {
            "reduced": list(r.red.reduced_marking),
            "already_reduced": r.red.is_already_reduced,
            "witnesses": {str(q): list(r.context.path(p, q)) for q, p in r.red.witness_starts},
        },
        "quotient_marking": list(pair.intersection_marking),
        "connectivity": connectivity,
        "boundary_class": r.context.boundary.value,
        "flags": {
            "mok_zhang_exception": r.flags.mok_zhang_exception,
            "larger_automorphism_case": case.value if case is not None else None,
        },
        "warnings": list(r.warnings),
    }


# made once: `json.dumps` with any option builds a new encoder per call
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_INDENTED = json.JSONEncoder(indent=2)


def render_json(r: AnalysisReport, compact: bool = False) -> str:
    return (_COMPACT if compact else _INDENTED).encode(report_to_dict(r))


def tsv_header() -> str:
    return "\t".join(TSV_COLUMNS)


def render_tsv_row(r: AnalysisReport) -> str:
    minimal_n = getattr(r.chains, "minimal_n", None)
    return "\t".join((
        r.pair.diagram.type_string,
        r.pair.psi_p.render(),
        r.pair.psi_q.render(),
        str(r.context.dim_gp),
        str(r.cycle.dim),
        r.red.reduced_marking.render(),
        "true" if is_cycle_connected(r.pair) else "false",
        str(minimal_n) if minimal_n is not None else "-",
        "true" if r.flags.mok_zhang_exception else "false",
    ))


def render_text(r: AnalysisReport) -> str:
    pair = r.pair
    d = pair.diagram
    lines = [
        f"type {d.type_string}  ("
        + ", ".join(f"{f} nodes {lo}..{hi}" for f, (lo, hi) in zip(d.factors, d.factor_spans))
        + ")",
        f"psi_p = {pair.psi_p.render()}   psi_q = {pair.psi_q.render()}",
        f"dim G/P = {r.context.dim_gp}   dim G/Q = {r.dim_gq}   dim G/(P&Q) = {r.dim_gpq}",
        f"cycle: type {r.cycle.type_string or '(point)'}"
        f"  marking {r.cycle.marking.render()}  dim {r.cycle.dim}"
        + ("  [point]" if r.cycle.is_point else "")
        + ("  [whole space]" if r.cycle.is_whole_space else ""),
        f"dual cycle dim = {r.dual_dim}   "
        f"tower level increment = {r.cycle.dim + r.dual_dim} (derived)",
        f"reduction of Q mod P: {r.red.reduced_marking.render()}"
        f"  (already reduced: {'yes' if r.red.is_already_reduced else 'no'})",
        f"quotient marking (P&Q): {pair.intersection_marking.render()}"
        f"   connected: {'yes' if is_cycle_connected(pair) else 'no'}",
    ]
    if r.chains is not None:
        c = r.chains
        n = str(c.minimal_n) if c.minimal_n is not None else "-"
        lines.append(
            f"chains: minimal N = {n}  sizes {list(c.reachable_sizes)}  "
            f"cell dims {list(c.reachable_dims)}" + ("" if c.complete else "  [truncated]"))
    lines.append(f"boundary class of psi_p: {r.context.boundary.value}")
    case = r.flags.larger_automorphism_case
    lines.append(
        f"exception flags: tangency-table {'yes' if r.flags.mok_zhang_exception else 'no'}"
        f", larger-automorphism {case.value if case else 'none'}")
    for w in r.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)
