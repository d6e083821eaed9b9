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

from .connectivity import (BoundaryClass, ChainAnalysis, ConsistencyError,
                           ExceptionFlags, ReductionResult, boundary_codim_class,
                           chain_analysis, exception_flags, is_cycle_connected,
                           is_separating, reduction)
from .dynkin import DynkinDiagram, Marking, tree_path
from .geometry import CycleDescriptor, ParabolicPair, cycle_descriptor, dim_flag, dim_flag_on
from .rootweyl import generate_roots

SCHEMA_VERSION = "parhom/1"

TSV_COLUMNS = ("type", "psi_p", "psi_q", "dim_GP", "cycle_dim", "reduced",
               "connected", "minimal_n", "exception")

_TOWER_NOTE = "per-level dimension formula is derived, not tabulated"
_LINEARITY_NOTE = ("cycle linearity not computed; the tangency exception "
                   "table assumes its linearity hypothesis")


class PsiPContext:
    """What the reports of one psi_p share: the root system, the validated
    psi_p, dim G/P and its boundary class, and per red psi_q the reduced
    pair (psi_p, red psi_q) with its reduction and cycle dimension, which
    `verify_report` checks and which depend on that key alone."""

    def __init__(self, diagram: DynkinDiagram, psi_p):
        self.roots = generate_roots(diagram)
        self.psi_p = Marking(psi_p).validate_on(diagram)
        self.dim_gp = dim_flag(diagram, self.psi_p)
        self.boundary = boundary_codim_class(diagram, self.psi_p)
        self.reduced: dict[Marking, tuple[ParabolicPair, Marking, int]] = {}

    def reduced_pair(self, red: Marking) -> tuple[ParabolicPair, Marking, int]:
        entry = self.reduced.get(red)
        if entry is None:
            pair = ParabolicPair.of_valid(self.roots, self.psi_p, red)
            entry = self.reduced[red] = (
                pair, reduction(pair).reduced_marking, cycle_descriptor(pair).dim)
        return entry


@dataclass
class AnalysisReport:
    pair: ParabolicPair
    dim_gp: int
    dim_gq: int
    dim_gpq: int
    cycle: CycleDescriptor
    dual_dim: int
    red: ReductionResult
    quotient: Marking
    criterion_connected: bool
    boundary: BoundaryClass
    flags: ExceptionFlags
    context: PsiPContext
    chains: ChainAnalysis | None = None
    warnings: list[str] = field(default_factory=list)


def build_report(diagram: DynkinDiagram, psi_p, psi_q, with_chains: bool = False,
                 max_k: int = 32, weyl_limit=None, with_sizes: bool = True,
                 context: PsiPContext | None = None) -> AnalysisReport:
    """The checked report on (psi_p, psi_q); `context` is the PsiPContext
    of (diagram, psi_p), made here when not given."""
    ctx = context or PsiPContext(diagram, psi_p)
    if (ctx.roots.diagram, ctx.psi_p) != (diagram, Marking(psi_p)):
        raise ValueError("the context was made for another diagram or psi_p")
    rs = ctx.roots
    pair = ParabolicPair.of_valid(rs, ctx.psi_p, Marking(psi_q).validate_on(rs.diagram))
    red = reduction(pair)
    cycle = cycle_descriptor(pair)
    if red.is_already_reduced:  # the pair is its own reduced pair
        ctx.reduced.setdefault(pair.psi_q, (pair, red.reduced_marking, cycle.dim))
    # the Q-cycle, and so the scan, depends only on red psi_q, which keeps
    # psi_p & psi_q; a sweep then scans each (psi_p, red psi_q) once
    chains = (chain_analysis(ctx.reduced_pair(red.reduced_marking)[0], max_k=max_k,
                             weyl_limit=weyl_limit, with_sizes=with_sizes)
              if with_chains else None)
    flags = exception_flags(pair)
    warnings = [_LINEARITY_NOTE, *flags.notes]
    if chains is not None and not chains.complete:
        warnings.append(f"chain analysis truncated at max_k={max_k} before stabilization")
    dim_gpq = dim_flag_on(rs, pair.union_marking)
    report = AnalysisReport(
        pair=pair,
        dim_gp=ctx.dim_gp,
        dim_gq=dim_flag_on(rs, pair.psi_q),
        dim_gpq=dim_gpq,
        cycle=cycle,
        dual_dim=dim_gpq - ctx.dim_gp,
        red=red,
        quotient=pair.intersection_marking,
        criterion_connected=is_cycle_connected(pair),
        boundary=ctx.boundary,
        flags=flags,
        context=ctx,
        chains=chains,
        warnings=warnings,
    )
    verify_report(report)
    return report


def verify_report(r: AnalysisReport) -> None:
    """Cross-field consistency checks; raises ConsistencyError on failure.
    The two checks on the reduced pair read it off `r.context`."""
    pair = r.pair
    d = pair.diagram

    def expect(ok: bool, what: str):
        if not ok:
            raise ConsistencyError(
                f"{what} failed for {d.type_string} "
                f"psi_p={pair.psi_p.render()} psi_q={pair.psi_q.render()}")

    expect(r.dim_gp <= r.dim_gpq and r.dim_gq <= r.dim_gpq, "dim monotonicity")
    expect(r.cycle.dim == r.dim_gpq - r.dim_gq, "cycle dimension formula")
    expect(r.dual_dim == r.dim_gpq - r.dim_gp, "dual dimension formula")
    expect(r.cycle.dim == r.cycle.dim_recomputed(), "cycle dim internal recomputation")
    expect(r.cycle.is_point == (r.cycle.dim == 0), "point flag")
    expect(r.cycle.is_whole_space == (not pair.psi_q), "whole-space flag")

    red = r.red.reduced_marking
    expect(red.issubset(pair.psi_q), "reduction containment")
    expect(is_separating(pair, red), "reduction separates")
    _, red_again, red_dim = r.context.reduced_pair(red)
    expect(red_again == red, "reduction idempotence")
    expect(red_dim == r.cycle.dim, "moduli dim consistency")

    expect(r.criterion_connected == (not pair.intersection_marking), "connectivity criterion")

    c = r.chains
    if c is not None:
        # S_j = [e, x_j], so S_j < S_{j+1} iff x_j < x_{j+1}: lengths, and dims, grow
        rising = c.reachable_dims[1:-1] if c.complete else c.reachable_dims[1:]
        expect(all(a < b for a, b in zip(c.reachable_dims, rising)),
               "lengths strictly increase before stabilization")
    if c is not None and c.complete:
        expect(c.connected == r.criterion_connected, "reachability vs criterion")
        sizes = c.reachable_sizes  # empty when the scan counted no sizes
        expect(all(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 2)),
               "reachable sizes strictly increase before stabilization")
        expect(sizes[-1] >= sizes[-2] if len(sizes) > 1 else True, "reachable sizes monotone")
        dims = c.reachable_dims
        expect(all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1)),
               "reachable dims non-decreasing")
        expect(dims[-1] <= r.dim_gp, "reachable dims bounded by dim G/P")
        # x_j stops at w_0(R), R the quotient: l = |Phi+| - dim G/P_R, from |Phi+| - dim G/P
        expect(dims[-1] == r.dim_gp - dim_flag_on(pair.roots, r.quotient), "quotient marking")
        expect((dims[-1] == r.dim_gp) == c.connected, "top cell reached iff connected")
        expect((c.minimal_n is not None) == c.connected, "minimal chain length presence")


def _factor_echo(d: DynkinDiagram) -> list[dict]:
    return [{"type": str(f), "nodes": list(range(lo, hi + 1))}
            for f, (lo, hi) in zip(d.factors, d.factor_spans)]


def report_to_dict(r: AnalysisReport) -> dict:
    """Plain-dict form of the report, keys in the documented order."""
    pair = r.pair
    chains = r.chains
    connectivity = {"connected": r.criterion_connected, "computed": chains is not None}
    for key in ("complete", "minimal_n", "reachable_sizes", "reachable_dims"):
        connectivity[key] = getattr(chains, key, None)
    case = r.flags.larger_automorphism_case
    return {
        "schema": SCHEMA_VERSION,
        "input": {
            "type": pair.diagram.type_string,
            "factors": _factor_echo(pair.diagram),
            "psi_p": list(pair.psi_p),
            "psi_q": list(pair.psi_q),
        },
        "dims": {"flag_p": r.dim_gp, "flag_q": r.dim_gq, "flag_pq": r.dim_gpq},
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
            "witnesses": {str(q): tree_path(pair.diagram, p, q)
                          for q, p in sorted(r.red.witness_starts.items())},
        },
        "quotient_marking": list(r.quotient),
        "connectivity": connectivity,
        "boundary_class": r.boundary.value,
        "flags": {
            "mok_zhang_exception": r.flags.mok_zhang_exception,
            "larger_automorphism_case": case.value if case is not None else None,
        },
        "warnings": list(r.warnings),
    }


def render_json(r: AnalysisReport, compact: bool = False) -> str:
    obj = report_to_dict(r)
    if compact:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=2)


def tsv_header() -> str:
    return "\t".join(TSV_COLUMNS)


def render_tsv_row(r: AnalysisReport) -> str:
    chains = r.chains
    minimal_n = chains.minimal_n if chains is not None else None
    return "\t".join((
        r.pair.diagram.type_string,
        r.pair.psi_p.render(),
        r.pair.psi_q.render(),
        str(r.dim_gp),
        str(r.cycle.dim),
        r.red.reduced_marking.render(),
        "true" if r.criterion_connected else "false",
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
        f"dim G/P = {r.dim_gp}   dim G/Q = {r.dim_gq}   dim G/(P&Q) = {r.dim_gpq}",
        f"cycle: type {r.cycle.type_string or '(point)'}"
        f"  marking {r.cycle.marking.render()}  dim {r.cycle.dim}"
        + ("  [point]" if r.cycle.is_point else "")
        + ("  [whole space]" if r.cycle.is_whole_space else ""),
        f"dual cycle dim = {r.dual_dim}   "
        f"tower level increment = {r.cycle.dim + r.dual_dim} (derived)",
        f"reduction of Q mod P: {r.red.reduced_marking.render()}"
        f"  (already reduced: {'yes' if r.red.is_already_reduced else 'no'})",
        f"quotient marking (P&Q): {r.quotient.render()}"
        f"   connected: {'yes' if r.criterion_connected else 'no'}",
    ]
    if r.chains is not None:
        c = r.chains
        n = str(c.minimal_n) if c.minimal_n is not None else "-"
        lines.append(
            f"chains: minimal N = {n}  sizes {c.reachable_sizes}  "
            f"cell dims {c.reachable_dims}" + ("" if c.complete else "  [truncated]"))
    lines.append(f"boundary class of psi_p: {r.boundary.value}")
    case = r.flags.larger_automorphism_case
    lines.append(
        f"exception flags: tangency-table {'yes' if r.flags.mok_zhang_exception else 'no'}"
        f", larger-automorphism {case.value if case else 'none'}")
    for w in r.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)
