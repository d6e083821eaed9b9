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
                           chain_analysis, connectivity_quotient, exception_flags,
                           exception_notes, is_cycle_connected, is_separating,
                           reduction)
from .dynkin import DynkinDiagram, Marking
from .geometry import (CycleDescriptor, ParabolicPair, TowerDims,
                       cycle_descriptor, dim_flag, dual_cycle_dim)

SCHEMA_VERSION = "parhom/1"

TSV_COLUMNS = ("type", "psi_p", "psi_q", "dim_GP", "cycle_dim", "reduced",
               "connected", "minimal_n", "exception")

_TOWER_NOTE = "per-level dimension formula is derived, not tabulated"
_LINEARITY_NOTE = ("cycle linearity not computed; the tangency exception "
                   "table assumes its linearity hypothesis")


@dataclass
class AnalysisReport:
    pair: ParabolicPair
    dim_gp: int
    dim_gq: int
    dim_gpq: int
    cycle: CycleDescriptor
    dual_dim: int
    tower: TowerDims
    red: ReductionResult
    quotient: Marking
    criterion_connected: bool
    boundary: BoundaryClass
    flags: ExceptionFlags
    chains: ChainAnalysis | None = None
    warnings: list[str] = field(default_factory=list)


def build_report(diagram: DynkinDiagram, psi_p, psi_q, with_chains: bool = False,
                 max_k: int = 32, weyl_limit=None) -> AnalysisReport:
    pair = ParabolicPair(diagram, Marking.of(psi_p), Marking.of(psi_q))
    d = pair.diagram
    chains = chain_analysis(pair, max_k=max_k, weyl_limit=weyl_limit) if with_chains else None
    warnings = [_LINEARITY_NOTE]
    warnings.extend(exception_notes(pair))
    if chains is not None and not chains.complete:
        warnings.append(f"chain analysis truncated at max_k={max_k} before stabilization")
    cycle = cycle_descriptor(pair)
    dual_dim = dual_cycle_dim(pair)
    report = AnalysisReport(
        pair=pair,
        dim_gp=dim_flag(d, pair.psi_p),
        dim_gq=dim_flag(d, pair.psi_q),
        dim_gpq=dim_flag(d, pair.union_marking),
        cycle=cycle,
        dual_dim=dual_dim,
        tower=TowerDims(k_cycle=cycle.dim, l_dual=dual_dim),
        red=reduction(pair),
        quotient=connectivity_quotient(pair),
        criterion_connected=is_cycle_connected(pair),
        boundary=boundary_codim_class(d, pair.psi_p),
        flags=exception_flags(pair),
        chains=chains,
        warnings=warnings,
    )
    verify_report(report)
    return report


def verify_report(r: AnalysisReport) -> None:
    """Cross-field consistency checks; raises ConsistencyError on failure."""
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
    expect(r.tower.tower_dim_at(0) == 0, "tower base dimension")
    expect(r.tower.tower_dim_at(1) == r.cycle.dim + r.dual_dim, "tower level-1 identity")

    red = r.red.reduced_marking
    expect(red.issubset(pair.psi_q), "reduction containment")
    expect(is_separating(pair, red), "reduction separates")
    re_red = reduction(ParabolicPair(d, pair.psi_p, red)).reduced_marking
    expect(re_red == red, "reduction idempotence")
    reduced_pair = ParabolicPair(d, pair.psi_p, red)
    expect(cycle_descriptor(reduced_pair).dim == r.cycle.dim, "moduli dim consistency")

    expect(r.quotient == pair.intersection_marking, "quotient marking")
    expect(r.criterion_connected == (not pair.intersection_marking), "connectivity criterion")

    if r.chains is not None and r.chains.complete:
        c = r.chains
        expect(c.connected == r.criterion_connected, "reachability vs criterion")
        sizes = c.reachable_sizes
        expect(all(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 2)),
               "reachable sizes strictly increase before stabilization")
        expect(sizes[-1] >= sizes[-2] if len(sizes) > 1 else True, "reachable sizes monotone")
        dims = c.reachable_dims
        expect(all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1)),
               "reachable dims non-decreasing")
        expect(dims[-1] <= r.dim_gp, "reachable dims bounded by dim G/P")
        expect((dims[-1] == r.dim_gp) == c.connected, "top cell reached iff connected")
        expect((c.minimal_n is not None) == c.connected, "minimal chain length presence")


def _factor_echo(d: DynkinDiagram) -> list[dict]:
    return [{"type": str(f), "nodes": list(range(lo, hi + 1))}
            for f, (lo, hi) in zip(d.factors, d.factor_spans)]


def report_to_dict(r: AnalysisReport) -> dict:
    """Plain-dict form of the report, keys in the documented order."""
    pair = r.pair
    chains = r.chains
    connectivity = {
        "connected": r.criterion_connected,
        "computed": chains is not None,
        "complete": chains.complete if chains is not None else None,
        "minimal_n": chains.minimal_n if chains is not None else None,
        "reachable_sizes": chains.reachable_sizes if chains is not None else None,
        "reachable_dims": chains.reachable_dims if chains is not None else None,
    }
    case = r.flags.larger_automorphism_case
    return {
        "schema": SCHEMA_VERSION,
        "input": {
            "type": pair.diagram.type_string,
            "factors": _factor_echo(pair.diagram),
            "psi_p": pair.psi_p.as_list(),
            "psi_q": pair.psi_q.as_list(),
        },
        "dims": {"flag_p": r.dim_gp, "flag_q": r.dim_gq, "flag_pq": r.dim_gpq},
        "cycle": {
            "type": r.cycle.type_string,
            "marking": r.cycle.marking.as_list(),
            "dim": r.cycle.dim,
            "is_point": r.cycle.is_point,
            "is_whole_space": r.cycle.is_whole_space,
        },
        "dual_cycle_dim": r.dual_dim,
        "tower": {
            "k_cycle": r.tower.k_cycle,
            "l_dual": r.tower.l_dual,
            "level_increment": r.tower.level_increment,
            "note": _TOWER_NOTE,
        },
        "reduction": {
            "reduced": r.red.reduced_marking.as_list(),
            "already_reduced": r.red.is_already_reduced,
            "witnesses": {str(k): list(v) for k, v in sorted(r.red.forced_witnesses.items())},
        },
        "quotient_marking": r.quotient.as_list(),
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
        f"dual cycle dim = {r.dual_dim}   tower level increment = {r.tower.level_increment} (derived)",
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
