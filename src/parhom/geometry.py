"""Dimension formulas for flag spaces, cycles and towers over a marked
diagram pair, all by counting positive roots against markings.

Marked nodes are the nodes removed from the Levi part, so a larger marking
means a smaller parabolic: the empty marking is the whole group, the full
marking the Borel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dynkin import (DynkinDiagram, Marking, induced_components,
                     parse_diagram_spec, relabel_to_standard)
from .rootweyl import generate_roots


@dataclass(frozen=True)
class ParabolicPair:
    """Two markings over one diagram; the two parabolics share a Borel, so
    their intersection is the parabolic marked by the union."""

    diagram: DynkinDiagram
    psi_p: Marking
    psi_q: Marking

    def __post_init__(self):
        object.__setattr__(self, "psi_p", Marking.of(self.psi_p).validate_on(self.diagram))
        object.__setattr__(self, "psi_q", Marking.of(self.psi_q).validate_on(self.diagram))

    @cached_property
    def union_marking(self) -> Marking:
        return self.psi_p.union(self.psi_q)

    @cached_property
    def intersection_marking(self) -> Marking:
        return self.psi_p.intersect(self.psi_q)

    def swapped(self) -> "ParabolicPair":
        return ParabolicPair(self.diagram, self.psi_q, self.psi_p)


def dim_flag(d: DynkinDiagram, psi) -> int:
    """Complex dimension of the flag space for a marking: the number of
    positive roots whose support meets the marked nodes."""
    psi = Marking.of(psi).validate_on(d)
    if not psi:
        return 0
    rs = generate_roots(d)
    cols = [v - 1 for v in psi]
    return int(rs.pos_support[:, cols].any(axis=1).sum())


@dataclass(frozen=True)
class CycleDescriptor:
    """Type and dimension of the cycle cut out by the second marking.

    `type_string`/`marking` describe the cycle in its own canonical
    numbering (empty string for a point); they keep only the components of
    the unmarked-by-q subdiagram that actually meet the surviving marks,
    since the rest collapse to points.
    """

    type_string: str
    marking: Marking
    dim: int
    is_point: bool
    is_whole_space: bool

    def dim_recomputed(self) -> int:
        """Same dimension counted inside the cycle's own diagram."""
        if not self.type_string:
            return 0
        return dim_flag(parse_diagram_spec(self.type_string), self.marking)


def cycle_descriptor(pair: ParabolicPair) -> CycleDescriptor:
    d = pair.diagram
    dim = dim_flag(d, pair.union_marking) - dim_flag(d, pair.psi_q)
    surviving = pair.psi_p.minus(pair.psi_q)
    levi_nodes = [v for v in range(1, d.n + 1) if v not in pair.psi_q]
    keep: list[int] = []
    for comp in induced_components(d, levi_nodes):
        if set(comp) & set(surviving):
            keep.extend(comp)
    sub, mapping = relabel_to_standard(d, keep, marking=surviving)
    return CycleDescriptor(
        type_string=sub.type_string if sub is not None else "",
        marking=Marking.of(mapping[v] for v in surviving),
        dim=dim,
        is_point=not surviving,
        is_whole_space=not pair.psi_q,
    )


def dual_cycle_dim(pair: ParabolicPair) -> int:
    """Dimension of the dual cycle (the fiber-direction count on the other
    leg of the double fibration)."""
    d = pair.diagram
    return dim_flag(d, pair.union_marking) - dim_flag(d, pair.psi_p)


@dataclass(frozen=True)
class TowerDims:
    """Cycle and dual-cycle dimensions; tower level j adds one fiber of
    each, so dim at level j is j*(k_cycle + l_dual).  The per-level formula
    is derived from the iterated pullback construction, not quoted, and is
    validated by the level-1 identity."""

    k_cycle: int
    l_dual: int

    @property
    def level_increment(self) -> int:
        return self.k_cycle + self.l_dual

    def tower_dim_at(self, level: int) -> int:
        if level < 0:
            raise ValueError("tower level must be non-negative")
        return level * self.level_increment
