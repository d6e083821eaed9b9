"""Dimension formulas for flag spaces and cycles over a marked diagram
pair, all by counting positive roots against markings.  The cycle
Q/(Q∩P) and `connectivity.reduction` both read one split of the diagram,
`ParabolicPair.cycle_components`.  The per-marking values are
memoised in tables on the diagram's `RootSystem` (see `rootweyl`).

Marked nodes are the nodes removed from the Levi part, so a larger marking
means a smaller parabolic: the empty marking is the whole group, the full
marking the Borel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynkin import DynkinDiagram, Marking, induced_components, relabel_to_standard
from .rootweyl import RootSystem, generate_roots


@dataclass(frozen=True)
class ParabolicPair:
    """Two markings over one diagram; the two parabolics share a Borel, so
    their intersection is the parabolic marked by the union.  A pair is
    made with `roots`, the root system holding the memo tables, its union
    and intersection markings, and `cycle_components`: the components of D
    minus psi_q that meet psi_p, where the Q-cycle lives."""

    diagram: DynkinDiagram
    psi_p: Marking
    psi_q: Marking

    def __post_init__(self):
        d = self.diagram
        self._set(generate_roots(d), Marking(self.psi_p).validate_on(d),
                  Marking(self.psi_q).validate_on(d))

    @classmethod
    def of_valid(cls, roots: RootSystem, psi_p: Marking, psi_q: Marking) -> "ParabolicPair":
        """The pair of two Markings already validated on `roots.diagram`,
        made with no check."""
        pair = object.__new__(cls)
        pair.__dict__["diagram"] = roots.diagram
        pair._set(roots, psi_p, psi_q)
        return pair

    def _set(self, roots: RootSystem, psi_p: Marking, psi_q: Marking):
        p = set(psi_p)
        self.__dict__.update(
            psi_p=psi_p, psi_q=psi_q, roots=roots, union_marking=psi_p.union(psi_q),
            intersection_marking=psi_p.intersect(psi_q),
            cycle_components=tuple(comp for comp in levi_split(roots, psi_q)
                                   if not p.isdisjoint(comp)))


def levi_split(rs: RootSystem, psi: Marking) -> tuple[tuple[int, ...], ...]:
    """Components of D minus the marking, as `induced_components` lists
    them; memoised per marking on the diagram's root system `rs`."""
    d = rs.diagram
    table = rs.levi_splits
    split = table.get(psi)
    if split is None:
        psi.validate_on(d)
        free = [v for v in range(1, d.n + 1) if v not in psi]
        split = table[psi] = tuple(map(tuple, induced_components(d, free)))
    return split


def dim_flag(d: DynkinDiagram, psi) -> int:
    """Complex dimension of the flag space for a marking: the number of
    positive roots whose support meets the marked nodes.  Memoised per
    marking on the diagram's root system."""
    return dim_flag_on(generate_roots(d), Marking(psi))


def dim_flag_on(rs: RootSystem, psi: Marking) -> int:
    """The body of `dim_flag`, for a root system already in hand.  The
    per-pair path calls it, so `bench/tracer.py`'s `geometry.dim_flag`
    span no longer counts the per-row dimensions."""
    dim = rs.flag_dims.get(psi)
    if dim is None:
        mask = sum(1 << (v - 1) for v in psi.validate_on(rs.diagram))
        dim = rs.flag_dims[psi] = sum(1 for s in rs.support_masks if s & mask)
    return dim


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
    # the diagram of the cycle type's own root system; None for a point
    diagram: DynkinDiagram | None

    def dim_recomputed(self) -> int:
        """Same dimension counted inside the cycle's own diagram."""
        if not self.type_string:
            return 0
        return dim_flag(self.diagram, self.marking)


def cycle_descriptor(pair: ParabolicPair) -> CycleDescriptor:
    """The Q-cycle; its relabelled type and marking are memoised on
    (cycle nodes, surviving marks), with no reference to the mapping."""
    rs = pair.roots
    dim = dim_flag_on(rs, pair.union_marking) - dim_flag_on(rs, pair.psi_q)
    surviving = pair.psi_p.minus(pair.psi_q)
    nodes = sum(pair.cycle_components, ())
    table = rs.cycles
    cycle = table.get((nodes, surviving))
    if cycle is None:
        sub, mapping = relabel_to_standard(pair.diagram, nodes, marking=surviving)
        # keep the cycle's root system's own diagram: one object per type
        cycle = table[nodes, surviving] = (
            (sub.type_string, Marking(mapping[v] for v in surviving), generate_roots(sub).diagram)
            if sub is not None else ("", Marking(), None))
    return CycleDescriptor(
        type_string=cycle[0],
        marking=cycle[1],
        dim=dim,
        is_point=not surviving,
        is_whole_space=not pair.psi_q,
        diagram=cycle[2],
    )

