"""Dimension formulas for flag spaces and cycles over a marked diagram
pair, all from the number of positive roots outside a marking's Levi,
which `rootweyl.levi_walk` counts on Dynkin labels.  The cycle
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
from .rootweyl import RootSystem, generate_roots, levi_walk


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
    split = rs.levi_splits.get(psi)
    if split is None:
        psi.validate_on(d)
        free = [v for v in range(1, d.n + 1) if v not in psi]
        split = rs.levi_splits[psi] = tuple(map(tuple, induced_components(d, free)))
    return split


def dim_flag(rs: RootSystem, psi) -> int:
    """Complex dimension of the flag space for a marking: the number of
    positive roots outside its Levi (`rootweyl.levi_walk`).

    >>> from parhom import parse_diagram_spec
    >>> dim_flag(generate_roots(parse_diagram_spec("A3")), [2])
    4
    """
    psi = Marking(psi)
    walk = rs.levi_walks.get(psi)
    if walk is None:
        walk = levi_walk(rs, psi)
    return walk[0]


@dataclass(frozen=True)
class CycleDescriptor:
    """Type and dimension of the cycle cut out by the second marking.

    `type_string`, `marking` and `roots`, the root system of that type, give
    the cycle in its own canonical numbering ("" and None for a point);
    they keep only the components of the unmarked-by-q subdiagram that
    actually meet the surviving marks, since the rest collapse to points.
    """

    type_string: str
    marking: Marking
    dim: int
    is_point: bool
    is_whole_space: bool
    roots: RootSystem | None

    def dim_recomputed(self) -> int:
        """Same dimension counted in the cycle's own root system."""
        if not self.type_string:
            return 0
        return dim_flag(self.roots, self.marking)


def cycle_descriptor(pair: ParabolicPair) -> CycleDescriptor:
    """The Q-cycle; its relabelled type and marking are memoised on
    (cycle nodes, surviving marks), with no reference to the mapping."""
    rs = pair.roots
    dim = dim_flag(rs, pair.union_marking) - dim_flag(rs, pair.psi_q)
    surviving = pair.psi_p.minus(pair.psi_q)
    nodes = sum(pair.cycle_components, ())
    cycle = rs.cycles.get((nodes, surviving))
    if cycle is None:
        sub, mapping = relabel_to_standard(pair.diagram, nodes, marking=surviving)
        cycle = rs.cycles[nodes, surviving] = (
            (sub.type_string, Marking(mapping[v] for v in surviving), generate_roots(sub))
            if sub is not None else ("", Marking(), None))
    return CycleDescriptor(
        type_string=cycle[0],
        marking=cycle[1],
        dim=dim,
        is_point=not surviving,
        is_whole_space=not pair.psi_q,
        roots=cycle[2],
    )

