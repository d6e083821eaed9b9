"""Decision procedures on marked diagram pairs: separation and reduction,
cycle-connectivity, minimal chain length via Weyl reachability, boundary
codimension class, and the exception tables.

Subgroup convention used throughout: the Weyl subgroup attached to a
marking is generated by the reflections of the UNMARKED nodes (the Levi
part).  Markings list the nodes removed from the Levi, so conflating the
two conventions silently inverts every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynkin import DynkinDiagram, Marking, diagram_involution_table, tree_path
from .geometry import ParabolicPair, dim_flag
from .rootweyl import (GuardLimitError, generate_roots, resolve_weyl_limit,
                       weyl_order, weyl_order_estimate)


class ConsistencyError(RuntimeError):
    """A cross-checked identity failed; indicates an implementation bug or
    a wrong theory encoding, never bad user input."""


def levi_generators(d: DynkinDiagram, marking) -> Marking:
    """Unmarked nodes: the simple reflections generating the Levi's Weyl
    subgroup for this marking."""
    marked = set(Marking.of(marking).validate_on(d))
    return Marking.of(v for v in range(1, d.n + 1) if v not in marked)


def is_separating(pair: ParabolicPair, chi) -> bool:
    """True iff every same-factor path from a p-marked node to a q-marked
    node passes through chi.  On a forest this is equivalent to the
    connected-subdiagram form of the condition, since a connected subgraph
    of a tree contains the unique path between any two of its nodes."""
    d = pair.diagram
    chi_set = set(Marking.of(chi).validate_on(d))
    for p in pair.psi_p:
        for q in pair.psi_q:
            path = tree_path(d, p, q)
            if path is not None and not any(v in chi_set for v in path):
                return False
    return True


@dataclass(frozen=True)
class ReductionResult:
    reduced_marking: Marking
    is_already_reduced: bool
    forced_witnesses: dict[int, list[int]]


def reduction(pair: ParabolicPair) -> ReductionResult:
    """The smallest subset of psi_q separating psi_p from psi_q: exactly the
    q-nodes that are the first q-marked node on some path from a p-node."""
    d = pair.diagram
    q_set = set(pair.psi_q)
    kept, witnesses = [], {}
    for q in pair.psi_q:
        for p in pair.psi_p:
            path = tree_path(d, p, q)
            if path is None:
                continue
            first_hit = next(v for v in path if v in q_set)
            if first_hit == q:
                kept.append(q)
                witnesses[q] = path
                break
    reduced = Marking.of(kept)
    return ReductionResult(reduced, reduced == pair.psi_q, witnesses)


def is_cycle_connected(pair: ParabolicPair) -> bool:
    """Connectivity criterion: no proper parabolic contains both, i.e. the
    two marked sets are disjoint."""
    return not pair.intersection_marking


def connectivity_quotient(pair: ParabolicPair) -> Marking:
    """Marking of the parabolic generated by both: the intersection of the
    marked sets.  Empty means the quotient is a point (connected case)."""
    return pair.intersection_marking


@dataclass
class ChainAnalysis:
    """Reachability of chain images in the Weyl model.

    Level sets S_0 = W_P, S_j = W_P * (W_Q * S_{j-1}), in the Levi
    convention above.  `connected` is None only when the scan was truncated
    by max_k before stabilizing (`complete` False).
    """

    connected: bool | None
    minimal_n: int | None
    reachable_sizes: list[int]
    reachable_dims: list[int]
    quotient_marking: Marking
    complete: bool


def _grow(mask: np.ndarray, neighbours: np.ndarray, gens: np.ndarray,
          seeds: np.ndarray) -> np.ndarray:
    """Add to `mask` every orbit point reachable from `seeds` by the
    reflections in `gens` (neighbour columns); return the indices added.
    Points of the mask outside the seeds must already be closed under
    those reflections."""
    added = [seeds[:0]]
    frontier = seeds
    while len(frontier):
        reached = neighbours[frontier[:, None], gens].ravel()
        reached = np.sort(reached[~mask[reached]])
        # np.sort and a neighbour test: np.unique hashes, and is far slower
        frontier = reached[np.diff(reached, prepend=-1) != 0]
        mask[frontier] = True
        added.append(frontier)
    return np.concatenate(added)


def chain_analysis(pair: ParabolicPair, max_k: int = 32,
                   weyl_limit=None) -> ChainAnalysis:
    """Scan the level sets on the orbit of lambda_P, which is W/W_P.

    Every S_j is a union of cosets w*W_P, so it is held as a mask over the
    orbit points: |S_j| = popcount * |W_P|, and the largest cell dimension
    in S_j is the largest depth in the mask.
    """
    if max_k < 1:
        raise ValueError("max_k must be positive")
    d = pair.diagram
    order = weyl_order(d)
    p_gens = levi_generators(d, pair.psi_p)
    q_gens = levi_generators(d, pair.psi_q)
    orbit_size = order // weyl_order_estimate(d, p_gens)
    limit = resolve_weyl_limit(weyl_limit)
    if orbit_size > limit:
        raise GuardLimitError(orbit_size, limit, "orbit size |W/W_P|")
    orbit = generate_roots(d).weight_orbit(pair.psi_p)
    if len(orbit) != orbit_size:
        raise ConsistencyError(
            f"orbit of lambda_P has {len(orbit)} points, expected |W/W_P| = "
            f"{orbit_size} on {d.type_string} psi_p={pair.psi_p.render()}")
    stabilizer = order // orbit_size
    nb = orbit.neighbours
    p_cols = np.array([g - 1 for g in p_gens], dtype=np.intp)
    q_cols = np.array([g - 1 for g in q_gens], dtype=np.intp)

    # S_0 = W_P is the single point lambda_P, fixed by every P move
    mask = np.zeros(orbit_size, dtype=bool)
    mask[0] = True
    count, top = 1, 0
    fresh = np.zeros(1, dtype=np.intp)
    sizes = [stabilizer]
    dims = [0]
    minimal_n = None
    complete = False
    for j in range(1, max_k + 1):
        # the mask is P-closed, and Q-closed apart from `fresh`
        from_q = _grow(mask, nb, q_cols, fresh)
        fresh = np.concatenate([from_q, _grow(mask, nb, p_cols, from_q)])
        if len(fresh):
            count += len(fresh)
            # depth does not decrease with the index
            top = max(top, int(fresh.max()))
        sizes.append(count * stabilizer)
        dims.append(int(orbit.depth[top]))
        if count == orbit_size:
            minimal_n = j
            complete = True
            break
        if not len(fresh):
            complete = True
            break

    connected = (count == orbit_size) if complete else None
    result = ChainAnalysis(
        connected=connected,
        minimal_n=minimal_n,
        reachable_sizes=sizes,
        reachable_dims=dims,
        quotient_marking=pair.intersection_marking,
        complete=complete,
    )
    if complete:
        if connected != is_cycle_connected(pair):
            raise ConsistencyError(
                f"reachability disagrees with the marking criterion on "
                f"{d.type_string} psi_p={pair.psi_p.render()} psi_q={pair.psi_q.render()}")
        saturated_dim = dims[-1] == dim_flag(d, pair.psi_p)
        if saturated_dim != connected:
            raise ConsistencyError(
                f"top-cell dimension check disagrees with saturation on "
                f"{d.type_string} psi_p={pair.psi_p.render()} psi_q={pair.psi_q.render()}")
    return result


class BoundaryClass(Enum):
    AFFINE_CELL = "AffineCell"
    CODIM_AT_LEAST_TWO = "CodimAtLeastTwo"
    CODIM_ONE = "CodimOne"


def boundary_codim_class(d: DynkinDiagram, psi_p) -> BoundaryClass:
    """Classify the complement of the open orbit by how the marking meets
    its involution image: fixed marking gives one affine cell, disjoint
    image gives codimension >= 2, partial overlap codimension one."""
    psi_p = Marking.of(psi_p).validate_on(d)
    iota = diagram_involution_table(d)
    image = Marking.of(iota[v] for v in psi_p)
    if image == psi_p:
        return BoundaryClass.AFFINE_CELL
    if not set(image) & set(psi_p):
        return BoundaryClass.CODIM_AT_LEAST_TWO
    return BoundaryClass.CODIM_ONE


class LargerAutomorphismCase(Enum):
    ODD_SYMPLECTIC_PROJECTIVE = "OddSymplecticProjective"
    SPINOR_ODD_ORTHOGONAL = "SpinorOddOrthogonal"
    G2_QUADRIC = "G2Quadric"


@dataclass(frozen=True)
class ExceptionFlags:
    mok_zhang_exception: bool
    larger_automorphism_case: LargerAutomorphismCase | None


def _local_markings(d: DynkinDiagram, pair_p: Marking, pair_q: Marking):
    """Per factor: (family, rank, local psi_p, local psi_q) with node ids
    shifted to 1..rank."""
    for f, (lo, hi) in zip(d.factors, d.factor_spans):
        local_p = tuple(v - lo + 1 for v in pair_p if lo <= v <= hi)
        local_q = tuple(v - lo + 1 for v in pair_q if lo <= v <= hi)
        yield f.family, f.rank, local_p, local_q


def _mok_zhang_factor(family: str, rank: int, p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    if family == "B":
        # only 2 <= i <= rank; the i = 1 instantiation is surfaced as a
        # note instead of being flagged (index i-1 would leave the table)
        return (len(p) == 1 and 2 <= p[0] <= rank
                and q == tuple(sorted({p[0] - 1, rank})))
    if family == "C":
        return p == (rank,) and q == (rank - 1,)
    if family == "F":
        return p == (1,) and q == (3,)
    if family == "G":
        return p == (2,) and q == (1,)
    return False


def exception_flags(pair: ParabolicPair) -> ExceptionFlags:
    """Table lookups for the two exception lists.

    The tangency-rigidity table is matched on (type, psi_p, psi_q) per
    factor; the larger-automorphism table is matched on the reduction of P
    mod Q (first matching factor wins on product diagrams).
    """
    d = pair.diagram
    mz = any(_mok_zhang_factor(fam, rank, p, q)
             for fam, rank, p, q in _local_markings(d, pair.psi_p, pair.psi_q))

    p_reduced = reduction(pair.swapped()).reduced_marking
    case = None
    for fam, rank, p, _ in _local_markings(d, p_reduced, Marking.of(())):
        if fam == "C" and p == (1,):
            case = LargerAutomorphismCase.ODD_SYMPLECTIC_PROJECTIVE
        elif fam == "B" and p == (rank,):
            case = LargerAutomorphismCase.SPINOR_ODD_ORTHOGONAL
        elif fam == "G" and p == (1,):
            case = LargerAutomorphismCase.G2_QUADRIC
        if case is not None:
            break
    return ExceptionFlags(mok_zhang_exception=mz, larger_automorphism_case=case)


def exception_notes(pair: ParabolicPair) -> list[str]:
    """Degenerate table indices worth surfacing instead of guessing."""
    notes = []
    for fam, rank, p, q in _local_markings(pair.diagram, pair.psi_p, pair.psi_q):
        if fam == "B" and p == (1,) and q == (rank,):
            notes.append(
                f"B{rank} tangency-table entry with i=1 has no node i-1; "
                "pair left unflagged (see README)")
    return notes
