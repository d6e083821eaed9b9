"""Oracles for `parhom.connectivity.reduction` and `is_separating`, which
read both off a component split of the diagram:

- `reduction` and `is_separating` here are the path-walking versions: they
  run `tree_path` for every (p, q) pair and look at where each path first
  meets psi_q or chi; a witness start is the first node of the path that
  kept q;
- `brute_force_reduction` searches every subset of psi_q for the
  separating ones, sharing no code with the fast path beyond `tree_path`;
- `larger_automorphism_case` is the exception-table lookup on P mod Q taken
  as the path-walking `reduction` of the swapped pair, so it shares no code
  with `connectivity.exception_flags`, which takes the library's.
"""

from itertools import combinations

from parhom import (ConsistencyError, LargerAutomorphismCase, Marking,
                    ParabolicPair, ReductionResult, tree_path)
from parhom.connectivity import _local_markings


def swapped(pair: ParabolicPair) -> ParabolicPair:
    """The pair with the roles of psi_p and psi_q exchanged."""
    return ParabolicPair(pair.diagram, pair.psi_q, pair.psi_p)


class NonUniqueReductionError(ConsistencyError):
    """Brute force found no unique inclusion-minimal separating subset."""


def is_separating(pair: ParabolicPair, chi) -> bool:
    """True iff every same-factor path from a p-marked node to a q-marked
    node passes through chi.  On a forest this is equivalent to the
    connected-subdiagram form of the condition, since a connected subgraph
    of a tree contains the unique path between any two of its nodes."""
    d = pair.diagram
    chi_set = set(Marking(chi).validate_on(d))
    for p in pair.psi_p:
        for q in pair.psi_q:
            path = tree_path(d, p, q)
            if path is not None and not any(v in chi_set for v in path):
                return False
    return True


def reduction(pair: ParabolicPair) -> ReductionResult:
    """The smallest subset of psi_q separating psi_p from psi_q: exactly the
    q-nodes that are the first q-marked node on some path from a p-node."""
    d = pair.diagram
    q_set = set(pair.psi_q)
    kept, starts = [], {}
    for q in pair.psi_q:
        for p in pair.psi_p:
            path = tree_path(d, p, q)
            if path is None:
                continue
            first_hit = next(v for v in path if v in q_set)
            if first_hit == q:
                kept.append(q)
                starts[q] = path[0]
                break
    reduced = Marking(kept)
    return ReductionResult(reduced, reduced == pair.psi_q, starts)


def brute_force_reduction(pair: ParabolicPair) -> Marking:
    """Independent oracle: enumerate every subset of psi_q, keep the
    separating ones, and return the unique inclusion-minimal one.  The
    minimum is unique iff the intersection of all separating subsets is
    itself separating; anything else is a theory-encoding bug."""
    qs = list(pair.psi_q)
    if len(qs) > 20:
        raise ValueError(f"brute force limited to |psi_q| <= 20, got {len(qs)}")
    d = pair.diagram
    paths = []
    for p in pair.psi_p:
        for q in qs:
            path = tree_path(d, p, q)
            if path is not None:
                paths.append(frozenset(path))

    def separating(subset: frozenset[int]) -> bool:
        return all(path & subset for path in paths)

    meet = set(qs)
    found_any = False
    for size in range(len(qs) + 1):
        for combo in combinations(qs, size):
            sub = frozenset(combo)
            if separating(sub):
                found_any = True
                meet &= sub
    if not found_any or not separating(frozenset(meet)):
        raise NonUniqueReductionError(
            f"no unique minimal separating subset of {pair.psi_q.render()} "
            f"for psi_p={pair.psi_p.render()} on {d.type_string}")
    return Marking(meet)


def larger_automorphism_case(pair: ParabolicPair):
    """The larger-automorphism entry matched on P mod Q = the reduction of
    (psi_q, psi_p); first matching factor wins."""
    p_reduced = reduction(swapped(pair)).reduced_marking
    for fam, rank, p, _ in _local_markings(pair.diagram, p_reduced, Marking(())):
        if fam == "C" and p == (1,):
            return LargerAutomorphismCase.ODD_SYMPLECTIC_PROJECTIVE
        if fam == "B" and p == (rank,):
            return LargerAutomorphismCase.SPINOR_ODD_ORTHOGONAL
        if fam == "G" and p == (1,):
            return LargerAutomorphismCase.G2_QUADRIC
    return None
