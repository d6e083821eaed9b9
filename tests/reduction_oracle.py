"""Brute-force oracle for `parhom.connectivity.reduction`: search every
subset of psi_q for the separating ones, sharing no code with the fast
path beyond `tree_path`."""

from itertools import combinations

from parhom import ConsistencyError, Marking, ParabolicPair, tree_path


class NonUniqueReductionError(ConsistencyError):
    """Brute force found no unique inclusion-minimal separating subset."""


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
    return Marking.of(meet)
