"""Decision procedures on marked diagram pairs: separation and reduction
(read off components of the diagram, the reduction off the split
`ParabolicPair.cycle_components` that also gives the cycle),
cycle-connectivity, minimal chain length by Demazure products, boundary
codimension class, and the exception tables.

Subgroup convention used throughout: the Weyl subgroup attached to a
marking is generated by the reflections of the UNMARKED nodes (the Levi
part).  Markings list the nodes removed from the Levi, so conflating the
two conventions silently inverts every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dynkin import DynkinDiagram, Marking
from .geometry import ParabolicPair, dim_flag, levi_split
from .rootweyl import (DEFAULT_WEYL_LIMIT, GuardLimitError, RootSystem, descend,
                       orbit_counts, weyl_order)

DEFAULT_MAX_K = 32


class ConsistencyError(RuntimeError):
    """A cross-checked identity failed; indicates an implementation bug or
    a wrong theory encoding, never bad user input."""


def is_separating(pair: ParabolicPair, chi) -> bool:
    """True iff no component of D minus chi meets both psi_p and psi_q.  On
    a forest this is the same as "every p->q path meets chi", since two
    nodes lie in one component of D minus chi iff their path avoids chi."""
    p, q = set(pair.psi_p), set(pair.psi_q)
    return not any(not p.isdisjoint(comp) and not q.isdisjoint(comp)
                   for comp in levi_split(pair.roots, Marking(chi)))


@dataclass(frozen=True)
class ReductionResult:
    reduced_marking: Marking
    is_already_reduced: bool
    witness_starts: tuple[tuple[int, int], ...]  # (q, p): a tuple, as context rows share it


def reduction(pair: ParabolicPair) -> ReductionResult:
    """The smallest subset of psi_q separating psi_p from psi_q: the q in
    psi_p and the q next to one of `pair.cycle_components`.  The witness for
    q is its path from p, (q, p) in `witness_starts`: the smallest p that is
    q or in a component next to q; only JSON prints it (`report_to_dict`).

    >>> from parhom import parse_diagram_spec
    >>> res = reduction(ParabolicPair(parse_diagram_spec("A4"), [2], [1, 3, 4]))
    >>> res.reduced_marking, res.witness_starts
    ((1, 3), ((1, 2), (3, 2)))
    """
    d = pair.diagram
    psi_p = set(pair.psi_p)
    sources = [(min(psi_p.intersection(comp)), set(comp)) for comp in pair.cycle_components]
    witness_starts = []
    for q in pair.psi_q:
        starts = ([p for p, comp in sources if not comp.isdisjoint(d.adjacency[q])]
                  + [q] * (q in psi_p))
        if starts:
            witness_starts.append((q, min(starts)))
    reduced = tuple.__new__(Marking, [q for q, _ in witness_starts])  # in psi_q's order
    return ReductionResult(reduced, reduced == pair.psi_q, tuple(witness_starts))


def is_cycle_connected(pair: ParabolicPair) -> bool:
    """Connectivity criterion: no proper parabolic contains both, i.e. the
    two marked sets are disjoint."""
    return not pair.intersection_marking


@dataclass(frozen=True)
class ChainAnalysis:
    """Reachability of chain images in the Weyl model.

    Level sets S_0 = W_P, S_j = W_P * (W_Q * S_{j-1}), in the Levi
    convention above.  `connected` is None only when the scan was truncated
    by max_k before stabilizing (`complete` False).  `reachable_sizes` is
    empty when sizes were not counted.  Frozen: a context's rows share it.
    """

    connected: bool | None
    minimal_n: int | None
    reachable_sizes: tuple[int, ...]
    reachable_dims: tuple[int, ...]
    complete: bool


def chain_analysis(pair: ParabolicPair, max_k: int = DEFAULT_MAX_K,
                   weyl_limit: int = DEFAULT_WEYL_LIMIT, with_sizes: bool = True) -> ChainAnalysis:
    """The level sets as Bruhat intervals S_j = [e, x_j], x_0 = w_0(P) and
    x_j = x_{j-1} * w_0(Q) * w_0(P) (Demazure products; Bjorner-Brenti 2.2):
    `minimal_n` is the first j >= 1 with l(x_j) = |Phi+|, so one level is
    scanned even when x_0 is already w_0, and the top cell of S_j has
    dimension l(x_j) - l(x_0).  Each x_j is a prefix of the word of w_0(R),
    R = psi_p & psi_q, that `_lengths` returns.  `with_sizes` also counts
    |S_j|: |W_P| at j = 0, |W_R| where x_j is the whole word, and the levels
    before as points of W_R/W_P, by the subword property (Bjorner-Brenti
    2.2.2) on the word after x_0, as x_j^-1 = x_j (`rootweyl.orbit_counts`),
    guarded on |W_R/W_P| against `weyl_limit` before anything is allocated.
    The one home of the options' defaults; reads no environment, memoises
    nothing (a sweep calls it once per reduced pair, `report.PsiPContext`)."""
    if max_k < 1:
        raise ValueError("max_k must be positive")
    d, rs = pair.diagram, pair.roots
    # the Levi generators as columns: the unmarked nodes
    p_gens, q_gens = ([i for i in range(d.n) if i + 1 not in psi]
                      for psi in (pair.psi_p, pair.psi_q))
    lengths, word = _lengths(rs, p_gens, q_gens, max_k)
    top = lengths[-1] == rs.num_positive
    complete = top or lengths[-1] == lengths[-2]
    sizes = ()
    if with_sizes:
        stabilizer = weyl_order(rs, pair.psi_p)
        levi_order = weyl_order(rs, pair.intersection_marking)
        # the levels short of w_0(R), a prefix; S_j*lambda_P = U_k at
        # k = l(x_j) - l(x_0), a point per coset w*W_P
        ends = [x - lengths[0] for x in lengths[1:] if x < len(word)]
        sizes = (stabilizer,)
        if ends:
            size = levi_order // stabilizer
            if size > weyl_limit:
                raise GuardLimitError(size, weyl_limit, "scanned orbit |W_R/W_P|")
            *counts, reached = orbit_counts(rs, pair.psi_p, word[lengths[0]:], ends, size)
            if reached != size:
                raise ConsistencyError(f"orbit has {reached} points, not |W_R/W_P| = {size}, "
                                       f"on {_where(pair)}")
            sizes += tuple(c * stabilizer for c in counts)
            if any(a >= b for a, b in zip(sizes, sizes[1:] + (levi_order,))):
                raise ConsistencyError(
                    f"orbit scan disagrees with the Demazure lengths on {_where(pair)}")
        sizes += (levi_order,) * (len(lengths) - 1 - len(ends))

    connected = top if complete else None
    result = ChainAnalysis(
        connected=connected,
        minimal_n=len(lengths) - 1 if top else None,
        reachable_sizes=sizes,
        reachable_dims=tuple(length - lengths[0] for length in lengths),
        complete=complete,
    )
    if complete:
        if connected != is_cycle_connected(pair):
            raise ConsistencyError(
                f"reachability disagrees with the marking criterion on {_where(pair)}")
        saturated_dim = result.reachable_dims[-1] == dim_flag(rs, pair.psi_p)
        if saturated_dim != connected:
            raise ConsistencyError(
                f"top-cell dimension check disagrees with saturation on {_where(pair)}")
    return result


def _where(pair: ParabolicPair) -> str:
    return f"{pair.diagram.type_string} psi_p={pair.psi_p.render()} psi_q={pair.psi_q.render()}"


def _lengths(rs, p_gens: list[int], q_gens: list[int], max_k: int) -> tuple[list[int], list[int]]:
    """([l(x_0), ..., l(x_j)], word), to the level that reaches |Phi+|, adds
    nothing or is the max_k-th.  m = the Dynkin labels of x^-1(rho): x*s_i > x
    iff m_i > 0, so x * w_0(I) is `descend` on I.  `word` holds its moves,
    x_0's first, run on over the nodes outside R = psi_p & psi_q: a reduced
    word of w_0(R) whose first l(x_j) letters spell x_j.

    >>> from parhom import generate_roots, parse_diagram_spec
    >>> _lengths(generate_roots(parse_diagram_spec("A2")), [1], [0], 32)
    ([1, 3], [1, 0, 1])
    """
    m = [1] * rs.diagram.n
    word = []
    descend(rs, m, p_gens, word)
    lengths = [len(word)]
    for _ in range(max_k):
        descend(rs, m, q_gens, word)
        descend(rs, m, p_gens, word)
        lengths.append(len(word))
        if lengths[-1] in (rs.num_positive, lengths[-2]):
            break
    descend(rs, m, p_gens + q_gens, word)
    return lengths, word


class BoundaryClass(Enum):
    AFFINE_CELL = "AffineCell"
    CODIM_AT_LEAST_TWO = "CodimAtLeastTwo"
    CODIM_ONE = "CodimOne"


def boundary_codim_class(rs: RootSystem, psi_p) -> BoundaryClass:
    """Classify the complement of the open orbit by how the marking meets
    its image under -w_0: fixed marking gives one affine cell, disjoint
    image gives codimension >= 2, partial overlap codimension one."""
    psi_p = Marking(psi_p).validate_on(rs.diagram)
    image = Marking(rs.involution[v - 1] for v in psi_p)
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
    notes: tuple[str, ...]  # degenerate table indices, surfaced instead of guessed


_TABLE_FAMILIES = "BCFG"  # the families with entries in either table


def _local_markings(d: DynkinDiagram, pair_p: Marking, pair_q: Marking):
    """Per factor of a family in `_TABLE_FAMILIES`: (family, rank, local
    psi_p, local psi_q) with node ids shifted to 1..rank."""
    for f, (lo, hi) in zip(d.factors, d.factor_spans):
        if f.family not in _TABLE_FAMILIES:
            continue
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
    mod Q (first matching factor wins on product diagrams): `reduction`'s
    rule with the roles swapped, the p in psi_q and the p next to a
    component of D minus psi_p that meets psi_q, read off the memoised
    `levi_split` of psi_p.
    """
    d = pair.diagram
    if not any(f.family in _TABLE_FAMILIES for f in d.factors):  # no entry can match
        return ExceptionFlags(mok_zhang_exception=False, larger_automorphism_case=None, notes=())
    local = list(_local_markings(d, pair.psi_p, pair.psi_q))
    notes = tuple(f"B{rank} tangency-table entry with i=1 has no node i-1; "
                  "pair left unflagged (see README)"
                  for fam, rank, p, q in local if fam == "B" and p == (1,) and q == (rank,))
    q = set(pair.psi_q)
    # a component's neighbours outside it are in psi_p, as it is maximal
    kept = q.union(*(d.adjacency[v] for comp in levi_split(pair.roots, pair.psi_p)
                     if not q.isdisjoint(comp) for v in comp))
    case = None
    for fam, rank, p, _ in _local_markings(d, [p for p in pair.psi_p if p in kept], ()):
        if fam == "C" and p == (1,):
            case = LargerAutomorphismCase.ODD_SYMPLECTIC_PROJECTIVE
        elif fam == "B" and p == (rank,):
            case = LargerAutomorphismCase.SPINOR_ODD_ORTHOGONAL
        elif fam == "G" and p == (1,):
            case = LargerAutomorphismCase.G2_QUADRIC
        if case is not None:
            break
    return ExceptionFlags(mok_zhang_exception=any(_mok_zhang_factor(*f) for f in local),
                          larger_automorphism_case=case, notes=notes)
