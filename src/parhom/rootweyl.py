"""Root systems, Weyl-group orders and the weight-orbit scan.

No root list is built.  One walk on Dynkin labels (`descend`) gives the
Weyl facts a report needs: from rho over the nodes outside a marking it
negates the heights of the Levi's positive coroots, so its moves give dim
G/P and Macdonald's product over those heights |W_P| (`levi_walk`), with
no classification of the diagram.  W/W_P is the orbit of lambda_P = sum of
the fundamental weights of a marking.  The chain scan (`orbit_counts`)
counts the sizes it has no closed form for on the points of W_R/W_P it
reaches, held as packed keys, with one `reflection_closure` per letter of
a reduced word; no orbit table is built.  Oracles: the permutation model
of W, the lexsort table of W/W_P with its mask scan, and the dense root
closure (`tests/weyl_oracle.py`).  numpy is imported here only, by the
scan, so it loads only to count a chain level strictly between W_P and W_R
(`analyze --chain-length`, JSON chain sweeps).

A scan runs behind a guard limit on the |W_R/W_P| points it would hold
(default 10**6), checked by `connectivity.chain_analysis` before anything
is allocated; only the CLI reads PARHOM_WEYL_LIMIT.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING

from .dynkin import DynkinDiagram, Marking, cartan_matrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_WEYL_LIMIT = 10 ** 6


class GuardLimitError(RuntimeError):
    """Raised when a scanned orbit or a sweep would exceed the guard;
    `quantity` names what was counted."""

    def __init__(self, estimated: int, limit: int, quantity: str):
        super().__init__(f"{quantity} {estimated} exceeds guard limit {limit}")
        self.estimated = estimated
        self.limit = limit


class RootSystem:
    """Cartan matrix of a diagram, its number of positive roots, its
    diagram involution -w_0, and the memo tables of the per-marking
    functions.  Nothing keyed by a pair is stored here."""

    def __init__(self, diagram: DynkinDiagram):
        self.diagram = diagram
        n = diagram.n
        cart = cartan_matrix(diagram)
        self.cartan_rows = cart
        # per node i, the (j, C[i][j]) of its neighbours j
        self.moves = tuple(tuple((j, c) for j, c in enumerate(row) if c and j != i)
                           for i, row in enumerate(cart))
        # the walk from the labels (1, ..., n), dominant and regular, to their
        # w_0 image: one move per positive root, and it ends at -iota(j) at j
        labels = list(range(1, n + 1))
        self.num_positive = len(descend(self, labels, range(n), []))
        self.involution = tuple(-x for x in labels)  # iota(j) at index j - 1
        # memo tables of `levi_walk`, `levi_split`, `cycle_descriptor`
        self.levi_walks, self.levi_splits, self.cycles = {}, {}, {}

    def __repr__(self):
        return f"RootSystem({self.diagram.type_string}, |pos|={self.num_positive})"


@lru_cache(maxsize=None)
def generate_roots(d: DynkinDiagram) -> RootSystem:
    return RootSystem(d)


def descend(rs: RootSystem, m: list[int], gens, word: list[int]) -> list[int]:
    """Apply s_i to the Dynkin labels `m` in place, m_j -> m_j - m_i*C[i][j],
    while some i in `gens` has m_i > 0, appending each i to `word`, a
    reduced word.  Returns the labels negated, in order: a walk from a
    dominant lambda ends at w_0(I)*lambda, I the nodes of `gens`, and
    negates each <lambda, beta^v> > 0 over the positive coroots of I once.
    From rho (every label 1) those are the heights of the coroots."""
    moves = rs.moves
    negated, before = [], -1
    while len(word) != before:
        before = len(word)
        for i in gens:
            if (mi := m[i]) > 0:
                negated.append(mi)
                m[i] = -mi
                for j, c in moves[i]:
                    m[j] -= mi * c
                word.append(i)
    return negated


def levi_walk(rs: RootSystem, psi: Marking) -> tuple[int, int]:
    """(dim G/P, |W_P|) of the marking psi, from the walk of rho over the
    nodes outside psi, the Levi's: it makes one move per positive root of
    the Levi, and |W_P| is Macdonald's product of (h + 1) / h over the
    heights h it negates, those of the Levi's positive coroots, whose Weyl
    group is W_P too.  Stored per marking in `rs.levi_walks`."""
    n = rs.diagram.n
    marked = psi.validate_on(rs.diagram)
    heights = descend(rs, [1] * n, [i for i in range(n) if i + 1 not in marked], [])
    walk = rs.levi_walks[psi] = (rs.num_positive - len(heights),
                                 prod(h + 1 for h in heights) // prod(heights))
    return walk


def diagram_involution_table(rs: RootSystem) -> dict[int, int]:
    """The diagram involution -w_0, i -> j where w_0(a_i) = -a_j, as a new
    dict: `rs.involution`, read off the walk that counts |Phi+|.

    >>> from parhom import parse_diagram_spec
    >>> diagram_involution_table(generate_roots(parse_diagram_spec("E6")))
    {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    """
    return dict(enumerate(rs.involution, 1))


def weyl_order(rs: RootSystem, psi=()) -> int:
    """Order of the Weyl group W_P of the Levi of marking psi, so |W| for
    the empty marking (`levi_walk`).

    >>> from parhom import parse_diagram_spec
    >>> [weyl_order(generate_roots(parse_diagram_spec("E8")), psi) for psi in ((), [4])]
    [696729600, 1440]
    """
    psi = Marking(psi)
    walk = rs.levi_walks.get(psi)
    if walk is None:
        walk = levi_walk(rs, psi)
    return walk[1]


# bench/tracer.py times the chain scan's letters by wrapping this name
def reflection_closure(m: np.ndarray, keys: np.ndarray, step: int | np.ndarray) -> np.ndarray:
    """The keys of the images s_a*x of the points x of `keys` with m_a > 0
    (`m` holds m_a per point) that are not points themselves.  The points
    are those added to a set since it was last s_a-closed, so an image is
    never an earlier point, as s_a maps those among themselves, and an image
    that is a point has m_a < 0.  Keys and `step`, the key of s_a's move
    per unit of m_a, are laid out as in `orbit_counts`.  Flat keys are
    tagged (2*key, 2*image + 1) and sorted once; rows with `lexsort`."""
    import numpy as np
    up = m > 0
    if keys.ndim == 1:
        tagged = np.maximum(m, 0)
        tagged *= step
        np.subtract(keys, tagged, out=tagged)  # the images in place of the points moved
        tagged <<= 1
        tagged |= up
        tagged.sort()  # an image sorts just after an equal point
        new = (tagged & 1).astype(bool)
        new[1:] &= tagged[1:] - 1 != tagged[:-1]
        return tagged[new] >> 1
    keys = keys - np.maximum(m, 0)[:, None] * step
    order = np.lexsort((up, *keys.T[::-1]))
    keys, new = keys[order], up[order]
    new[1:] &= (keys[1:] != keys[:-1]).any(axis=1)
    return keys[new]


def orbit_counts(rs: RootSystem, psi_p, letters: list[int], ends: list[int],
                 size: int) -> tuple[int, ...]:
    """The point count of U_k at each k in `ends`, then the count reached:
    U_0 = {lambda_P}, the weight of `psi_p`, and U_k = U_{k-1} | s_a*U_{k-1}
    for the k-th letter a (a node index) of `letters`.  The letters must
    end at w_0(R), so U ends with `size` = |W_R/W_P| points; nothing is
    written past them, and a count past `size` is returned.

    The key layout.  A point is its Dynkin-label vector m, and s_a maps it
    to m_j - m_a*C[a][j].  Its key holds the digits m_j + M, node 1 first,
    each `bits` = bit_length(2M) wide, in as many words below 2**62 as n
    digits need, where M bounds every |m_j|: the largest label the walk
    from lambda_P to w_0*lambda_P negates (`descend`).  So m_a is (key >>
    shift_a & mask) - M, and s_a moves a key by -m_a times the key of row a
    of C.  When one word holds all n digits (every exceptional diagram at
    any psi_p), the keys are a flat array; else rows, one column per word.
    The points are kept in the order added.  U is s_a-closed after each
    letter a, so the next a reads only the points added since
    (`reflection_closure`).

    >>> from parhom import parse_diagram_spec
    >>> orbit_counts(generate_roots(parse_diagram_spec("A2")), [1], [0, 1], [1], 3)
    (2, 3)
    """
    import numpy as np
    n = rs.diagram.n
    labels = np.bincount([v - 1 for v in psi_p], minlength=n)  # lambda_P's
    bound = max(descend(rs, labels.tolist(), range(n), []), default=0)
    bits = (2 * bound).bit_length()
    mask = (1 << bits) - 1
    width = min(n, 62 // bits)  # digits per word
    shifts = [bits * (width - 1 - j % width) for j in range(n)]
    place = np.zeros((n, -(-n // width)), dtype=np.int64)  # a row per node, a column per word
    for j in range(n):
        place[j, j // width] = 1 << shifts[j]
    if width == n:
        place = place[:, 0]  # flat keys
    steps = np.array(rs.cartan_rows, dtype=np.int64) @ place  # int64 wraps, but every key fits
    keys = np.empty((size, *place.shape[1:]), dtype=np.int64)
    keys[0] = (labels + bound) @ place
    closed = [0] * n  # per node a: the point count when U was last s_a-closed
    count, counts = 1, []
    for k, a in enumerate(letters, 1):
        if closed[a] < count:  # else U is still s_a-closed
            rows = keys[closed[a]:count]
            m = (rows if width == n else rows[:, a // width]) >> shifts[a] & mask
            m -= bound
            new = reflection_closure(m, rows, steps[a])
            end = count + len(new)
            if end > size:  # stop before writing past the keys
                return (*counts, end)
            keys[count:end] = new
            count = closed[a] = end
        if k in ends:
            counts.append(count)
    return (*counts, count)
