"""Root systems, Weyl-group orders and weight orbits.

Positive roots are integer coordinate vectors in the simple-root basis,
graded by height, then lexicographic.  Weyl-group orders are read off
their heights (`weyl_order`), with no classification of the diagram.  The
library models W/W_P as the orbit of the dominant weight lambda_P = sum of
the fundamental weights of a marking: Dynkin-label vectors with a table of
simple-reflection neighbours, on which the chain scan counts its sizes
with `reflection_closure` (`scans` keeps them).  The permutation model of W
and the closed-form order table are test oracles (`tests/weyl_oracle.py`).

Orbits run behind a guard limit (default 10**6 points, env
PARHOM_WEYL_LIMIT) so desk-scale runs stay desk-scale.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import prod

import numpy as np

from .dynkin import DynkinDiagram, Marking, cartan_matrix

DEFAULT_WEYL_LIMIT = 10 ** 6
LIMIT_ENV = "PARHOM_WEYL_LIMIT"


class GuardLimitError(RuntimeError):
    """Raised when a Weyl group, orbit, closure or sweep would exceed the
    guard; `quantity` names what was counted."""

    def __init__(self, estimated: int, limit: int, quantity: str):
        super().__init__(
            f"{quantity} {estimated} exceeds guard limit "
            f"{limit}; raise --weyl-limit or {LIMIT_ENV}")
        self.estimated = estimated
        self.limit = limit


def resolve_weyl_limit(explicit=None) -> int:
    """`explicit` if given, else PARHOM_WEYL_LIMIT, else the default.
    Raises ValueError when the env value is not an integer >= 1."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(LIMIT_ENV)
    if not env:
        return DEFAULT_WEYL_LIMIT
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{LIMIT_ENV} must be an integer >= 1, got {env!r}")
    return value


def _reflect(coords, i, cart, n):
    pairing = sum(coords[j] * cart[j][i] for j in range(n))
    out = list(coords)
    out[i] -= pairing
    return tuple(out)


def _positive_root_closure(cart, n):
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for c in frontier:
            for i in range(n):
                img = _reflect(c, i, cart, n)
                if img not in found and all(x >= 0 for x in img):
                    found.add(img)
                    new.append(img)
        frontier = new
    return sorted(found, key=lambda c: (sum(c), c))


class RootSystem:
    """Positive roots and Cartan matrix of a diagram, the orbit of the last
    marking asked for, and the memo tables of the per-pair functions."""

    def __init__(self, diagram: DynkinDiagram):
        self.diagram = diagram
        n = diagram.n
        cart = cartan_matrix(diagram)
        pos = _positive_root_closure(cart, n)
        self.positive_roots = tuple(pos)
        self.num_positive = len(pos)
        self.cartan = np.array(cart, dtype=np.int16)
        # per node i, the (j, C[i][j]) of its neighbours j
        self.moves = tuple(tuple((j, c) for j, c in enumerate(row) if c and j != i)
                           for i, row in enumerate(cart))
        self._orbit: WeightOrbit | None = None
        # bit v-1 set iff node v is in the root's support
        self.support_masks = tuple(sum(1 << j for j, x in enumerate(c) if x) for c in pos)
        # memo tables of `dim_flag`, `levi_split`, `cycle_descriptor`, `weyl_order`
        self.flag_dims, self.levi_splits, self.cycles, self.weyl_orders = {}, {}, {}, {}

    def weight_orbit(self, marking) -> "WeightOrbit":
        """The orbit of lambda_P for this marking, validated on the diagram.
        The last one built is kept, so a sweep over psi_q for one psi_p
        builds it once."""
        marking = Marking(marking)
        if self._orbit is None or self._orbit.marking != marking:
            self._orbit = None  # release the old orbit before building
            self._orbit = WeightOrbit(self, marking.validate_on(self.diagram))
        return self._orbit

    def __repr__(self):
        return f"RootSystem({self.diagram.type_string}, |pos|={self.num_positive})"


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows in lexicographic order, the index of each input
    row among them)."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


class WeightOrbit:
    """The orbit W*lambda of lambda = sum of the fundamental weights of the
    marked nodes: one point per coset w*W_P, where W_P is generated by the
    unmarked nodes.

    A point is its Dynkin-label vector m, and the simple reflection s_i
    maps it to m_j - m_i*C[i][j].  Points are listed level by level from
    lambda, each level the images of the previous one under the s_i with
    m_i > 0.  Such a move lengthens the minimal coset representative by
    one, so a level holds the cosets of one length.  `neighbours[x, i]`
    is the index of s_{i+1}*x: x itself when m_{i+1} = 0, otherwise the
    other end of an upward move.
    """

    def __init__(self, rs: RootSystem, marking: Marking):
        n = rs.diagram.n
        # |m_j| <= <lambda, highest coroot>, at most 6 per marked node, so
        # int16 holds the labels of any orbit that fits in memory
        level = np.zeros((1, n), dtype=np.int16)
        level[0, [v - 1 for v in marking]] = 1
        # one block of neighbour rows per level, every point its own
        # neighbour until a move says otherwise
        blocks = [np.zeros((1, n), dtype=np.intp)]
        start = 0
        while True:
            src, gen = np.nonzero(level > 0)
            if not len(src):
                break
            images = level[src] - level[src, gen][:, None] * rs.cartan[gen]
            level, dst = _distinct_rows(images)
            nxt = start + len(blocks[-1])
            blocks[-1][src, gen] = dst + nxt
            ids = np.arange(nxt, nxt + len(level), dtype=np.intp)
            block = np.repeat(ids[:, None], n, axis=1)
            block[dst, gen] = src + start
            blocks.append(block)
            start = nxt
        self.marking = marking
        self.scans = {}  # (psi_q, max_k) -> one scan (`connectivity._scan`)
        self.neighbours = np.concatenate(blocks)

    def __len__(self):
        return len(self.neighbours)


@lru_cache(maxsize=None)
def generate_roots(d: DynkinDiagram) -> RootSystem:
    return RootSystem(d)


def weyl_order(d: DynkinDiagram, psi=()) -> int:
    """Order of the Weyl group W_P of the Levi of marking psi, so |W| for
    the empty marking.  Macdonald's product over the Levi's positive roots
    (those whose support misses psi) of (height + 1) / height.  Memoised
    per marking on the diagram's root system.

    >>> from parhom import parse_diagram_spec
    >>> weyl_order(parse_diagram_spec("E8")), weyl_order(parse_diagram_spec("E8"), [4])
    (696729600, 1440)
    """
    psi = Marking(psi)
    rs = generate_roots(d)
    order = rs.weyl_orders.get(psi)
    if order is None:
        mask = sum(1 << (v - 1) for v in psi.validate_on(d))
        heights = [sum(root) for root, support in zip(rs.positive_roots, rs.support_masks)
                   if not support & mask]
        order = rs.weyl_orders[psi] = prod(h + 1 for h in heights) // prod(heights)
    return order


# bench/tracer.py times the chain scan's closures by wrapping this name
def reflection_closure(mask: np.ndarray, neighbours: np.ndarray, gens: np.ndarray,
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
        first = np.ones(len(reached), dtype=bool)
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        frontier = reached[first]
        mask[frontier] = True
        added.append(frontier)
    return np.concatenate(added)
