"""Root systems, Weyl-group orders and weight orbits.

Positive roots are integer coordinate vectors in the simple-root basis,
graded by height, then lexicographic.  Weyl-group orders are read off
their heights (`weyl_order`), with no classification of the diagram.  W/W_P
is the orbit of lambda_P = sum of the fundamental weights of a marking:
label vectors deduplicated per level on packed keys, and a neighbour table
filled in place, where the chain scan counts sizes (`reflection_closure`).
Oracles: the permutation model of W and the lexsort build (`tests/weyl_oracle.py`).

Orbits run behind a guard limit (default 10**6 points, env
PARHOM_WEYL_LIMIT) so desk-scale runs stay desk-scale.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
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

    @cached_property
    def positive_coroots(self) -> np.ndarray:
        """The positive roots of the transposed Cartan matrix, one per row."""
        dual = self.cartan.T
        return np.array(self.positive_roots if (dual == self.cartan).all()
                        else _positive_root_closure(dual.tolist(), self.diagram.n))

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


class WeightOrbit:
    """The orbit W*lambda of lambda = sum of the fundamental weights of the
    marked nodes: one point per coset w*W_P, where W_P is generated by the
    unmarked nodes.

    A point is its Dynkin-label vector m, and the simple reflection s_i
    maps it to m_j - m_i*C[i][j].  Points are listed level by level from
    lambda, each level the images of the previous one under the s_i with
    m_i > 0, in lexicographic order of m.  Such a move lengthens the
    minimal coset representative by one, so a level holds the cosets of one
    length.  `neighbours[x, i]` is the index of s_{i+1}*x: x itself when
    m_{i+1} = 0, otherwise the other end of an upward move.

    A level is deduplicated on exact keys: the digits m_j + M of radix 2M+1,
    column 0 first, in as many int64 words as n digits need, where M, the
    largest <lambda, beta^v> over positive coroots, bounds every |m_j|.  The
    |W|/|W_P| table rows are filled in place; `len` counts the points found.
    """

    def __init__(self, rs: RootSystem, marking: Marking):
        n = rs.diagram.n
        cols = [v - 1 for v in marking]
        # M <= the highest root's height, < 80 at rank <= 40: int16 holds labels
        bound = int(rs.positive_coroots[:, cols].sum(axis=1).max())
        level = np.zeros((1, n), dtype=np.int16)
        level[0, cols] = 1
        radix = 2 * bound + 1
        width = next(w for w in range(n, 0, -1) if radix ** w <= 1 << 63)
        place = np.zeros((-(-n // width), n), dtype=np.int64)  # one row per word
        for j in range(n):
            place[j // width, j] = radix ** (width - 1 - j % width)
        # s_i moves a key by -m_i * column i; int64 wraps, but every key fits
        steps = place @ rs.cartan.T.astype(np.int64)
        keys = place @ (level[0] + bound).astype(np.int64)[:, None]  # column x: key(x)
        size = weyl_order(rs.diagram) // weyl_order(rs.diagram, marking)
        table = np.empty((size, n), dtype=np.intp)
        flat = table.reshape(-1)
        table[0] = 0
        start, count = 0, 1  # the first row of the last level; the points found
        while True:
            up = np.flatnonzero(level > 0)  # the moves x*n + i with m_i > 0
            if not len(up):
                break
            src, gen = np.divmod(up, n)
            mi = level.reshape(-1).take(up)
            images = keys.take(src, 1) - mi * steps.take(gen, 1)
            order = np.argsort(images[0]) if len(images) == 1 else np.lexsort(images[::-1])
            images, src, gen, mi = images.take(order, 1), src[order], gen[order], mi[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (images[:, 1:] != images[:, :-1]).any(axis=0)
            dst = np.cumsum(first) + (count - 1)
            rep = np.flatnonzero(first)  # one move onto each new point
            if count + len(rep) > size:  # stop before writing past the table
                count += len(rep)
                break
            keys = images.take(rep, 1)
            level = level.take(src[rep], 0) - mi[rep][:, None] * rs.cartan.take(gen[rep], 0)
            table[count:count + len(rep)] = np.arange(count, count + len(rep))[:, None]
            src += start
            flat[src * n + gen] = dst
            flat[dst * n + gen] = src
            start, count = count, count + len(rep)
        self.marking = marking
        self.scans = {}  # (psi_q, max_k) -> one scan (`connectivity._scan`)
        self.points = count
        self.neighbours = table[:count]

    def __len__(self):
        return self.points


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
