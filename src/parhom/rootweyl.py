"""Root systems, Weyl-group orders and weight orbits.

Roots are integer coordinate vectors in the simple-root basis, positives
listed first (graded by height, then lexicographic) with negatives after
in matching order.  `RootSystem` also tabulates each simple reflection as
a permutation of that list, and `reflection_closure` closes a set of such
permutation rows under simple reflections.  The permutation model of W
built on them is a test oracle (`tests/weyl_oracle.py`); the library
computes on weight orbits only.

The orbit of a dominant weight lambda_P = sum of the fundamental weights
of a marking is W/W_P written out as Dynkin-label vectors, with a table of
simple-reflection neighbours; the chain scan runs on it.

Orbits and closures run behind a guard limit (default 10**6 elements, env
PARHOM_WEYL_LIMIT) so desk-scale runs stay desk-scale.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .dynkin import DynkinDiagram, Marking, cartan_matrix, relabel_to_standard

DEFAULT_WEYL_LIMIT = 10 ** 6
LIMIT_ENV = "PARHOM_WEYL_LIMIT"

_EXCEPTIONAL_ORDER = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


class GuardLimitError(RuntimeError):
    """Raised when a Weyl group, orbit, closure or sweep would exceed the
    guard; `quantity` names what was counted."""

    def __init__(self, estimated: int, limit: int,
                 quantity: str = "estimated Weyl element count"):
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


def classical_weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return _EXCEPTIONAL_ORDER[(family, rank)]


def weyl_order(d: DynkinDiagram) -> int:
    out = 1
    for f in d.factors:
        out *= classical_weyl_order(f.family, f.rank)
    return out


def weyl_order_estimate(d: DynkinDiagram, generators) -> int:
    """Order of the reflection subgroup generated by the given nodes, read
    off the classification of the induced subdiagram."""
    gens = Marking.of(generators).validate_on(d)
    if not gens:
        return 1
    sub, _ = relabel_to_standard(d, gens)
    return weyl_order(sub)


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
    """Positive roots plus simple-reflection action tables for a diagram,
    and the memo tables of the per-pair functions."""

    def __init__(self, diagram: DynkinDiagram):
        self.diagram = diagram
        n = diagram.n
        cart = cartan_matrix(diagram)
        pos = _positive_root_closure(cart, n)
        self.positive_roots = tuple(pos)
        m = len(pos)
        self.num_positive = m
        roots = pos + [tuple(-x for x in c) for c in pos]
        self.roots = tuple(roots)
        self.root_index = {c: i for i, c in enumerate(roots)}

        size = 2 * m
        dtype = np.int16 if size < 2 ** 15 else np.int32
        perms = np.empty((n, size), dtype=dtype)
        for i in range(n):
            for r, c in enumerate(roots):
                perms[i, r] = self.root_index[_reflect(c, i, cart, n)]
        self.simple_perm = perms
        self.identity_row = np.arange(size, dtype=dtype)
        unit = lambda j: tuple(1 if t == j else 0 for t in range(n))
        self.simple_cols = np.array([self.root_index[unit(j)] for j in range(n)])
        self.cartan = np.array(cart, dtype=np.int16)
        self._orbit: WeightOrbit | None = None
        # bit v-1 set iff node v is in the root's support
        self.support_masks = tuple(sum(1 << j for j, x in enumerate(c) if x) for c in pos)
        # memo tables of `geometry.dim_flag`, `levi_split` and `cycle_descriptor`
        self.flag_dims, self.levi_splits, self.cycles = {}, {}, {}

    def key_bytes(self, rows: np.ndarray) -> list[bytes]:
        """One hashable key per row: the images of the simple roots."""
        sub = np.ascontiguousarray(rows[:, self.simple_cols])
        step = sub.shape[1] * sub.itemsize
        buf = sub.tobytes()
        return [buf[i * step:(i + 1) * step] for i in range(sub.shape[0])]

    def canonical_order(self, rows: np.ndarray) -> np.ndarray:
        """Indices sorting rows by their key columns, lexicographically."""
        sub = rows[:, self.simple_cols]
        return np.lexsort(sub.T[::-1])

    def weight_orbit(self, marking) -> "WeightOrbit":
        """The orbit of lambda_P for this marking.  The last one built is
        kept, so a sweep over psi_q for one psi_p builds it once."""
        key = tuple(Marking.of(marking))
        if self._orbit is None or self._orbit.marking != key:
            self._orbit = None  # release the old orbit before building
            self._orbit = WeightOrbit(self, key)
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
    one, so `depth[x]` is that length and does not decrease with x.
    `neighbours[x, i]` is the index of s_{i+1}*x: x itself when
    m_{i+1} = 0, otherwise the other end of an upward move.
    """

    def __init__(self, rs: RootSystem, marking: tuple[int, ...]):
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
        self.depth = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        self.neighbours = np.concatenate(blocks)

    def __len__(self):
        return len(self.depth)


@lru_cache(maxsize=None)
def generate_roots(d: DynkinDiagram) -> RootSystem:
    return RootSystem(d)


def reflection_closure(rs: RootSystem, rows: np.ndarray, gen_nodes,
                       side: str = "left", limit: int | None = None) -> np.ndarray:
    """Close a set of permutation rows under multiplication by the given
    simple reflections (side="left": s*w, side="right": w*s).

    Deterministic: the result is returned in canonical key order.  Raises
    GuardLimitError if the closure grows past `limit`.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[None, :]
    seen: set[bytes] = set()
    keep = []
    for idx, kb in enumerate(rs.key_bytes(rows)):
        if kb not in seen:
            seen.add(kb)
            keep.append(idx)
    rows = rows[keep]
    gens = [rs.simple_perm[g - 1] for g in Marking.of(gen_nodes)]
    blocks = [rows]
    total = len(rows)
    if limit is not None and total > limit:
        raise GuardLimitError(total, limit)
    frontier = rows
    while len(frontier) and gens:
        if side == "left":
            cand = np.concatenate([g[frontier] for g in gens])
        else:
            cand = np.concatenate([frontier[:, g] for g in gens])
        fresh = []
        for idx, kb in enumerate(rs.key_bytes(cand)):
            if kb not in seen:
                seen.add(kb)
                fresh.append(idx)
        if not fresh:
            break
        frontier = cand[fresh]
        total += len(frontier)
        if limit is not None and total > limit:
            raise GuardLimitError(total, limit)
        blocks.append(frontier)
    out = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    return out[rs.canonical_order(out)]
