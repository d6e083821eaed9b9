"""Test oracle: the permutation model of a Weyl group.

`perm_tables(rs)` lists the roots of a `parhom.rootweyl.RootSystem`
(positives first, from `positive_roots(rs)`, negatives after in matching
order) and tabulates each
simple reflection as a permutation of that list.  An element is the
permutation row it induces on the root list; its canonical hash key is the
tuple of images of the simple roots, which already determines the element.
Subsets are closed under simple reflections with `permutation_closure`.

The library computes with weight orbits only; the tests check those
results, and the Weyl-order and involution tables, against this model.
Its guard sizes a subgroup from the closed-form order of each family
(`classical_weyl_order`) and the classified subdiagram, so it shares no
code with the library's height product `parhom.rootweyl.weyl_order`.
`dense_positive_root_closure` pairs each root with all n Cartan columns;
the library builds no root list, and counts roots and Weyl orders by a
walk on Dynkin labels (`parhom.rootweyl.levi_walk`).
`orbit_scan_sizes` counts chain levels as masks over the neighbour table
of the whole orbit W/W_P (`lexsort_orbit_neighbours`), closed level by
level under the Q and then the P reflections (`orbit_closure`), where the
library walks a reduced word on keys of the points it has reached.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from parhom.dynkin import DynkinDiagram, Marking, relabel_to_standard
from parhom.rootweyl import DEFAULT_WEYL_LIMIT, GuardLimitError, RootSystem

_EXCEPTIONAL_ORDER = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}

ESTIMATE = "estimated Weyl element count"


def classical_weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return _EXCEPTIONAL_ORDER[(family, rank)]


def levi_generators(d: DynkinDiagram, marking) -> Marking:
    """Unmarked nodes: the simple reflections generating the Levi's Weyl
    subgroup for this marking."""
    marked = set(Marking(marking).validate_on(d))
    return Marking(v for v in range(1, d.n + 1) if v not in marked)


def weyl_order_estimate(d: DynkinDiagram, generators) -> int:
    """Order of the reflection subgroup generated by the given nodes, read
    off the classification of the induced subdiagram."""
    gens = Marking(generators).validate_on(d)
    if not gens:
        return 1
    sub, _ = relabel_to_standard(d, gens)
    return math.prod(classical_weyl_order(f.family, f.rank) for f in sub.factors)


class PermTables:
    """The root list of a root system and its simple reflections as
    permutations of that list."""

    def __init__(self, rs: RootSystem):
        pos = np.array(positive_roots(rs), dtype=np.int64)
        n, m = rs.diagram.n, len(pos)
        coords = np.concatenate([pos, -pos])
        roots = [tuple(int(x) for x in c) for c in coords]
        self.roots = tuple(roots)
        self.root_index = {c: i for i, c in enumerate(roots)}

        size = 2 * m
        dtype = np.int16 if size < 2 ** 15 else np.int32
        # s_i(c) = c - <c, alpha_i^vee> alpha_i, the pairing read off column i
        pairing = coords @ np.array(rs.cartan_rows, dtype=np.int64)
        perms = np.empty((n, size), dtype=dtype)
        for i in range(n):
            images = coords.copy()
            images[:, i] -= pairing[:, i]
            perms[i] = [self.root_index[tuple(int(x) for x in c)] for c in images]
        self.simple_perm = perms
        self.identity_row = np.arange(size, dtype=dtype)
        unit = lambda j: tuple(1 if t == j else 0 for t in range(n))
        self.simple_cols = np.array([self.root_index[unit(j)] for j in range(n)])

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


@lru_cache(maxsize=None)
def positive_roots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The positive roots of `rs`, by the dense closure of its Cartan matrix."""
    return tuple(dense_positive_root_closure(rs.cartan_rows, rs.diagram.n))


@lru_cache(maxsize=None)
def perm_tables(rs: RootSystem) -> PermTables:
    return PermTables(rs)


def permutation_closure(rs: RootSystem, rows: np.ndarray, gen_nodes,
                        side: str = "left", limit: int | None = None) -> np.ndarray:
    """Close a set of permutation rows under multiplication by the given
    simple reflections (side="left": s*w, side="right": w*s).

    Deterministic: the result is returned in canonical key order.  Raises
    GuardLimitError if the closure grows past `limit`.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    t = perm_tables(rs)
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[None, :]
    seen: set[bytes] = set()
    keep = []
    for idx, kb in enumerate(t.key_bytes(rows)):
        if kb not in seen:
            seen.add(kb)
            keep.append(idx)
    rows = rows[keep]
    gens = [t.simple_perm[g - 1] for g in Marking(gen_nodes)]
    blocks = [rows]
    total = len(rows)
    if limit is not None and total > limit:
        raise GuardLimitError(total, limit, ESTIMATE)
    frontier = rows
    while len(frontier) and gens:
        if side == "left":
            cand = np.concatenate([g[frontier] for g in gens])
        else:
            cand = np.concatenate([frontier[:, g] for g in gens])
        fresh = []
        for idx, kb in enumerate(t.key_bytes(cand)):
            if kb not in seen:
                seen.add(kb)
                fresh.append(idx)
        if not fresh:
            break
        frontier = cand[fresh]
        total += len(frontier)
        if limit is not None and total > limit:
            raise GuardLimitError(total, limit, ESTIMATE)
        blocks.append(frontier)
    out = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    return out[t.canonical_order(out)]


def pos_support(rs: RootSystem) -> np.ndarray:
    """Boolean (positive root x node) table: node j+1 in the root's support."""
    return np.array([[x != 0 for x in c] for c in positive_roots(rs)], dtype=bool)


def outside_levi_indices(rs: RootSystem, generators) -> np.ndarray:
    """Positive-root indices whose support leaves the given node set."""
    inside = np.zeros(rs.diagram.n, dtype=bool)
    for v in generators:
        inside[v - 1] = True
    return np.nonzero(pos_support(rs)[:, ~inside].any(axis=1))[0]


class WeylElement:
    """One Weyl group element; `row` is its permutation of the root list."""

    __slots__ = ("rs", "row", "_length")

    def __init__(self, rs: RootSystem, row):
        self.rs = rs
        self.row = np.asarray(row, dtype=perm_tables(rs).identity_row.dtype)
        self._length = None

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, perm_tables(rs).identity_row)

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.row[perm_tables(self.rs).simple_cols])

    @property
    def length(self) -> int:
        if self._length is None:
            m = self.rs.num_positive
            self._length = int((self.row[:m] >= m).sum())
        return self._length

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise ValueError("elements belong to different root systems")
        return WeylElement(self.rs, self.row[other.row])

    def is_identity(self) -> bool:
        return bool((self.row == perm_tables(self.rs).identity_row).all())

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.rs is other.rs
                and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"WeylElement(len={self.length}, key={self.key})"


class WeylSubset:
    """A finite set of Weyl elements, rows kept in canonical key order;
    remembers its generating node set when it is a parabolic subgroup."""

    def __init__(self, rs: RootSystem, rows: np.ndarray,
                 generators_marking: Marking | None = None):
        self.rs = rs
        self.rows = rows
        self.generators_marking = (
            Marking(generators_marking) if generators_marking is not None else None)
        self._keys: frozenset[bytes] | None = None

    def key_set(self) -> frozenset[bytes]:
        if self._keys is None:
            self._keys = frozenset(perm_tables(self.rs).key_bytes(self.rows))
        return self._keys

    def elements(self):
        for row in self.rows:
            yield WeylElement(self.rs, row)

    def __len__(self):
        return len(self.rows)

    def __contains__(self, w: WeylElement):
        return perm_tables(self.rs).key_bytes(w.row[None, :])[0] in self.key_set()

    def __eq__(self, other):
        return (isinstance(other, WeylSubset) and self.rs is other.rs
                and self.key_set() == other.key_set())

    def __repr__(self):
        gen = f", W_I gens={self.generators_marking.render()}" if self.generators_marking else ""
        return f"WeylSubset(|{self.rs.diagram.type_string}| size={len(self)}{gen})"


def enumerate_weyl(rs: RootSystem, generators,
                   weyl_limit: int = DEFAULT_WEYL_LIMIT) -> WeylSubset:
    """The subgroup generated by the simple reflections of the given nodes,
    by breadth-first closure from the identity."""
    gens = Marking(generators).validate_on(rs.diagram)
    est = weyl_order_estimate(rs.diagram, gens)
    if est > weyl_limit:
        raise GuardLimitError(est, weyl_limit, ESTIMATE)
    rows = permutation_closure(rs, perm_tables(rs).identity_row[None, :], gens, "left")
    return WeylSubset(rs, rows, generators_marking=gens)


def longest_element(rs: RootSystem) -> WeylElement:
    """The unique element of length |pos roots|; found by greedily extending
    with any simple reflection that still increases length."""
    m = rs.num_positive
    t = perm_tables(rs)
    row = t.identity_row.copy()
    cols = t.simple_cols
    while True:
        pos = np.nonzero(row[cols] < m)[0]
        if not len(pos):
            return WeylElement(rs, row)
        row = row[t.simple_perm[pos[0]]]


def involution_via_w0(rs: RootSystem) -> dict[int, int]:
    """Node permutation i -> j with a_j = -(w0 applied to a_i)."""
    w0 = longest_element(rs)
    m = rs.num_positive
    cols = perm_tables(rs).simple_cols
    col_of = {int(c): i for i, c in enumerate(cols)}
    out = {}
    for i, c in enumerate(cols):
        img = int(w0.row[c])
        if img < m:
            raise RuntimeError("longest element does not negate a simple root")
        out[i + 1] = col_of[img - m] + 1
    return out


def min_coset_length(w: WeylElement, generators, rs: RootSystem | None = None) -> int:
    """Length of the minimal-length representative of the coset w * W_I,
    counted as the inversions of w outside the W_I root subsystem."""
    rs = rs or w.rs
    gens = Marking(generators).validate_on(rs.diagram)
    outside = outside_levi_indices(rs, tuple(gens))
    if not len(outside):
        return 0
    return int((w.row[outside] >= rs.num_positive).sum())


def product_set(a: WeylSubset, b: WeylSubset,
                weyl_limit: int = DEFAULT_WEYL_LIMIT) -> WeylSubset:
    """{x*y : x in a, y in b} as a set.

    When either side is a parabolic subgroup the product is computed by
    reflection closure of the other side; otherwise pairwise.
    """
    if a.rs is not b.rs:
        raise ValueError("product of subsets over different root systems")
    rs = a.rs
    if b.generators_marking is not None:
        rows = permutation_closure(rs, a.rows, b.generators_marking, "right", limit=weyl_limit)
        return WeylSubset(rs, rows)
    if a.generators_marking is not None:
        rows = permutation_closure(rs, b.rows, a.generators_marking, "left", limit=weyl_limit)
        return WeylSubset(rs, rows)
    t = perm_tables(rs)
    seen: set[bytes] = set()
    blocks = []
    total = 0
    for row in a.rows:
        block = row[b.rows]
        fresh = []
        for i, kb in enumerate(t.key_bytes(block)):
            if kb not in seen:
                seen.add(kb)
                fresh.append(i)
        if fresh:
            total += len(fresh)
            if total > weyl_limit:
                raise GuardLimitError(total, weyl_limit, ESTIMATE)
            blocks.append(block[fresh])
    if not blocks:
        return WeylSubset(rs, a.rows[:0])
    rows = np.concatenate(blocks)
    return WeylSubset(rs, rows[t.canonical_order(rows)])


def dense_positive_root_closure(cart, n) -> list[tuple[int, ...]]:
    """The positive roots of a Cartan matrix by its full pairing: every
    simple reflection applied to every root found, each image paired with
    all n columns, kept when it is new and has no negative coordinate;
    graded by height, then lexicographic."""
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for c in frontier:
            for i in range(n):
                img = list(c)
                img[i] -= sum(c[j] * cart[j][i] for j in range(n))
                img = tuple(img)
                if img not in found and all(x >= 0 for x in img):
                    found.add(img)
                    new.append(img)
        frontier = new
    return sorted(found, key=lambda c: (sum(c), c))


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


def lexsort_orbit_neighbours(rs: RootSystem, marking) -> np.ndarray:
    """The neighbour table of the orbit W/W_P: row x holds, per node i, the
    index of s_i*x.  Points are listed level by level from lambda_P, each
    level the distinct images of the last under the moves with m_i > 0,
    its label rows deduplicated by a lexsort over their columns."""
    n = rs.diagram.n
    level = np.zeros((1, n), dtype=np.int64)
    level[0, [v - 1 for v in Marking(marking).validate_on(rs.diagram)]] = 1
    cartan = np.array(rs.cartan_rows, dtype=np.int64)
    # every point its own neighbour until a move says otherwise
    blocks = [np.zeros((1, n), dtype=np.intp)]
    start = 0
    while True:
        src, gen = np.nonzero(level > 0)
        if not len(src):
            break
        images = level[src] - level[src, gen][:, None] * cartan[gen]
        level, dst = _distinct_rows(images)
        nxt = start + len(blocks[-1])
        blocks[-1][src, gen] = dst + nxt
        ids = np.arange(nxt, nxt + len(level), dtype=np.intp)
        block = np.repeat(ids[:, None], n, axis=1)
        block[dst, gen] = src + start
        blocks.append(block)
        start = nxt
    return np.concatenate(blocks)


def orbit_closure(mask: np.ndarray, neighbours: np.ndarray, gens: np.ndarray,
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
        first = np.ones(len(reached), dtype=bool)
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        frontier = reached[first]
        mask[frontier] = True
        added.append(frontier)
    return np.concatenate(added)


def orbit_scan_sizes(neighbours: np.ndarray, p_gens, q_gens, stabilizer: int,
                     levels: int) -> list[int]:
    """[|S_0|, ..., |S_levels|] on the orbit W/W_P of a neighbour table:
    S_j, a union of cosets w*W_P, as a mask over the orbit points, so
    |S_j| = popcount * |W_P|.  `p_gens` and `q_gens` are the columns of
    the unmarked nodes."""
    p_cols, q_cols = np.array(p_gens, np.intp), np.array(q_gens, np.intp)
    # S_0 = W_P is the single point lambda_P, fixed by every P move
    mask = np.zeros(len(neighbours), dtype=bool)
    mask[0] = True
    fresh = np.zeros(1, dtype=np.intp)
    counts = [1]
    for _ in range(levels):
        # the mask is P-closed, and Q-closed apart from `fresh`
        from_q = orbit_closure(mask, neighbours, q_cols, fresh)
        fresh = np.concatenate([from_q, orbit_closure(mask, neighbours, p_cols, from_q)])
        counts.append(counts[-1] + len(fresh))
    return [count * stabilizer for count in counts]
