"""Test oracle: the permutation model of a Weyl group.

An element is the permutation row it induces on the root list of a
`parhom.rootweyl.RootSystem` (positives first, negatives after in matching
order); its canonical hash key is the tuple of images of the simple roots,
which already determines the element.  Subsets are closed under simple
reflections with `parhom.rootweyl.reflection_closure`.

The library computes with weight orbits only; the tests check those
results, and the Weyl-order and involution tables, against this model.
"""

from __future__ import annotations

import numpy as np

from parhom.dynkin import Marking
from parhom.rootweyl import (GuardLimitError, RootSystem, reflection_closure,
                             resolve_weyl_limit, weyl_order_estimate)


def pos_support(rs: RootSystem) -> np.ndarray:
    """Boolean (positive root x node) table: node j+1 in the root's support."""
    return np.array([[x != 0 for x in c] for c in rs.positive_roots], dtype=bool)


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
        self.row = np.asarray(row, dtype=rs.identity_row.dtype)
        self._length = None

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, rs.identity_row)

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.row[self.rs.simple_cols])

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
        return bool((self.row == self.rs.identity_row).all())

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
            Marking.of(generators_marking) if generators_marking is not None else None)
        self._keys: frozenset[bytes] | None = None

    def key_set(self) -> frozenset[bytes]:
        if self._keys is None:
            self._keys = frozenset(self.rs.key_bytes(self.rows))
        return self._keys

    def elements(self):
        for row in self.rows:
            yield WeylElement(self.rs, row)

    def __len__(self):
        return len(self.rows)

    def __contains__(self, w: WeylElement):
        return self.rs.key_bytes(w.row[None, :])[0] in self.key_set()

    def __eq__(self, other):
        return (isinstance(other, WeylSubset) and self.rs is other.rs
                and self.key_set() == other.key_set())

    def __repr__(self):
        gen = f", W_I gens={self.generators_marking.render()}" if self.generators_marking else ""
        return f"WeylSubset(|{self.rs.diagram.type_string}| size={len(self)}{gen})"


def enumerate_weyl(rs: RootSystem, generators, weyl_limit=None) -> WeylSubset:
    """The subgroup generated by the simple reflections of the given nodes,
    by breadth-first closure from the identity."""
    gens = Marking.of(generators).validate_on(rs.diagram)
    limit = resolve_weyl_limit(weyl_limit)
    est = weyl_order_estimate(rs.diagram, gens)
    if est > limit:
        raise GuardLimitError(est, limit)
    rows = reflection_closure(rs, rs.identity_row[None, :], gens, "left")
    return WeylSubset(rs, rows, generators_marking=gens)


def longest_element(rs: RootSystem) -> WeylElement:
    """The unique element of length |pos roots|; found by greedily extending
    with any simple reflection that still increases length."""
    m = rs.num_positive
    row = rs.identity_row.copy()
    cols = rs.simple_cols
    while True:
        pos = np.nonzero(row[cols] < m)[0]
        if not len(pos):
            return WeylElement(rs, row)
        row = row[rs.simple_perm[pos[0]]]


def involution_via_w0(rs: RootSystem) -> dict[int, int]:
    """Node permutation i -> j with a_j = -(w0 applied to a_i)."""
    w0 = longest_element(rs)
    m = rs.num_positive
    col_of = {int(c): i for i, c in enumerate(rs.simple_cols)}
    out = {}
    for i, c in enumerate(rs.simple_cols):
        img = int(w0.row[c])
        if img < m:
            raise RuntimeError("longest element does not negate a simple root")
        out[i + 1] = col_of[img - m] + 1
    return out


def min_coset_length(w: WeylElement, generators, rs: RootSystem | None = None) -> int:
    """Length of the minimal-length representative of the coset w * W_I,
    counted as the inversions of w outside the W_I root subsystem."""
    rs = rs or w.rs
    gens = Marking.of(generators).validate_on(rs.diagram)
    outside = outside_levi_indices(rs, tuple(gens))
    if not len(outside):
        return 0
    return int((w.row[outside] >= rs.num_positive).sum())


def product_set(a: WeylSubset, b: WeylSubset, weyl_limit=None) -> WeylSubset:
    """{x*y : x in a, y in b} as a set.

    When either side is a parabolic subgroup the product is computed by
    reflection closure of the other side; otherwise pairwise.
    """
    if a.rs is not b.rs:
        raise ValueError("product of subsets over different root systems")
    rs = a.rs
    limit = resolve_weyl_limit(weyl_limit)
    if b.generators_marking is not None:
        rows = reflection_closure(rs, a.rows, b.generators_marking, "right", limit=limit)
        return WeylSubset(rs, rows)
    if a.generators_marking is not None:
        rows = reflection_closure(rs, b.rows, a.generators_marking, "left", limit=limit)
        return WeylSubset(rs, rows)
    seen: set[bytes] = set()
    blocks = []
    total = 0
    for row in a.rows:
        block = row[b.rows]
        fresh = []
        for i, kb in enumerate(rs.key_bytes(block)):
            if kb not in seen:
                seen.add(kb)
                fresh.append(i)
        if fresh:
            total += len(fresh)
            if total > limit:
                raise GuardLimitError(total, limit)
            blocks.append(block[fresh])
    if not blocks:
        return WeylSubset(rs, a.rows[:0])
    rows = np.concatenate(blocks)
    return WeylSubset(rs, rows[rs.canonical_order(rows)])
