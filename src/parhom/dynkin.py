"""Finite-type Dynkin diagrams: parsing, Cartan matrices, the diagram
involution, tree paths, and canonical relabeling of induced subdiagrams.

Numbering is Bourbaki within each factor; product diagrams ("A2xG2")
number nodes consecutively across factors.  `_factor_edges` is the one
definition of each family's diagram (the README repeats it as a table):
an induced subdiagram is classified by matching it against those edges.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache


class DiagramError(ValueError):
    """Malformed diagram string, rank out of bounds, or invalid node id."""


# Largest total rank of a diagram string: positive roots are built in pure
# Python in about cubic time, and `analyze` takes about 0.2 s on B40 or D40.
MAX_RANK = 40


class RankLimitError(RuntimeError):
    """The total rank of a diagram string exceeds MAX_RANK."""

    def __init__(self, rank: str):
        shown = rank if len(rank) <= 24 else f"{rank[:8]}...({len(rank)} digits)"
        super().__init__(f"total rank {shown} exceeds the rank bound {MAX_RANK}")


# Rank bounds keep the seven families non-overlapping: the low-rank
# coincidences (B1=A1, C2=B2, D2=A1xA1, D3=A3) are spelled only one way.
_RANK_MIN = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_RANK_MAX = {"E": 8, "F": 4, "G": 2}

_FACTOR_RE = re.compile(r"^([A-Za-z])0*([0-9]+)$")


@dataclass(frozen=True)
class SimpleFactor:
    family: str
    rank: int

    def __post_init__(self):
        fam = self.family
        if fam not in _RANK_MIN:
            raise DiagramError(f"unknown family {fam!r}")
        lo, hi = _RANK_MIN[fam], _RANK_MAX.get(fam)
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise DiagramError(
                f"rank out of bounds for family {fam}: "
                f"got {fam}{self.rank}, allowed rank {bound}"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Edge:
    """Bond between two nodes; `short` is the endpoint the arrow points to
    (the shorter root) and is None for single bonds."""

    a: int
    b: int
    mult: int = 1
    short: int | None = None


@lru_cache(maxsize=None)
def _factor_edges(factor: SimpleFactor, off: int) -> tuple[Edge, ...]:
    """Bourbaki edges of one factor, nodes off+1 .. off+rank: the only
    definition of each diagram, listed in the order `_orderings` relies on."""
    r = factor.rank
    path = [(i, i + 1, 1, None) for i in range(1, r)]  # (a, b, mult, short end)
    local = {
        "A": path,
        "B": path[:-1] + [(r - 1, r, 2, r)],  # alpha_r short
        "C": path[:-1] + [(r - 1, r, 2, r - 1)],  # alpha_r long
        "D": path[:-1] + [(r - 2, r, 1, None)],
        "E": [(1, 3, 1, None)] + path[2:] + [(2, 4, 1, None)],
        "F": [(1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None)],  # alpha_3, alpha_4 short
        "G": [(1, 2, 3, 1)],  # alpha_1 short
    }[factor.family]
    return tuple(Edge(off + a, off + b, m, None if s is None else off + s)
                 for a, b, m, s in local)


@dataclass(frozen=True)
class DynkinDiagram:
    factors: tuple[SimpleFactor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise DiagramError("diagram needs at least one factor")

    @cached_property
    def n(self) -> int:
        return sum(f.rank for f in self.factors)

    @cached_property
    def factor_spans(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (first, last) global node ids per factor."""
        spans, off = [], 0
        for f in self.factors:
            spans.append((off + 1, off + f.rank))
            off += f.rank
        return tuple(spans)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        out = []
        for f, (lo, _) in zip(self.factors, self.factor_spans):
            out.extend(_factor_edges(f, lo - 1))
        return tuple(out)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for e in self.edges:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    @cached_property
    def type_string(self) -> str:
        return "x".join(str(f) for f in self.factors)

    def check_node(self, v) -> None:
        if not isinstance(v, int) or not 1 <= v <= self.n:
            raise DiagramError(
                f"node {v} out of range ({self.type_string} has nodes 1..{self.n})")

    def __str__(self):
        return self.type_string


class Marking(tuple):
    """Subset of node ids: a tuple kept sorted ascending, without repeats.
    A marking passed in is returned as it is.

    >>> (m := Marking((3, 1, 3))) == (1, 3), Marking(m) is m
    (True, True)
    """

    __slots__ = ()

    def __new__(cls, nodes=()):
        if isinstance(nodes, cls):
            return nodes
        return super().__new__(cls, sorted(set(nodes)))

    @classmethod
    def parse(cls, text: str) -> "Marking":
        """Parse "2,4"-style node lists; "" and "-" denote the empty marking.

        >>> Marking.parse("2,4")
        (2, 4)
        """
        text = text.strip()
        if text in ("", "-"):
            return cls()
        vals = []
        for tok in text.split(","):
            tok = tok.strip()
            m = re.fullmatch(r"0*([0-9]+)", tok)
            if not m:
                raise DiagramError(f"bad marking token {tok!r} (expected integer)")
            if len(m.group(1)) > len(str(MAX_RANK)):
                raise DiagramError(f"node of {len(m.group(1))} digits out of range")
            vals.append(int(m.group(1)))
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise DiagramError(f"marking must list ascending node ids: {text!r}")
        return cls(vals)

    def validate_on(self, d: DynkinDiagram) -> "Marking":
        for v in self:
            d.check_node(v)
        return self

    def union(self, other) -> "Marking":
        return Marking((*self, *other))

    def minus(self, other) -> "Marking":
        drop = set(other)
        return Marking(v for v in self if v not in drop)

    def intersect(self, other) -> "Marking":
        keep = set(other)
        return Marking(v for v in self if v in keep)

    def issubset(self, other) -> bool:
        return set(self).issubset(other)

    def render(self) -> str:
        return ",".join(map(str, self)) if self else "-"


def parse_diagram_spec(text: str) -> DynkinDiagram:
    """Parse a type string like "A3" or "B2xG2" (case-insensitive).

    Raises RankLimitError, before any factor is built, when the total rank
    exceeds MAX_RANK.

    >>> parse_diagram_spec("a2xg2").type_string
    'A2xG2'
    """
    if not isinstance(text, str) or not text.strip():
        raise DiagramError("empty diagram string")
    pieces = []
    for piece in re.split(r"[xX]", text.strip()):
        m = _FACTOR_RE.match(piece)
        if not m:
            raise DiagramError(
                f"syntax error in diagram string at {piece!r} "
                f"(expected FACTOR ('x' FACTOR)*, e.g. 'A3' or 'B2xG2')")
        if len(m.group(2)) > len(str(MAX_RANK)):  # int() never sees a long string
            raise RankLimitError(m.group(2))
        pieces.append((m.group(1).upper(), int(m.group(2))))
    total = sum(rank for _, rank in pieces)
    if total > MAX_RANK:
        raise RankLimitError(str(total))
    return DynkinDiagram(tuple(SimpleFactor(fam, rank) for fam, rank in pieces))


def cartan_matrix(d: DynkinDiagram) -> list[list[int]]:
    """Cartan matrix with entry [i][j] = 2(a_i, a_j)/(a_j, a_j);
    block-diagonal across factors."""
    n = d.n
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in d.edges:
        if e.mult == 1:
            mat[e.a - 1][e.b - 1] = mat[e.b - 1][e.a - 1] = -1
        else:
            long = e.a if e.short == e.b else e.b
            mat[long - 1][e.short - 1] = -e.mult
            mat[e.short - 1][long - 1] = -1
    return mat


def diagram_involution_table(d: DynkinDiagram) -> dict[int, int]:
    """The diagram involution: reversal on A factors, fork swap on odd-rank
    D factors, the order-2 symmetry on E6, identity elsewhere."""
    out = {}
    for f, (lo, hi) in zip(d.factors, d.factor_spans):
        for v in range(lo, hi + 1):
            out[v] = v
        if f.family == "A":
            for i in range(f.rank):
                out[lo + i] = hi - i
        elif f.family == "D" and f.rank % 2 == 1:
            out[hi - 1], out[hi] = hi, hi - 1
        elif f.family == "E" and f.rank == 6:
            out[lo], out[lo + 5] = lo + 5, lo
            out[lo + 2], out[lo + 4] = lo + 4, lo + 2
    return out


def tree_path(d: DynkinDiagram, a: int, b: int) -> list[int] | None:
    """Unique simple path from a to b (inclusive), or None if the nodes lie
    in different factors, which no edge joins.

    >>> tree_path(parse_diagram_spec("A4"), 1, 4)
    [1, 2, 3, 4]
    """
    d.check_node(a)
    d.check_node(b)
    parent: dict[int, int | None] = {a: None}
    dq = deque([a])
    while dq:
        v = dq.popleft()
        if v == b:
            break
        for w in d.adjacency[v]:
            if w not in parent:
                parent[w] = v
                dq.append(w)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def induced_components(d: DynkinDiagram, nodes) -> list[list[int]]:
    """Connected components of the induced subgraph, each sorted, ordered by
    smallest member."""
    node_set = set(Marking(nodes).validate_on(d))
    seen: set[int] = set()
    comps = []
    for v in sorted(node_set):
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in d.adjacency[u]:
                if w in node_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


@lru_cache(maxsize=None)
def _orderings(d: DynkinDiagram, comp: tuple[int, ...]):
    """(SimpleFactor, orderings) for a connected induced subgraph: one
    ordering per isomorphism onto the factor's edge table, index i holding
    the old node id relabeled i+1.  A bond is matched by its two Cartan
    entries, C[u][v] and C[v][u], which fix multiplicity and arrow.  Cached
    per node set, so all tuples."""
    comp_set = set(comp)
    cart = cartan_matrix(d)
    k = len(comp)
    for fam, lo in _RANK_MIN.items():
        if not lo <= k <= _RANK_MAX.get(fam, k):
            continue
        factor = SimpleFactor(fam, k)
        edges = _factor_edges(factor, 0)
        want = cartan_matrix(DynkinDiagram((factor,)))
        # Each edge, in table order, meets a node placed by an earlier edge
        # (node 1 for the first): true of all seven tables, E's 2-4 included.
        # So each edge places one new node, and as both graphs are trees on
        # k nodes, a bijection keeping the k-1 bonds is an isomorphism.
        maps = [{1: v} for v in comp]
        for e in edges:
            grown = []
            for m in maps:
                old, new = (e.a, e.b) if e.a in m else (e.b, e.a)
                u = m[old]
                grown.extend({**m, new: w} for w in d.adjacency[u]
                             if w in comp_set and w not in m.values()
                             and cart[u - 1][w - 1] == want[old - 1][new - 1]
                             and cart[w - 1][u - 1] == want[new - 1][old - 1])
            maps = grown
        if maps:
            return factor, tuple(tuple(m[i] for i in range(1, k + 1)) for m in maps)
    raise DiagramError("induced subgraph is not of finite type")


def relabel_to_standard(d: DynkinDiagram, nodes, marking=()):
    """Canonical finite-type diagram on an induced node set.

    Returns (DynkinDiagram, old->new id map); (None, {}) for the empty set.
    Factors appear in order of smallest old node id.  Among the valid
    Bourbaki labelings of each component, picks the one whose relabeled
    marking is lexicographically smallest (ties: smallest old-id sequence).
    """
    node_list = Marking(nodes)
    if not node_list:
        return None, {}
    mark_set = set(marking)
    factors, mapping, off = [], {}, 0

    def key(ordering):
        marks = tuple(sorted(pos + 1 for pos, v in enumerate(ordering) if v in mark_set))
        return (marks, ordering)

    for comp in induced_components(d, node_list):
        factor, orderings = _orderings(d, tuple(comp))
        best = min(orderings, key=key)
        for pos, old in enumerate(best):
            mapping[old] = off + pos + 1
        factors.append(factor)
        off += factor.rank
    return DynkinDiagram(tuple(factors)), mapping
