"""Root systems, Weyl-group orders and the step of the weight-orbit scan.

Positive roots are integer coordinate vectors in the simple-root basis,
graded by height, then lexicographic.  Weyl-group orders are read off
their heights (`weyl_order`), with no classification of the diagram.  W/W_P
is the orbit of lambda_P = sum of the fundamental weights of a marking.
The chain scan (`connectivity._scan`) counts the sizes it has no closed
form for on the points of W_R/W_P it reaches, held as packed keys, with
one `reflection_closure` per letter of a reduced word; no orbit table is
built.  Oracles: the permutation model of W, the lexsort table of W/W_P
with its mask scan, and the dense root closure (`tests/weyl_oracle.py`).
numpy is imported by the scan only, so it loads only to count a chain
level strictly between W_P and W_R (`analyze --chain-length`, JSON chain
sweeps).

Chain scans run behind a guard limit on |W/W_P| (default 10**6 points, env
PARHOM_WEYL_LIMIT) so desk-scale runs stay desk-scale.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from math import prod
from typing import TYPE_CHECKING

from .dynkin import DynkinDiagram, Marking, cartan_matrix

if TYPE_CHECKING:
    import numpy as np

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


def _positive_root_closure(cart, n):
    # per node i, the (j, C[j][i]) with C[j][i] != 0: i and its neighbours
    cols = [[(j, row[i]) for j, row in enumerate(cart) if row[i]] for i in range(n)]
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for c in frontier:
            for i, col in enumerate(cols):
                # s_i moves coordinate i only.  Every positive root lies on a
                # chain of simple reflections from a simple root along which
                # the height increases, so only upward images are needed
                # (top > c[i] >= 0)
                top = c[i] - sum(c[j] * a for j, a in col)
                if top > c[i] and (img := c[:i] + (top,) + c[i + 1:]) not in found:
                    found.add(img)
                    new.append(img)
        frontier = new
    return sorted(found, key=lambda c: (sum(c), c))


class RootSystem:
    """Positive roots and Cartan matrix of a diagram, and the memo tables of
    the per-pair functions and of the chain scan."""

    def __init__(self, diagram: DynkinDiagram):
        self.diagram = diagram
        n = diagram.n
        cart = cartan_matrix(diagram)
        pos = _positive_root_closure(cart, n)
        self.positive_roots = tuple(pos)
        self.num_positive = len(pos)
        self.cartan_rows = cart
        # per node i, the (j, C[i][j]) of its neighbours j
        self.moves = tuple(tuple((j, c) for j, c in enumerate(row) if c and j != i)
                           for i, row in enumerate(cart))
        # (psi_p, psi_q, max_k) -> scanned sizes, of the last psi_p only (`chain_analysis`)
        self.scans: dict[tuple, tuple] = {}
        # bit v-1 set iff node v is in the root's support
        self.support_masks = tuple(sum(1 << j for j, x in enumerate(c) if x) for c in pos)
        # memo tables of `dim_flag`, `levi_split`, `cycle_descriptor`, `weyl_order`
        self.flag_dims, self.levi_splits, self.cycles, self.weyl_orders = {}, {}, {}, {}

    @cached_property
    def cartan(self) -> np.ndarray:
        """`cartan_rows` as an int16 array, for the chain scan."""
        import numpy as np
        return np.array(self.cartan_rows, dtype=np.int16)

    @cached_property
    def positive_coroots(self) -> np.ndarray:
        """The positive roots of the transposed Cartan matrix, one per row."""
        import numpy as np
        dual = [list(col) for col in zip(*self.cartan_rows)]
        return np.array(self.positive_roots if dual == self.cartan_rows
                        else _positive_root_closure(dual, self.diagram.n))

    def __repr__(self):
        return f"RootSystem({self.diagram.type_string}, |pos|={self.num_positive})"


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


# bench/tracer.py times the chain scan's letters by wrapping this name
def reflection_closure(m: np.ndarray, keys: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The keys of the images s_a*x of the rows x of `keys` with m_a > 0 (`m`
    holds m_a per row) that are not rows themselves, one per row.  The rows
    are the points added to a set since it was last s_a-closed, so an image
    is never an earlier point, as s_a maps those among themselves, and an
    image that is a row has m_a < 0.  `step` is the key of s_a's move per
    unit of m_a; every key is below 2**62."""
    import numpy as np
    up = m > 0
    keys = keys - np.maximum(m, 0)[:, None] * step  # the images in place of the rows moved
    if keys.shape[1] == 1:
        tagged = np.sort(keys[:, 0] << 1 | up)  # an image sorts just after an equal row
        new = (tagged & 1).astype(bool)
        new[1:] &= tagged[1:] - 1 != tagged[:-1]
        return tagged[new, None] >> 1
    order = np.lexsort((up, *keys.T[::-1]))
    keys, new = keys[order], up[order]
    new[1:] &= (keys[1:] != keys[:-1]).any(axis=1)
    return keys[new]
