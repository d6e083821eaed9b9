"""Chain scans by Demazure products, from the Cartan matrix alone: no
weight orbit, no root list and no reduction.  The reference for
`connectivity.chain_analysis` on `minimal_n`, `reachable_dims` and
`complete`.

A parabolic subgroup W_I is the Bruhat interval [e, w_0(I)], and the
product of two lower intervals is again one: [e, u]·[e, v] = [e, u ⋆ v],
with ⋆ the Demazure product (subword property; Björner–Brenti,
*Combinatorics of Coxeter Groups*, §2.2).  So the level set
S_j = W_P (W_Q W_P)^j is [e, x_j], with x_0 = w_0(P) and
x_j = x_{j-1} ⋆ w_0(Q) ⋆ w_0(P).  The top cell of S_j has dimension
ℓ(x_j) − ℓ(x_0), and S_j = W iff ℓ(x_j) = ℓ(w_0) = |Φ+|.
"""

from parhom import cartan_matrix


def _star(x, gens, cartan) -> int:
    """Set x to x ⋆ w_0(gens) in place and return the letters added.

    x is a list of columns, x[k] = x(α_k) in simple-root coordinates.  While
    some i in gens has x(α_i) > 0, x := x·s_i, which lengthens x by one:
    (x·s_i)(α_k) = x(α_k) − C[k][i]·x(α_i)."""
    added = 0
    while True:
        i = next((i for i in gens if max(x[i]) > 0), None)
        if i is None:
            return added
        xi = x[i]
        x[:] = [[a - cartan[k][i] * b for a, b in zip(col, xi)] for k, col in enumerate(x)]
        added += 1


def demazure_chain_scan(d, psi_p, psi_q, max_k=32):
    """(minimal_n, reachable_dims, complete) of the chain scan of
    (psi_p, psi_q) on diagram d, truncated after max_k levels like the
    library's scan.  Markings are the removed nodes, so W_I is generated by
    the unmarked ones."""
    cartan = cartan_matrix(d)
    n = len(cartan)

    def identity():
        return [[int(i == k) for i in range(n)] for k in range(n)]

    def levi(marking):
        return [i for i in range(n) if i + 1 not in set(marking)]

    top = _star(identity(), range(n), cartan)
    p_gens, q_gens = levi(psi_p), levi(psi_q)
    x = identity()
    base = length = _star(x, p_gens, cartan)
    dims = (0,)
    for j in range(1, max_k + 1):
        grown = _star(x, q_gens, cartan) + _star(x, p_gens, cartan)
        length += grown
        dims += (length - base,)
        if length == top:
            return j, dims, True
        if not grown:
            return None, dims, True
    return None, dims, False
