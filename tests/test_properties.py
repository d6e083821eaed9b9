"""`Marking`'s set operations against Python's sets, the component-split
`reduction` and `is_separating` against their path-walking oracles,
exhaustively at low rank and by Hypothesis on random diagrams of rank
<= 8, reduced-pair invariance of the cycle and of the chain scan, the
chain scan's Demazure lengths against the oracle's, its first length
against |Phi+| - dim G/P, its orbit sizes against the permutation-row
scan and the full-orbit scan, and the scan's letter step
`reflection_closure` against a set oracle."""

import random
from datetime import timedelta
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import parhom.connectivity as connectivity
import reduction_oracle as oracle
from demazure_oracle import demazure_chain_scan
from parhom import (Marking, ParabolicPair, chain_analysis, cycle_descriptor, dim_flag,
                    generate_roots, is_separating, parse_diagram_spec, reduction,
                    weyl_order)
from parhom.rootweyl import reflection_closure
from reduction_oracle import brute_force_reduction
from test_connectivity import full_orbit_sizes, permutation_chain_scan, scan_fields
from weyl_oracle import classical_weyl_order, levi_generators, weyl_order_estimate

# every factor of rank <= 8, in the ranks the parser accepts
FACTORS = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
           + [f"C{r}" for r in range(3, 9)] + [f"D{r}" for r in range(4, 9)]
           + ["E6", "E7", "E8", "F4", "G2"])

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=300,
                             deadline=timedelta(seconds=2))


def subsets(n):
    return list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(n + 1)))


@st.composite
def diagrams(draw, max_rank=8):
    """A diagram string of total rank <= max_rank, products included."""
    factors, budget = [], max_rank
    while budget and (not factors or draw(st.booleans())):
        factor = draw(st.sampled_from([f for f in FACTORS if int(f[1:]) <= budget]))
        factors.append(factor)
        budget -= int(factor[1:])
    return parse_diagram_spec("x".join(factors))


@st.composite
def pairs_and_chi(draw, max_rank=8):
    d = draw(diagrams(max_rank))
    marking = st.sets(st.integers(1, d.n)).map(Marking)
    return ParabolicPair(d, draw(marking), draw(marking)), draw(marking)


@PROPERTY_SETTINGS
@given(st.sets(st.integers(1, 40)).map(Marking), st.lists(st.integers(1, 40)))
def test_marking_set_operations(marking, other):
    """`union`, `intersect` and `minus` skip `Marking.__new__`, so check
    what it would give: a sorted, repeat-free Marking equal to the set
    operation, which `Marking` hands back as it is.  `other` may be any
    iterable of nodes, unsorted and with repeats."""
    for op, want in ((marking.union, set(marking) | set(other)),
                     (marking.intersect, set(marking) & set(other)),
                     (marking.minus, set(marking) - set(other))):
        got = op(other)
        assert type(got) is Marking
        assert list(got) == sorted(want)
        assert Marking(got) is got


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D5", "F4", "G2", "A2xG2", "E6"])
def test_matches_path_walking_on_every_pair(spec):
    """Marking, witnesses and separation agree with the path-walking code
    on every pair; chi runs over the reduction, psi_p & psi_q, the empty
    marking and one seeded random marking per pair."""
    d = parse_diagram_spec(spec)
    rng = random.Random(spec)
    subs = subsets(d.n)
    for p in subs:
        for q in subs:
            pair = ParabolicPair(d, Marking(p), Marking(q))
            got = reduction(pair)
            assert got == oracle.reduction(pair), (spec, p, q)
            random_chi = [v for v in range(1, d.n + 1) if rng.random() < 0.5]
            for chi in (got.reduced_marking, pair.intersection_marking, (), random_chi):
                assert is_separating(pair, chi) == oracle.is_separating(pair, chi), \
                    (spec, p, q, chi)


@PROPERTY_SETTINGS
@given(pairs_and_chi())
def test_reduction_matches_oracles(case):
    pair, _ = case
    got = reduction(pair)
    assert got == oracle.reduction(pair)
    assert got.reduced_marking == brute_force_reduction(pair)


@PROPERTY_SETTINGS
@given(pairs_and_chi())
def test_separation_matches_path_walking(case):
    pair, chi = case
    assert is_separating(pair, chi) == oracle.is_separating(pair, chi)


@PROPERTY_SETTINGS
@given(pairs_and_chi())
def test_cycle_depends_only_on_the_reduction(case):
    pair, _ = case
    reduced = ParabolicPair(pair.diagram, pair.psi_p, reduction(pair).reduced_marking)
    full, red = cycle_descriptor(pair), cycle_descriptor(reduced)
    assert (full.type_string, full.marking, full.dim) == (red.type_string, red.marking, red.dim)


# without sizes no orbit is scanned, so no limit applies: the E8 Borel
# runs at any limit.  The walk's word, whose length `chain_analysis` takes
# for l(w_0(R)), is checked against |Phi+| - dim G/P_R, and its lengths
# against the oracle's dims
@PROPERTY_SETTINGS
@given(pairs_and_chi())
def test_rho_lengths_match_demazure_oracle(case):
    pair, _ = case
    rs, levi = pair.roots, pair.intersection_marking
    p_gens, q_gens = ([i for i in range(pair.diagram.n) if i + 1 not in psi]
                      for psi in (pair.psi_p, pair.psi_q))
    for max_k in (32, 2, 1):
        res = chain_analysis(pair, max_k=max_k, weyl_limit=10 ** 9, with_sizes=False)
        assert res.reachable_sizes == ()
        expected = demazure_chain_scan(pair.diagram, pair.psi_p, pair.psi_q, max_k)
        assert (res.minimal_n, res.reachable_dims, res.complete) == expected
        lengths, word = connectivity._lengths(rs, p_gens, q_gens, max_k)
        assert len(word) == rs.num_positive - dim_flag(rs, levi)
        assert all(a + 1 not in levi for a in word)
        assert lengths == [lengths[0] + dim for dim in expected[1]]


@st.composite
def small_weyl_diagrams(draw, max_order=10_000):
    """(diagram, |W|) with |W| <= max_order, products included; |W| is the
    product of the factors' closed-form orders."""
    factors, order = [], 1
    while not factors or draw(st.booleans()):
        fits = [f for f in FACTORS
                if order * classical_weyl_order(f[0], int(f[1:])) <= max_order]
        if not fits:
            break
        factor = draw(st.sampled_from(fits))
        factors.append(factor)
        order *= classical_weyl_order(factor[0], int(factor[1:]))
    return parse_diagram_spec("x".join(factors)), order


@st.composite
def small_weyl_pairs(draw, max_order=10_000):
    """A pair on a diagram with |W| <= max_order."""
    d, _ = draw(small_weyl_diagrams(max_order))
    marking = st.sets(st.integers(1, d.n)).map(Marking)
    return ParabolicPair(d, draw(marking), draw(marking))


# the orbit scan against the permutation-row scan on W itself, which shares
# no code with it
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_weyl_pairs(), st.sampled_from([32, 2, 1]))
def test_orbit_scan_matches_the_permutation_scan(pair, max_k):
    assert scan_fields(chain_analysis(pair, max_k=max_k)) == permutation_chain_scan(pair, max_k)


# The Borel closed form: with psi_p every node, W_P = 1, so S_0 = {e},
# S_1 = W_Q and S_2 = W_Q W_Q = W_Q; the scan stops at level 1 when W_Q is
# all of W (psi_q empty, the one connected case) or 1 (psi_q every node, no
# length gained), and at level 2 otherwise.  |W_Q| is read off the
# classification of D minus psi_q.
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_weyl_diagrams(max_order=10 ** 5), st.data())
def test_borel_scan_has_the_closed_form(case, data):
    d, order = case
    psi_q = data.draw(st.sets(st.integers(1, d.n)).map(Marking))
    w_q = weyl_order_estimate(d, levi_generators(d, psi_q))
    res = chain_analysis(ParabolicPair(d, Marking(range(1, d.n + 1)), psi_q))
    assert res.reachable_sizes == (1, w_q) + ((w_q,) if 1 < w_q < order else ())
    assert res.complete
    assert (res.minimal_n == 1) == res.connected == (not psi_q)


# l(x_0) = l(w_0(P)) counts the positive roots of the Levi of P, those whose
# support misses psi_p: |Phi+| - dim G/P
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_weyl_diagrams(max_order=10 ** 9), st.data())
def test_first_length_is_the_levi_root_count(case, data):
    d, _ = case
    psi_p = data.draw(st.sets(st.integers(1, d.n)).map(Marking))
    rs = generate_roots(d)
    p_gens = [i for i in range(d.n) if i + 1 not in psi_p]
    lengths, _ = connectivity._lengths(rs, p_gens, p_gens, 1)
    assert lengths[0] == rs.num_positive - dim_flag(rs, psi_p)


def chain_summary(pair):
    scan = chain_analysis(pair)
    return scan.connected, scan.minimal_n, scan.reachable_sizes, scan.reachable_dims


def with_reduced_q(pair):
    return ParabolicPair(pair.diagram, pair.psi_p, reduction(pair).reduced_marking)


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D5", "F4", "G2", "A2xG2"])
def test_chain_scan_depends_only_on_the_reduction_on_every_pair(spec):
    d = parse_diagram_spec(spec)
    for p in subsets(d.n):
        for q in subsets(d.n):
            pair = ParabolicPair(d, Marking(p), Marking(q))
            assert chain_summary(pair) == chain_summary(with_reduced_q(pair)), (spec, p, q)


# rank <= 6 keeps every orbit, the E6 Borel's 51,840 points at most, under the guard
@PROPERTY_SETTINGS
@given(pairs_and_chi(max_rank=6))
def test_chain_scan_depends_only_on_the_reduction(case):
    pair, _ = case
    assert chain_summary(pair) == chain_summary(with_reduced_q(pair))


@st.composite
def small_orbits(draw, max_points=10_000):
    """A diagram of rank <= 8 and a marking with |W/W_P| <= max_points: the
    drawn marking less as many of its largest nodes as that takes."""
    d = draw(diagrams())
    marking = sorted(draw(st.sets(st.integers(1, d.n))))
    rs = generate_roots(d)
    while weyl_order(rs) // weyl_order(rs, marking) > max_points:
        marking.pop()
    return d, Marking(marking)


# the Levi orbit W_R/W_P and the closed-form levels against every level
# scanned on the full orbit W/W_P
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_orbits(), st.data(), st.sampled_from([32, 2, 1]))
def test_levi_sizes_match_the_full_orbit_scan(case, data, max_k):
    d, psi_p = case
    pair = ParabolicPair(d, psi_p, data.draw(st.sets(st.integers(1, d.n)).map(Marking)))
    assert chain_analysis(pair, max_k=max_k).reachable_sizes == full_orbit_sizes(pair, max_k)


@st.composite
def closure_inputs(draw):
    """(m, keys, step) as a letter s_a finds them: distinct keys, each moved
    by -m*step, where a key with m < 0 is the image of a key with m > 0 (its
    point was added with that one), and no other image is a key."""
    step = draw(st.integers(-2 ** 20, 2 ** 20).filter(bool))
    rows = []
    for key, m, paired in draw(st.lists(st.tuples(st.integers(2 ** 23, 2 ** 40),
                                                  st.integers(0, 5), st.booleans()),
                                        max_size=40)):
        rows.append((key, m))
        if m and paired:
            rows.append((key - m * step, -m))
    keys = {k for k, _ in rows}
    assume(len(keys) == len(rows))
    images = [(k - m * step, -m) for k, m in rows if m > 0]
    assume(all(image in rows or image[0] not in keys for image in images))
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return (np.array([m for _, m in rows], dtype=np.int64),
            np.array([k for k, _ in rows], dtype=np.int64), step)


# the flat one-word path and the lexsort path (the keys as one column) both
# give the images of the points with m > 0, less the points with m < 0
@PROPERTY_SETTINGS
@given(closure_inputs())
def test_reflection_closure_matches_a_set_oracle(case):
    m, keys, step = case
    expected = ({k - mi * step for k, mi in zip(keys.tolist(), m.tolist()) if mi > 0}
                - {k for k, mi in zip(keys.tolist(), m.tolist()) if mi < 0})
    flat = reflection_closure(m, keys, step)
    column = reflection_closure(m, keys[:, None], np.array([step], dtype=np.int64))
    assert flat.ndim == 1 and column.shape == (len(expected), 1)
    assert sorted(flat.tolist()) == sorted(column[:, 0].tolist()) == sorted(expected)
