"""Reduction, connectivity, chain reachability, boundary and exception
tables, checked against brute-force subset search, the marking criterion,
a permutation-row chain scan, a scan of every level on the full orbit
W/W_P, Demazure products and closed-form chain lengths."""

import ast
import random
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from pathlib import Path

import pytest

import parhom
import parhom.connectivity as connectivity
from parhom import (BoundaryClass, ConsistencyError, GuardLimitError, LargerAutomorphismCase,
                    Marking, ParabolicPair, boundary_codim_class,
                    chain_analysis, dim_flag,
                    exception_flags, generate_roots,
                    is_cycle_connected, is_separating, parse_diagram_spec,
                    reduction, tree_path, weyl_order)
from parhom.cli import main
from parhom.report import PsiPContext, build_report
from demazure_oracle import demazure_chain_scan
from reduction_oracle import brute_force_reduction, swapped
from weyl_oracle import (levi_generators, lexsort_orbit_neighbours, orbit_scan_sizes,
                         outside_levi_indices, perm_tables, permutation_closure)


def subsets(n):
    return list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(n + 1)))


def pair_of(spec, p, q):
    return ParabolicPair(parse_diagram_spec(spec), Marking(p), Marking(q))


# (type, cominuscule node, rank of the Hermitian symmetric space G/P): two
# general points of a cominuscule G/P are joined by a chain of that many
# lines and no fewer (Buch-Kresch-Tamvakis, JAMS 16 (2003), for
# Grassmannians; Chaput-Manivel-Perrin, Transformation Groups 13 (2008),
# for every cominuscule G/P)
HERMITIAN_RANKS = (
    [(f"A{n}", k, min(k, n + 1 - k)) for n in range(1, 13) for k in range(1, n + 1)]
    + [(f"B{n}", 1, 2) for n in range(2, 14)]
    + [(f"D{n}", 1, 2) for n in range(4, 14)]
    + [(f"C{n}", n, n) for n in range(3, 14)]
    + [(f"D{n}", n, n // 2) for n in range(4, 14)]
    + [("E6", 1, 2), ("E6", 6, 2), ("E7", 7, 3)])

# (type, cominuscule node k, |S_j| / |W_P| for j = 0, 1, ...) with psi_q the
# neighbours of k, so the cycles are lines: S_j * x_0 is the set of T-fixed
# points of the locus of points joined to the base point by a chain of j
# lines.  Each locus is a Schubert variety described in the source cited
# with it; the counts are derived here from those descriptions.
COMINUSCULE_SIZES = (
    # Gr(k, N), A_n / P_k, N = n + 1: {V : dim(V & V_0) >= k - j}
    # (Buch-Kresch-Tamvakis, JAMS 16 (2003)), fixed points the k-subsets of
    # 1..N meeting the base one in a >= k - j elements
    [(f"A{n}", k, [sum(comb(k, a) * comb(n + 1 - k, k - a) for a in range(k - j, k + 1))
                   for j in range(min(k, n + 1 - k) + 1)])
     for n in range(2, 10) for k in range(1, n + 1)]
    # LG(n, 2n), C_n / P_n: {V : dim(V & V_0) >= n - j} (Buch-Kresch-Tamvakis,
    # JAMS 16 (2003)), a fixed point taking e_i or e_-i for each i, and a of
    # them as V_0 does
    + [(f"C{n}", n, [sum(comb(n, a) for a in range(n - j, n + 1)) for j in range(n + 1)])
       for n in range(3, 11)]
    # the spinor variety, D_n / P_n: {V : dim(V & V_0) >= n - 2j}, where every
    # dim(V & V_0) is n mod 2 (Buch-Kresch-Tamvakis, JAMS 16 (2003))
    + [(f"D{n}", n, [sum(comb(n, a) for a in range(n - 2 * j, n + 1, 2))
                     for j in range(n // 2 + 1)])
       for n in range(4, 11)]
    # the quadrics B_n / P_1 and D_n / P_1: a line in the quadric joins the
    # base point to each point orthogonal to it, every fixed point of 2n but
    # the opposite one (Chaput-Manivel-Perrin, Transformation Groups 13 (2008))
    + [(f"B{n}", 1, [1, 2 * n - 1, 2 * n]) for n in range(2, 11)]
    + [(f"D{n}", 1, [1, 2 * n - 1, 2 * n]) for n in range(4, 11)]
    # the Cayley plane E6 / P1 (and E6 / P6) and the Freudenthal variety
    # E7 / P7: the loci of one and two lines (Chaput-Manivel-Perrin,
    # Transformation Groups 13 (2008))
    + [("E6", 1, [1, 17, 27]), ("E6", 6, [1, 17, 27]), ("E7", 7, [1, 28, 55, 56])])


def permutation_chain_scan(pair, max_k=32):
    """Reference scan on W itself: each level set S_j = W_P * W_Q * S_{j-1}
    is held as the permutation rows of its elements.  Returns
    (connected, minimal_n, reachable_sizes, reachable_dims, complete)."""
    d = pair.diagram
    rs = generate_roots(d)
    order = weyl_order(rs)
    p_gens = levi_generators(d, pair.psi_p)
    q_gens = levi_generators(d, pair.psi_q)
    outside = outside_levi_indices(rs, tuple(p_gens))
    m = rs.num_positive

    def max_cell_dim(rows):
        if not len(outside):
            return 0
        return int((rows[:, outside] >= m).sum(axis=1).max())

    rows = permutation_closure(rs, perm_tables(rs).identity_row[None, :], p_gens, "left")
    sizes = [len(rows)]
    dims = [max_cell_dim(rows)]
    minimal_n = None
    complete = False
    for j in range(1, max_k + 1):
        grown = permutation_closure(rs, rows, q_gens, "left")
        grown = permutation_closure(rs, grown, p_gens, "left")
        sizes.append(len(grown))
        dims.append(max_cell_dim(grown))
        if len(grown) == order:
            minimal_n = j
            complete = True
            rows = grown
            break
        if len(grown) == len(rows):
            complete = True
            rows = grown
            break
        rows = grown
    connected = (len(rows) == order) if complete else None
    return connected, minimal_n, tuple(sizes), tuple(dims), complete


def scan_fields(res):
    """The fields of a ChainAnalysis that `permutation_chain_scan` returns."""
    return (res.connected, res.minimal_n, res.reachable_sizes, res.reachable_dims,
            res.complete)


@lru_cache(maxsize=2)
def full_orbit(d, psi_p):
    return lexsort_orbit_neighbours(generate_roots(d), psi_p)


def full_orbit_sizes(pair, max_k=32):
    """Oracle: every |S_j|, S_0 included, scanned as masks on the neighbour
    table of the full orbit W/W_P, with no level in closed form, no Levi
    orbit and no reduced word."""
    d = pair.diagram
    levels = len(chain_analysis(pair, max_k, with_sizes=False).reachable_dims) - 1
    p_gens, q_gens = ([i for i in range(d.n) if i + 1 not in psi]
                      for psi in (pair.psi_p, pair.psi_q))
    return tuple(orbit_scan_sizes(full_orbit(d, pair.psi_p), p_gens, q_gens,
                                  weyl_order(pair.roots, pair.psi_p), levels))


class TestSeparation:
    def test_two_paths_both_hit(self):
        assert is_separating(pair_of("A4", [2], [1, 4]), [1, 4])

    def test_overlapping_markings_need_chi(self):
        pair = pair_of("B3", [1, 2], [2])
        assert not is_separating(pair, ())
        assert is_separating(pair, [2])

    def test_cross_factor_vacuous(self):
        assert is_separating(pair_of("A2xA2", [1], [3]), ())

    def test_blocking_middle_node(self):
        pair = pair_of("A4", [1], [4])
        assert is_separating(pair, [3])
        assert not is_separating(pair, ())


class TestReduction:
    def test_shielded_node_dropped(self):
        res = reduction(pair_of("A4", [2], [1, 3, 4]))
        assert res.reduced_marking == (1, 3)
        assert not res.is_already_reduced

    def test_shared_node_forced(self):
        res = reduction(pair_of("A4", [2, 3], [3]))
        assert res.reduced_marking == (3,)
        assert res.is_already_reduced
        assert res.witness_starts == ((3, 2),)  # 2 is next to 3, and smaller

    def test_zero_length_path_forces_shared_singleton(self):
        res = reduction(pair_of("A4", [3], [3]))
        assert res.reduced_marking == (3,)
        assert res.witness_starts == ((3, 3),)

    def test_both_sides_kept(self):
        res = reduction(pair_of("A4", [2], [1, 4]))
        assert res.reduced_marking == (1, 4)
        assert res.is_already_reduced

    def test_witness_paths_first_hit_at_target(self):
        pair = pair_of("D5", [2, 4], [1, 3, 5])
        res = reduction(pair)
        q_set = set(pair.psi_q)
        for q, p in res.witness_starts:
            path = tree_path(pair.diagram, p, q)
            assert path[0] in pair.psi_p and path[-1] == q
            assert next(v for v in path if v in q_set) == q

    def test_empty_cases(self):
        assert brute_force_reduction(pair_of("A3", [2], ())) == ()
        assert brute_force_reduction(pair_of("A3", (), [1, 3])) == ()
        assert reduction(pair_of("A3", [2], ())).reduced_marking == ()
        assert reduction(pair_of("A3", (), [1, 3])).reduced_marking == ()

    @pytest.mark.parametrize("spec", ["A4", "B3", "D4", "A2xA2", "A1xB2", "G2"])
    def test_matches_bruteforce_and_idempotent(self, spec):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                pair = ParabolicPair(d, Marking(p), Marking(q))
                got = reduction(pair).reduced_marking
                assert got == brute_force_reduction(pair)
                assert is_separating(pair, got)
                again = reduction(ParabolicPair(d, Marking(p), got))
                assert again.reduced_marking == got
                assert again.is_already_reduced

    def test_contained_in_every_separating_subset(self):
        pair = pair_of("A5", [3], [1, 2, 4, 5])
        red = set(reduction(pair).reduced_marking)
        qs = list(pair.psi_q)
        for size in range(len(qs) + 1):
            for combo in combinations(qs, size):
                if is_separating(pair, combo):
                    assert red <= set(combo)

    def test_bruteforce_size_guard(self):
        d = parse_diagram_spec("A5xA5xA5xA5xA5")
        pair = ParabolicPair(d, Marking([1]), Marking(range(1, 22)))
        with pytest.raises(ValueError, match="<= 20"):
            brute_force_reduction(pair)


class TestConnectivityCriterion:
    def test_grassmannian_connected(self):
        assert is_cycle_connected(pair_of("A3", [2], [1]))

    def test_equal_markings_disconnected(self):
        assert not is_cycle_connected(pair_of("B3", [1, 3], [1, 3]))

    def test_product_shared_node(self):
        assert not is_cycle_connected(pair_of("A2xA2", [1, 3], [2, 3]))

    def test_quotient_marking(self):
        assert pair_of("A3", [2], [1]).intersection_marking == ()
        assert pair_of("A3", [1, 2], [2, 3]).intersection_marking == (2,)
        assert pair_of("A3", [1, 3], [1, 3]).intersection_marking == (1, 3)


class TestChainAnalysis:
    def test_worked_grassmannian(self):
        res = chain_analysis(pair_of("A3", [2], [1]))
        assert res.connected is True
        assert res.minimal_n == 2
        assert res.reachable_sizes == (4, 20, 24)
        assert res.reachable_dims == (0, 3, 4)
        assert res.complete

    def test_point_cycles_stall(self):
        res = chain_analysis(pair_of("A3", [2], [1, 2]))
        assert res.connected is False
        assert res.minimal_n is None
        assert res.reachable_sizes[-1] == res.reachable_sizes[-2]
        assert res.reachable_dims[0] == res.reachable_dims[-1]

    def test_projective_line_single_cycle(self):
        res = chain_analysis(pair_of("A1", [1], ()))
        assert res.connected is True and res.minimal_n == 1

    def test_empty_p_marking(self):
        res = chain_analysis(pair_of("A2", (), [1]))
        assert res.connected is True and res.minimal_n == 1
        assert res.reachable_dims == (0, 0)

    def test_truncation_flagged(self):
        res = chain_analysis(pair_of("A4", [2], [3]), max_k=1)
        assert not res.complete
        assert res.connected is None and res.minimal_n is None

    def test_guard(self):
        pair = pair_of("E8", [1, 2, 3, 5, 6, 7, 8], [4])  # connected, so W_R/W_P = W/W_P
        with pytest.raises(GuardLimitError) as exc:
            chain_analysis(pair)
        assert exc.value.estimated == 348364800
        assert "scanned orbit" in str(exc.value)
        # every level of the E8 Borel vs {1} is closed form: nothing is scanned
        assert chain_analysis(pair_of("E8", range(1, 9), [1]), weyl_limit=1).connected is False

    def test_guard_reads_no_environment(self, monkeypatch):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", "3")
        pair = pair_of("B2", [1], [2])  # |W_R/W_P| = 4, scanned
        assert chain_analysis(pair) == chain_analysis(pair, weyl_limit=4)
        with pytest.raises(GuardLimitError):
            chain_analysis(pair, weyl_limit=3)

    def test_guard_message_names_no_cli_knob(self):
        # the flag and the variable exist at the CLI only, which adds them
        with pytest.raises(GuardLimitError) as exc:
            chain_analysis(pair_of("B2", [1], [2]), weyl_limit=3)
        assert str(exc.value) == "scanned orbit |W_R/W_P| 4 exceeds guard limit 3"

    @pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "B4", "F4", "D4", "A2xG2"])
    def test_matches_permutation_scan_on_every_pair(self, spec):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                pair = ParabolicPair(d, Marking(p), Marking(q))
                assert scan_fields(chain_analysis(pair)) == permutation_chain_scan(pair), \
                    (spec, p, q)

    def test_matches_permutation_scan_on_e6_sample(self):
        d = parse_diagram_spec("E6")
        subs = subsets(d.n)
        pairs = random.Random(0).sample([(p, q) for p in subs for q in subs], 40)
        for p, q in pairs:
            pair = ParabolicPair(d, Marking(p), Marking(q))
            assert scan_fields(chain_analysis(pair)) == permutation_chain_scan(pair), (p, q)

    @pytest.mark.parametrize("spec", ["A4", "B3", "G2", "F4", "E6"])
    def test_sizes_match_the_full_orbit_scan_on_every_pair(self, spec):
        # the golden diagrams: the Levi orbit W_R/W_P and the closed-form
        # levels give the sizes of the full orbit, truncated scans included
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                pair = ParabolicPair(d, Marking(p), Marking(q))
                for max_k in (32, 1):
                    assert chain_analysis(pair, max_k).reachable_sizes == \
                        full_orbit_sizes(pair, max_k), (spec, p, q, max_k)

    def test_truncated_scan_matches_permutation_scan(self):
        for p, q in [([2], [3]), ([1, 3], [2]), ([2], [1, 4])]:
            pair = pair_of("A4", p, q)
            for max_k in (1, 2):
                got = scan_fields(chain_analysis(pair, max_k=max_k))
                assert got == permutation_chain_scan(pair, max_k), (p, q, max_k)

    @pytest.mark.parametrize("max_k", [32, 2, 1])
    @pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D5", "F4", "G2", "A2xG2"])
    def test_matches_demazure_oracle_on_every_pair(self, spec, max_k):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                res = chain_analysis(ParabolicPair(d, p, q), max_k=max_k)
                assert (res.minimal_n, res.reachable_dims, res.complete) == \
                    demazure_chain_scan(d, p, q, max_k), (spec, p, q)

    def test_matches_demazure_oracle_on_every_e6_pair(self):
        d = parse_diagram_spec("E6")
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                res = chain_analysis(ParabolicPair(d, p, q))
                assert (res.minimal_n, res.reachable_dims, res.complete) == \
                    demazure_chain_scan(d, p, q), (p, q)

    @pytest.mark.parametrize("spec", ["F4", "D5", "A2xG2"])
    def test_sweep_rows_match_demazure_oracle(self, spec):
        # the rows of `enumerate --with-chains`, in its order, from one context
        # per psi_p: it scans (psi_p, red psi_q) once, so most rows are served
        # by its memo
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs[1:]:
            context = PsiPContext(d, p, with_chains=True)
            for q in subs:
                res = build_report(context, q).chains
                assert (res.minimal_n, res.reachable_dims, res.complete) == \
                    demazure_chain_scan(d, p, q), (spec, p, q)

    @pytest.mark.parametrize("spec,node,rank", HERMITIAN_RANKS,
                             ids=[f"{t}-{v}" for t, v, _ in HERMITIAN_RANKS])
    def test_line_chains_reach_hermitian_rank(self, spec, node, rank):
        # psi_q = the neighbours of a cominuscule psi_p makes the cycles
        # lines; the minimal chain is then the rank of G/P
        d = parse_diagram_spec(spec)
        res = chain_analysis(ParabolicPair(d, Marking([node]),
                                           Marking(d.adjacency[node])))
        assert res.minimal_n == rank

    @pytest.mark.parametrize("spec,node,counts", COMINUSCULE_SIZES,
                             ids=[f"{t}-{v}" for t, v, _ in COMINUSCULE_SIZES])
    def test_line_chain_sizes_count_schubert_fixed_points(self, spec, node, counts):
        d = parse_diagram_spec(spec)
        res = chain_analysis(ParabolicPair(d, Marking([node]), Marking(d.adjacency[node])))
        order = weyl_order(generate_roots(d), [node])
        assert res.reachable_sizes == tuple(c * order for c in counts)

    def test_sizes_monotone_and_dims_bounded(self):
        for spec in ("A3", "B3", "G2", "A1xB2"):
            d = parse_diagram_spec(spec)
            subs = subsets(d.n)
            for p in subs:
                if not p:
                    continue
                for q in subs:
                    pair = ParabolicPair(d, Marking(p), Marking(q))
                    res = chain_analysis(pair)
                    s = res.reachable_sizes
                    assert all(s[i] < s[i + 1] for i in range(len(s) - 2))
                    assert s[-1] >= s[-2]
                    dims = res.reachable_dims
                    assert all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1))
                    assert dims[-1] <= dim_flag(generate_roots(d), p)
                    assert (dims[-1] == dim_flag(generate_roots(d), p)) == res.connected
                    assert res.connected == is_cycle_connected(pair)

    def test_level_sets_left_stable_and_nested(self):
        # reconstruct the level sets by hand and check the structural
        # properties the scan relies on
        d = parse_diagram_spec("B3")
        rs = generate_roots(d)
        p_gens = levi_generators(d, [1])
        q_gens = levi_generators(d, [3])
        t = perm_tables(rs)
        level = permutation_closure(rs, t.identity_row[None, :], p_gens, "left")
        prev_keys = set(t.key_bytes(level))
        for _ in range(3):
            level = permutation_closure(rs, level, q_gens, "left")
            level = permutation_closure(rs, level, p_gens, "left")
            keys = set(t.key_bytes(level))
            assert prev_keys <= keys
            stable = permutation_closure(rs, level, p_gens, "left")
            assert set(t.key_bytes(stable)) == keys
            prev_keys = keys

    def test_transposed_order_differs_by_at_most_one(self):
        for spec in ("A3", "B3"):
            d = parse_diagram_spec(spec)
            subs = subsets(d.n)
            for p in subs:
                for q in subs:
                    pair = ParabolicPair(d, Marking(p), Marking(q))
                    n_pq = chain_analysis(pair).minimal_n
                    n_qp = chain_analysis(swapped(pair)).minimal_n
                    assert (n_pq is None) == (n_qp is None)
                    if n_pq is not None:
                        assert abs(n_pq - n_qp) <= 1

    def test_bad_max_k(self):
        with pytest.raises(ValueError):
            chain_analysis(pair_of("A2", [1], [2]), max_k=0)

    def test_sizes_only_on_request(self):
        pair = pair_of("D5", [1, 5], [3])
        full, bare = chain_analysis(pair), chain_analysis(pair, with_sizes=False)
        assert full.reachable_sizes == (24, 552, 1728, 1920) and bare.reachable_sizes == ()
        assert (bare.connected, bare.minimal_n, bare.reachable_dims, bare.complete) == \
            (full.connected, full.minimal_n, full.reachable_dims, full.complete)

    def test_only_chain_analysis_declares_the_chain_defaults(self):
        """A default for `max_k`, `weyl_limit` or `with_sizes` on a function
        of the package, found by its syntax tree: only `chain_analysis` may
        declare one, and everything above it passes the options on."""
        options = {"max_k", "weyl_limit", "with_sizes"}

        def defaulted(fn):
            positional = fn.args.posonlyargs + fn.args.args
            named = positional[len(positional) - len(fn.args.defaults):] + [
                arg for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None]
            return options.intersection(arg.arg for arg in named)

        declarers = {(path.name, node.name)
                     for path in Path(parhom.__file__).parent.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and defaulted(node)}
        assert declarers == {("connectivity.py", "chain_analysis")}


# orbit sizes of D5 (1,5) vs (3): |W_P| = 24, the scan counts (23, 72)
# points at its two levels, reaching all 80 of W/W_P, and the level where
# the lengths reach |Phi+| is |W| = 1920 in closed form; the scanned counts
# bent one way each
SKEWS = {
    "flat level": lambda c: (1,) + c[1:],  # grows where the lengths do not
    "short of W": lambda c: c[:-2] + (80, 80),  # reaches |W| a level short of |Phi+|
}


@pytest.fixture
def cold_roots():
    generate_roots.cache_clear()
    yield
    generate_roots.cache_clear()  # no bent scan stays in the scan memo


@pytest.mark.parametrize("skew", sorted(SKEWS))
def test_orbit_sizes_must_follow_the_lengths(monkeypatch, capsys, cold_roots, skew):
    real = connectivity.orbit_counts
    monkeypatch.setattr(connectivity, "orbit_counts", lambda *args: SKEWS[skew](real(*args)))
    pair = pair_of("D5", [1, 5], [3])
    assert chain_analysis(pair, with_sizes=False).minimal_n == 3  # no orbit, no sizes
    with pytest.raises(ConsistencyError, match="Demazure lengths"):
        chain_analysis(pair)
    argv = ["analyze", "--type", "D5", "--p", "1,5", "--q", "3", "--chain-length"]
    assert main(argv) == 4
    assert "Demazure lengths" in capsys.readouterr().err


def roots_of(spec):
    return generate_roots(parse_diagram_spec(spec))


class TestBoundaryClass:
    def test_b3_always_affine(self):
        rs = roots_of("B3")
        for psi in subsets(3):
            assert boundary_codim_class(rs, psi) is BoundaryClass.AFFINE_CELL

    def test_a3_disjoint_image(self):
        assert boundary_codim_class(roots_of("A3"), [1]) \
            is BoundaryClass.CODIM_AT_LEAST_TWO

    def test_a3_partial_overlap(self):
        assert boundary_codim_class(roots_of("A3"), [1, 2]) \
            is BoundaryClass.CODIM_ONE

    def test_a3_invariant_marking(self):
        rs = roots_of("A3")
        assert boundary_codim_class(rs, [2]) is BoundaryClass.AFFINE_CELL
        assert boundary_codim_class(rs, [1, 3]) is BoundaryClass.AFFINE_CELL

    def test_empty_marking_is_affine(self):
        assert boundary_codim_class(roots_of("A3"), ()) \
            is BoundaryClass.AFFINE_CELL


class TestExceptionFlags:
    def test_c3_entry(self):
        assert exception_flags(pair_of("C3", [3], [2])).mok_zhang_exception

    def test_g2_entry(self):
        assert exception_flags(pair_of("G2", [2], [1])).mok_zhang_exception

    def test_b4_entry_interior_and_edge(self):
        assert exception_flags(pair_of("B4", [3], [2, 4])).mok_zhang_exception
        assert exception_flags(pair_of("B4", [4], [3, 4])).mok_zhang_exception
        assert exception_flags(pair_of("B2", [2], [1, 2])).mok_zhang_exception

    def test_f4_entry(self):
        assert exception_flags(pair_of("F4", [1], [3])).mok_zhang_exception

    def test_type_a_never_flagged(self):
        d = parse_diagram_spec("A3")
        for p in subsets(3):
            for q in subsets(3):
                flags = exception_flags(ParabolicPair(d, Marking(p), Marking(q)))
                assert not flags.mok_zhang_exception

    def test_b_i1_degenerate_not_flagged_but_noted(self):
        pair = pair_of("B3", [1], [3])
        assert not exception_flags(pair).mok_zhang_exception
        notes = exception_flags(pair).notes
        assert len(notes) == 1 and "i=1" in notes[0]
        assert exception_flags(pair_of("B3", [2], [1, 3])).notes == ()

    def test_larger_automorphism_fires_on_reduced_marking(self):
        assert exception_flags(pair_of("C3", [1], [2])).larger_automorphism_case \
            is LargerAutomorphismCase.ODD_SYMPLECTIC_PROJECTIVE
        assert exception_flags(pair_of("B3", [3], [1])).larger_automorphism_case \
            is LargerAutomorphismCase.SPINOR_ODD_ORTHOGONAL
        assert exception_flags(pair_of("G2", [1], [2])).larger_automorphism_case \
            is LargerAutomorphismCase.G2_QUADRIC

    def test_larger_automorphism_reduction_matters(self):
        # psi_p = {1,3} is already reduced mod {2}: no single-node match
        assert exception_flags(pair_of("C3", [1, 3], [2])).larger_automorphism_case is None
        # a mark in a factor untouched by psi_q drops out of the reduction
        pair = pair_of("C3xA2", [1, 4], [2])
        red_p = reduction(swapped(pair)).reduced_marking
        assert red_p == (1,)
        assert exception_flags(pair).larger_automorphism_case \
            is LargerAutomorphismCase.ODD_SYMPLECTIC_PROJECTIVE

    def test_no_fire_without_q(self):
        assert exception_flags(pair_of("C3", [1], ())).larger_automorphism_case is None

    def test_product_applies_per_factor(self):
        flags = exception_flags(pair_of("A2xG2", [1, 4], [3]))
        assert flags.mok_zhang_exception  # G2 factor sees p={2}, q={1}
