"""Root generation and Weyl group machinery, checked against closed forms,
word-length BFS, and brute-force coset minima."""

from collections import deque
from itertools import combinations

import numpy as np
import pytest

import parhom.connectivity as connectivity
from parhom import (ConsistencyError, DiagramError, GuardLimitError, ParabolicPair,
                    cartan_matrix, chain_analysis, generate_roots, induced_components,
                    diagram_involution_table, parse_diagram_spec, tree_path, weyl_order)
from parhom import rootweyl
from test_connectivity import full_orbit_sizes
from test_dynkin import node_factor
from weyl_oracle import (WeylElement, WeylSubset, classical_weyl_order,
                         dense_positive_root_closure, enumerate_weyl, involution_via_w0, levi_generators,
                         lexsort_orbit_neighbours, longest_element,
                         min_coset_length, orbit_closure, perm_tables, product_set,
                         weyl_order_estimate)

POS_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "G": lambda l: 6,
    "F": lambda l: 24,
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
}


def rs_for(spec):
    return generate_roots(parse_diagram_spec(spec))


def word_length_bfs(rs):
    """Oracle: length of every element as BFS depth in the Cayley graph."""
    n = rs.diagram.n
    t = perm_tables(rs)
    gens = [t.simple_perm[i] for i in range(n)]
    start = tuple(t.identity_row)
    depth = {start: 0}
    dq = deque([start])
    while dq:
        row = dq.popleft()
        arr = np.array(row, dtype=t.identity_row.dtype)
        for g in gens:
            nxt = tuple(arr[g])
            if nxt not in depth:
                depth[nxt] = depth[row] + 1
                dq.append(nxt)
    return depth


class TestRoots:
    def test_a2_explicit(self):
        rs = rs_for("A2")
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_g2_count_and_highest_root(self):
        rs = rs_for("G2")
        assert rs.num_positive == 6
        highest = max(rs.positive_roots, key=sum)
        assert highest == (3, 2)

    def test_b3_count(self):
        assert rs_for("B3").num_positive == 9

    @pytest.mark.parametrize("spec", ["A1", "A5", "B2", "B4", "C3", "C5", "D4",
                                      "D6", "E6", "F4", "G2"])
    def test_counts_match_closed_forms(self, spec):
        rs = rs_for(spec)
        f = rs.diagram.factors[0]
        assert rs.num_positive == POS_COUNT[f.family](f.rank)

    def test_product_counts_add(self):
        assert rs_for("A2xG2").num_positive == 3 + 6

    @pytest.mark.parametrize("spec", ["A4", "B3", "C4", "D4", "F4", "G2", "A2xB2"])
    def test_root_sign_and_support_invariants(self, spec):
        rs = rs_for(spec)
        d = rs.diagram
        factor_of = node_factor(d)
        for c in perm_tables(rs).roots:
            assert all(x >= 0 for x in c) or all(x <= 0 for x in c)
        for c in rs.positive_roots:
            support = [i + 1 for i, x in enumerate(c) if x != 0]
            factors = {factor_of[v] for v in support}
            assert len(factors) == 1
            comps = induced_components(d, support)
            assert len(comps) == 1

    def test_graded_lex_order(self):
        rs = rs_for("B3")
        keys = [(sum(c), c) for c in rs.positive_roots]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("spec", ["A40", "B40", "C40", "D40", "E6", "E7", "E8",
                                      "F4", "G2", "A3xB3", "B20xC20", "G2xF4"])
    def test_sparse_closure_equals_the_dense_oracle(self, spec):
        d = parse_diagram_spec(spec)
        cart = cartan_matrix(d)
        dual = [list(col) for col in zip(*cart)]
        for mat in (cart, dual):
            assert (rootweyl._positive_root_closure(mat, d.n)
                    == dense_positive_root_closure(mat, d.n))
        rs = generate_roots(d)
        assert list(rs.positive_roots) == dense_positive_root_closure(cart, d.n)
        assert rs.positive_coroots.tolist() == [
            list(c) for c in dense_positive_root_closure(dual, d.n)]

    def test_cartan_array_equals_the_rows(self):
        rs = rs_for("B3xG2")
        assert rs.cartan.dtype == np.int16
        assert rs.cartan.tolist() == cartan_matrix(rs.diagram) == rs.cartan_rows

    def test_negative_half_mirrors_positive(self):
        rs = rs_for("C3")
        m = rs.num_positive
        roots = perm_tables(rs).roots
        for i in range(m):
            assert roots[m + i] == tuple(-x for x in roots[i])


class TestSimpleReflections:
    @pytest.mark.parametrize("spec", ["A3", "B3", "G2", "A2xA2"])
    def test_involutive_and_permutes_other_positives(self, spec):
        rs = rs_for(spec)
        m = rs.num_positive
        t = perm_tables(rs)
        for i in range(rs.diagram.n):
            perm = t.simple_perm[i]
            assert (perm[perm] == t.identity_row).all()
            col = int(t.simple_cols[i])
            assert perm[col] == col + m  # alpha_i -> -alpha_i
            others = [p for p in range(m) if p != col]
            assert sorted(int(perm[p]) for p in others) == others


class TestEnumerate:
    def test_a3_full(self):
        rs = rs_for("A3")
        assert len(enumerate_weyl(rs, [1, 2, 3])) == 24

    def test_f4_full(self):
        rs = rs_for("F4")
        assert len(enumerate_weyl(rs, [1, 2, 3, 4])) == 1152

    def test_a3_commuting_pair(self):
        rs = rs_for("A3")
        assert len(enumerate_weyl(rs, [1, 3])) == 4

    def test_product_group(self):
        rs = rs_for("A2xA2")
        assert len(enumerate_weyl(rs, [1, 2, 3, 4])) == 36

    @pytest.mark.parametrize("spec,nodes,order", [
        ("A3", (1, 2), 6),          # A2 inside A3
        ("B3", (2, 3), 8),          # B2 inside B3
        ("D4", (1, 3, 4), 8),       # three commuting A1s
        ("F4", (1, 2, 3), 48),      # B3 inside F4
        ("F4", (2, 3, 4), 48),      # C3 inside F4
    ])
    def test_parabolic_orders_match_classified_type(self, spec, nodes, order):
        rs = rs_for(spec)
        assert len(enumerate_weyl(rs, nodes)) == order

    def test_whole_factor_orders_multiply(self):
        rs = rs_for("A2xB2")
        assert len(enumerate_weyl(rs, [1, 2, 3, 4])) == 6 * 8

    def test_guard_limit(self):
        rs = rs_for("E7")
        with pytest.raises(GuardLimitError) as err:
            enumerate_weyl(rs, range(1, 8))
        assert err.value.estimated == 2903040
        assert err.value.limit == 10 ** 6
        assert "2903040" in str(err.value)

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", "10")
        rs = rs_for("A3")
        with pytest.raises(GuardLimitError):
            enumerate_weyl(rs, [1, 2, 3])

    def test_subgroup_closed_under_generators(self):
        rs = rs_for("B3")
        sub = enumerate_weyl(rs, [1, 2])
        t = perm_tables(rs)
        gens = [WeylElement(rs, t.simple_perm[i - 1][t.identity_row]) for i in (1, 2)]
        for w in sub.elements():
            for g in gens:
                assert (g * w) in sub and (w * g) in sub


class TestLengthAndLongest:
    @pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A3", "B3", "C3",
                                      "A1xA1", "A1xA2", "A1xB2", "A1xG2",
                                      "A1xA1xA1"])
    def test_length_equals_bfs_word_depth(self, spec):
        rs = rs_for(spec)
        depth = word_length_bfs(rs)
        assert len(depth) == weyl_order(rs.diagram)
        for row, dep in depth.items():
            assert WeylElement(rs, np.array(row)).length == dep

    def test_a1(self):
        rs = rs_for("A1")
        w0 = longest_element(rs)
        assert w0.length == 1
        assert (w0.row == perm_tables(rs).simple_perm[0]).all()

    def test_a3_longest_length(self):
        assert longest_element(rs_for("A3")).length == 6

    def test_b3_longest_is_minus_identity(self):
        rs = rs_for("B3")
        w0 = longest_element(rs)
        assert w0.length == 9
        m = rs.num_positive
        for r in range(2 * m):
            assert int(w0.row[r]) == (r + m) % (2 * m)

    @pytest.mark.parametrize("spec", ["A4", "B3", "C4", "D4", "F4", "G2", "A2xB2"])
    def test_w0_squares_to_identity_and_has_top_length(self, spec):
        rs = rs_for(spec)
        w0 = longest_element(rs)
        assert w0.length == rs.num_positive
        assert (w0 * w0).is_identity()

    @pytest.mark.parametrize("spec", ["A3", "B3"])
    def test_w0_conjugation_preserves_length(self, spec):
        rs = rs_for(spec)
        w0 = longest_element(rs)
        for w in enumerate_weyl(rs, range(1, rs.diagram.n + 1)).elements():
            assert (w0 * w * w0).length == w.length


class TestInvolutionViaW0:
    @pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                      "B4", "C3", "C4", "D4", "D5", "F4", "G2",
                                      "A2xG2", "A3xD5"])
    def test_matches_table(self, spec):
        d = parse_diagram_spec(spec)
        assert involution_via_w0(generate_roots(d)) == diagram_involution_table(d)

    def test_c3_identity(self):
        rs = rs_for("C3")
        assert involution_via_w0(rs) == {1: 1, 2: 2, 3: 3}


class TestMinCosetLength:
    def test_identity_any_subset(self):
        rs = rs_for("B3")
        e = WeylElement.identity(rs)
        for nodes in ((), (1,), (1, 2), (1, 2, 3)):
            assert min_coset_length(e, nodes) == 0

    def test_grassmannian_dimension(self):
        rs = rs_for("A3")
        assert min_coset_length(longest_element(rs), [1, 3]) == 4

    def test_empty_subset_is_length(self):
        rs = rs_for("A2")
        t = perm_tables(rs)
        s1 = WeylElement(rs, t.simple_perm[0][t.identity_row])
        s2 = WeylElement(rs, t.simple_perm[1][t.identity_row])
        w = s1 * s2
        assert min_coset_length(w, ()) == 2 == w.length

    @pytest.mark.parametrize("spec,nodes", [("A3", (1, 3)), ("A3", (2,)),
                                            ("B3", (1, 2)), ("B3", (3,))])
    def test_against_bruteforce_coset_minimum(self, spec, nodes):
        rs = rs_for(spec)
        sub = enumerate_weyl(rs, nodes)
        full = enumerate_weyl(rs, range(1, rs.diagram.n + 1))
        for w in full.elements():
            expected = min((w * u).length for u in sub.elements())
            got = min_coset_length(w, nodes)
            assert got == expected
            assert got <= w.length
            is_minimal = all((w * u).length >= w.length for u in sub.elements())
            assert (got == w.length) == is_minimal


def orbit_depths(nb):
    """Oracle: each orbit point's distance from point 0 (lambda) along the
    neighbour table, by breadth-first search."""
    depth = np.full(len(nb), -1)
    depth[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in nb[x].tolist():
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                queue.append(y)
    return depth


class TestWeightOrbit:
    """The oracle's orbit table (`lexsort_orbit_neighbours`), and the
    library's scan, which keeps no table, against it."""

    @pytest.mark.parametrize("spec,marking", [("A3", (2,)), ("A3", (1, 3)), ("B3", (1,)),
                                              ("B3", (1, 2, 3)), ("G2", (1,)), ("F4", (4,)),
                                              ("A2xG2", (1, 4)), ("A2", ())])
    def test_depths_count_minimal_coset_lengths(self, spec, marking):
        # one orbit point per coset w*W_P, at depth the minimal coset length
        rs = rs_for(spec)
        n = rs.diagram.n
        levi = tuple(v for v in range(1, n + 1) if v not in marking)
        stab = len(enumerate_weyl(rs, levi))
        full = enumerate_weyl(rs, range(1, n + 1))
        lengths = np.array([min_coset_length(w, levi) for w in full.elements()])
        nb = lexsort_orbit_neighbours(rs, marking)
        assert len(nb) * stab == len(full)
        depth = orbit_depths(nb)
        assert np.array_equal(np.bincount(depth), np.bincount(lengths) // stab)
        assert (np.diff(depth) >= 0).all()

    @pytest.mark.parametrize("spec,marking", [("B3", (2,)), ("E6", (1, 3)), ("D5", (5,))])
    def test_neighbours_are_involutions_moving_one_level(self, spec, marking):
        nb = lexsort_orbit_neighbours(rs_for(spec), marking)
        points = np.arange(len(nb))[:, None]
        assert (nb[nb, np.arange(nb.shape[1])] == points).all()
        depth = orbit_depths(nb)
        step = np.abs(depth[nb] - depth[points])
        assert ((step == 1) | (nb == points)).all()

    @pytest.mark.parametrize("marking", [[0], [9], [1, 4]])
    def test_bad_nodes_raise_before_the_orbit_is_built(self, marking):
        # unchecked, node 0 would wrap to the last label and node 9 leave the
        # key; the pair refuses them, and the scan memo keeps the last psi_p's
        d = parse_diagram_spec("A3")
        chain_analysis(ParabolicPair(d, [2], [1]))
        memo = dict(generate_roots(d).scans)
        assert list(memo) == [((2,), (1,), 32)]
        with pytest.raises(DiagramError, match="out of range"):
            chain_analysis(ParabolicPair(d, marking, [1]))
        assert generate_roots(d).scans == memo

    @pytest.mark.parametrize("spec", ["E6", "F4", "D5", "B5", "A2xG2"])
    def test_table_equals_the_lexsort_build_on_every_marking(self, spec):
        # psi_q = the nodes outside psi_p makes R = psi_p & psi_q empty, so the
        # scan's points are the whole orbit W/W_P: its sizes against those
        # scanned on the lexsort build's table
        d = parse_diagram_spec(spec)
        nodes = range(1, d.n + 1)
        for k in range(d.n + 1):
            for marking in combinations(nodes, k):
                pair = ParabolicPair(d, marking, [v for v in nodes if v not in marking])
                assert chain_analysis(pair).reachable_sizes == full_orbit_sizes(pair), marking

    @pytest.mark.parametrize("spec", ["A40", "D40"])
    def test_multi_word_keys_equal_the_lexsort_build(self, spec, monkeypatch):
        # M = 2 for A40 psi_p = {1, 2} (its {1} is closed form), M = 1 for D40
        # psi_p = {1}, and (2M+1)**40 > 2**62: the keys take two words
        rs = rs_for(spec)
        psi_p = {"A40": [1, 2], "D40": [1]}[spec]
        bound = int(rs.positive_coroots[:, [v - 1 for v in psi_p]].sum(axis=1).max())
        assert (2 * bound + 1) ** 40 > 1 << 62 > (2 * bound + 1) ** 20
        words = set()

        def spy(m, keys, step):
            words.add(keys.shape[1])
            return rootweyl.reflection_closure(m, keys, step)

        monkeypatch.setattr(connectivity, "reflection_closure", spy)
        monkeypatch.setattr(rs, "scans", {})
        for q in ([3], [20], [3, 40]):
            pair = ParabolicPair(rs.diagram, psi_p, q)
            for max_k in (32, 1):
                assert chain_analysis(pair, max_k).reachable_sizes == \
                    full_orbit_sizes(pair, max_k), (q, max_k)
        assert words == {2}

    def test_build_stops_at_the_end_of_the_table(self, monkeypatch):
        # |W_R/W_P| taken as 20 for the 27 points of E6 psi_p = {1}: the scan
        # writes no key past its 20, and says how many points it reached
        pair = ParabolicPair(parse_diagram_spec("E6"), [1], [2])
        monkeypatch.setattr(pair.roots, "scans", {})
        monkeypatch.setattr(connectivity, "weyl_order", lambda d, psi=(): 1 if psi else 20)
        with pytest.raises(ConsistencyError, match=r"orbit has (\d+) points, not "
                                                   r"\|W_R/W_P\| = 20") as exc:
            chain_analysis(pair)
        assert 20 < int(exc.value.args[0].split()[2]) <= 27


def neighbour_bfs(nb, gens, seeds):
    """Oracle: the orbit points reached from `seeds` along the neighbour
    columns `gens`, seeds excluded."""
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = int(nb[x, g])
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen - set(seeds)


def close_from(nb, gens, seeds):
    """(the indices `orbit_closure` adds, the mask it leaves) when the mask
    starts as just the seeds."""
    mask = np.zeros(len(nb), dtype=bool)
    seeds = np.array(sorted(set(seeds)), dtype=np.intp)
    mask[seeds] = True
    added = orbit_closure(mask, nb, np.array(gens, dtype=np.intp), seeds)
    return added, mask


ORBIT_MARKINGS = [("A4", (2,)), ("A4", (1, 3)), ("B3", (1,)), ("B3", (3,)),
                  ("D5", (1,)), ("D5", (5,)), ("D5", (2, 4)), ("G2", (1,)),
                  ("G2", (1, 2)), ("E6", (1,)), ("E6", (1, 6))]


class TestOrbitReflectionClosure:
    """The oracle's mask closure on its orbit table."""

    @pytest.mark.parametrize("spec,marking", ORBIT_MARKINGS)
    def test_all_generators_add_every_other_point_once(self, spec, marking):
        nb = lexsort_orbit_neighbours(rs_for(spec), marking)
        added, mask = close_from(nb, range(nb.shape[1]), [0])
        assert sorted(added.tolist()) == list(range(1, len(nb)))
        assert mask.all()

    @pytest.mark.parametrize("spec,marking", ORBIT_MARKINGS)
    def test_levi_generators_fix_lambda(self, spec, marking):
        rs = rs_for(spec)
        nb = lexsort_orbit_neighbours(rs, marking)
        levi = [g - 1 for g in levi_generators(rs.diagram, marking)]
        added, mask = close_from(nb, levi, [0])
        assert len(added) == 0
        assert mask.tolist() == [True] + [False] * (len(nb) - 1)

    @pytest.mark.parametrize("spec,marking", ORBIT_MARKINGS)
    def test_every_generator_set_matches_bfs(self, spec, marking):
        nb = lexsort_orbit_neighbours(rs_for(spec), marking)
        n = nb.shape[1]
        for seeds in ([0], [len(nb) // 2, len(nb) - 1]):
            for k in range(n + 1):
                for gens in combinations(range(n), k):
                    added, mask = close_from(nb, gens, seeds)
                    expected = neighbour_bfs(nb, gens, seeds)
                    assert len(added) == len(expected)
                    assert set(added.tolist()) == expected
                    assert set(np.nonzero(mask)[0].tolist()) == expected | set(seeds)


class TestProductSet:
    def test_identity_absorbs(self):
        rs = rs_for("A3")
        a = enumerate_weyl(rs, [1, 2])
        trivial = enumerate_weyl(rs, ())
        assert len(trivial) == 1
        assert product_set(a, trivial) == a
        assert product_set(trivial, a) == a

    def test_double_coset_count(self):
        # |W_I W_J| = |W_I| * |W_J| / |W_I & W_J| computed independently
        rs = rs_for("A3")
        a = enumerate_weyl(rs, [1, 3])
        b = enumerate_weyl(rs, [2, 3])
        inter = a.key_set() & b.key_set()
        expected = len(a) * len(b) // len(inter)
        assert expected == 12
        assert len(product_set(a, b)) == 12

    def test_absorption_for_nested_subgroups(self):
        rs = rs_for("A3")
        small = enumerate_weyl(rs, [1])
        big = enumerate_weyl(rs, [1, 2])
        assert product_set(small, big) == big
        assert product_set(big, small) == big

    def test_pairwise_matches_closure_path(self):
        rs = rs_for("B3")
        a = enumerate_weyl(rs, [1, 2])
        b = enumerate_weyl(rs, [2, 3])
        by_closure = product_set(a, b)
        bare_a = WeylSubset(rs, a.rows)
        bare_b = WeylSubset(rs, b.rows)
        by_pairs = product_set(bare_a, bare_b)
        assert by_pairs == by_closure
        assert (by_pairs.rows == by_closure.rows).all()

    def test_size_bound(self):
        rs = rs_for("A3")
        a = enumerate_weyl(rs, [1, 2])
        b = enumerate_weyl(rs, [3])
        assert len(product_set(a, b)) <= len(a) * len(b)

    def test_guard(self):
        rs = rs_for("A3")
        a = enumerate_weyl(rs, [1, 2, 3])
        with pytest.raises(GuardLimitError):
            product_set(a, a, weyl_limit=10)

    def test_cross_system_rejected(self):
        a = enumerate_weyl(rs_for("A3"), [1])
        b = enumerate_weyl(rs_for("B3"), [1])
        with pytest.raises(ValueError):
            product_set(a, b)


class TestClassicalOrders:
    @pytest.mark.parametrize("fam,rank,order", [
        ("A", 3, 24), ("B", 3, 48), ("C", 4, 384), ("D", 4, 192),
        ("G", 2, 12), ("F", 4, 1152), ("E", 6, 51840)])
    def test_table(self, fam, rank, order):
        assert classical_weyl_order(fam, rank) == order
        assert weyl_order(parse_diagram_spec(f"{fam}{rank}")) == order

    def test_weyl_order_product(self):
        assert weyl_order(parse_diagram_spec("A2xB2")) == 48


# the height product against the classified closed form on every marking
@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D5", "E6", "E7", "E8",
                                  "F4", "G2", "A2xG2", "B3xC3"])
def test_levi_orders_match_the_classified_closed_form(spec):
    d = parse_diagram_spec(spec)
    for k in range(d.n + 1):
        for psi in combinations(range(1, d.n + 1), k):
            expected = weyl_order_estimate(d, levi_generators(d, psi))
            assert weyl_order(d, psi) == expected, (spec, psi)


@pytest.mark.parametrize("spec", [f"A{r}" for r in range(1, 13)]
                         + [f"B{r}" for r in range(2, 13)]
                         + [f"C{r}" for r in range(3, 13)]
                         + [f"D{r}" for r in range(4, 13)]
                         + ["E6", "E7", "E8", "F4", "G2", "A40", "B40", "C40", "D40"])
def test_group_order_matches_the_closed_form(spec):
    assert weyl_order(parse_diagram_spec(spec)) == classical_weyl_order(spec[0], int(spec[1:]))
