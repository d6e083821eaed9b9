"""Diagram layer: parsing, Cartan matrices, involution, tree paths, and
relabeling checked against a recorded digest, the edge tables and a
permutation brute force."""

import hashlib
import json
from collections import deque
from itertools import chain, combinations, permutations
from pathlib import Path

import pytest

from parhom import (MAX_RANK, DiagramError, Marking, RankLimitError,
                    cartan_matrix, diagram_involution_table,
                    parse_diagram_spec, relabel_to_standard, tree_path)
from test_geometry import diagrams_up_to_rank

FAMILIES_SAMPLE = ["A1", "A4", "B2", "B4", "C3", "C5", "D4", "D5", "E6", "E7",
                   "E8", "F4", "G2", "A2xG2", "A1xB2", "A2xA2", "B3xC3"]


def node_factor(d) -> dict[int, int]:
    """Node id -> index of its factor, read off `factor_spans`."""
    return {v: k for k, (lo, hi) in enumerate(d.factor_spans) for v in range(lo, hi + 1)}


def bfs_distance(d, a, b):
    """Independent oracle: plain BFS distance on the adjacency lists."""
    if a == b:
        return 0
    seen = {a}
    dq = deque([(a, 0)])
    while dq:
        v, dist = dq.popleft()
        for w in d.adjacency[v]:
            if w == b:
                return dist + 1
            if w not in seen:
                seen.add(w)
                dq.append((w, dist + 1))
    return None


class TestParse:
    def test_a3(self):
        d = parse_diagram_spec("A3")
        assert d.n == 3
        assert {(e.a, e.b) for e in d.edges} == {(1, 2), (2, 3)}
        assert all(e.mult == 1 for e in d.edges)

    def test_b2_double_bond_arrow(self):
        d = parse_diagram_spec("B2")
        assert d.n == 2
        (e,) = d.edges
        assert (e.a, e.b, e.mult, e.short) == (1, 2, 2, 2)

    def test_product(self):
        d = parse_diagram_spec("A2xG2")
        assert d.n == 4
        assert d.factor_spans == ((1, 2), (3, 4))
        mults = sorted(e.mult for e in d.edges)
        assert mults == [1, 3]
        assert d.type_string == "A2xG2"

    def test_unknown_family(self):
        with pytest.raises(DiagramError, match="unknown family"):
            parse_diagram_spec("H3")

    @pytest.mark.parametrize("bad", ["C2", "B1", "D3", "E5", "E9", "F3", "G3"])
    def test_rank_bounds(self, bad):
        with pytest.raises(DiagramError, match="rank out of bounds"):
            parse_diagram_spec(bad)

    def test_case_insensitive_canonical_upper(self):
        assert parse_diagram_spec("a2Xg2").type_string == "A2xG2"

    @pytest.mark.parametrize("bad", ["", "A", "3A", "A2x", "xA2", "A2xxB2", "A-2"])
    def test_syntax_errors(self, bad):
        with pytest.raises(DiagramError):
            parse_diagram_spec(bad)

    @pytest.mark.parametrize(
        "spec", ["A41", "A20xB21", "E99", "A" + "9" * 20, "A" + "9" * 5000],
        ids=["A41", "A20xB21", "E99", "20-digits", "5000-digits"])
    def test_rank_bound(self, spec):
        with pytest.raises(RankLimitError, match=f"exceeds the rank bound {MAX_RANK}"):
            parse_diagram_spec(spec)

    def test_rank_bound_names_the_rank(self):
        with pytest.raises(RankLimitError, match="total rank 41 "):
            parse_diagram_spec("A20xB21")
        with pytest.raises(RankLimitError, match=r"rank 99999999\.\.\.\(5000 digits\)"):
            parse_diagram_spec("A" + "9" * 5000)

    def test_rank_at_bound_admitted(self):
        assert MAX_RANK == 40
        assert parse_diagram_spec("A40").n == 40
        assert parse_diagram_spec("A20xB20").n == 40
        assert parse_diagram_spec("A0040").type_string == "A40"


class TestCartan:
    def test_a2(self):
        assert cartan_matrix(parse_diagram_spec("A2")) == [[2, -1], [-1, 2]]

    def test_g2_bourbaki_orientation(self):
        assert cartan_matrix(parse_diagram_spec("G2")) == [[2, -1], [-3, 2]]

    def test_a1xa1(self):
        assert cartan_matrix(parse_diagram_spec("A1xA1")) == [[2, 0], [0, 2]]

    @pytest.mark.parametrize("spec", FAMILIES_SAMPLE)
    def test_generalized_cartan_invariants(self, spec):
        d = parse_diagram_spec(spec)
        mat = cartan_matrix(d)
        n, factor_of = d.n, node_factor(d)
        for i in range(n):
            assert mat[i][i] == 2
            for j in range(n):
                if i == j:
                    continue
                assert mat[i][j] in (0, -1, -2, -3)
                assert mat[i][j] * mat[j][i] in (0, 1, 2, 3)
                assert (mat[i][j] == 0) == (mat[j][i] == 0)
                # block diagonal across factors
                if factor_of[i + 1] != factor_of[j + 1]:
                    assert mat[i][j] == 0

    @pytest.mark.parametrize("spec", FAMILIES_SAMPLE)
    def test_finite_type_determinant_positive(self, spec):
        d = parse_diagram_spec(spec)
        mat = cartan_matrix(d)
        for lo, hi in d.factor_spans:
            block = [[mat[i][j] for j in range(lo - 1, hi)] for i in range(lo - 1, hi)]
            assert _int_det(block) > 0


def _int_det(mat):
    """Fraction-free Gaussian elimination (Bareiss) determinant oracle."""
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


class TestInvolution:
    def test_a3(self):
        assert diagram_involution_table(parse_diagram_spec("A3")) == {1: 3, 2: 2, 3: 1}

    def test_f4_identity(self):
        d = parse_diagram_spec("F4")
        assert diagram_involution_table(d) == {v: v for v in range(1, 5)}

    def test_d5_fork_swap(self):
        assert diagram_involution_table(parse_diagram_spec("D5")) == {
            1: 1, 2: 2, 3: 3, 4: 5, 5: 4}

    def test_d4_identity(self):
        d = parse_diagram_spec("D4")
        assert diagram_involution_table(d) == {v: v for v in range(1, 5)}

    def test_e6(self):
        assert diagram_involution_table(parse_diagram_spec("E6")) == {
            1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}

    @pytest.mark.parametrize("spec", FAMILIES_SAMPLE)
    def test_involution_is_involutive_graph_automorphism(self, spec):
        d = parse_diagram_spec(spec)
        iota = diagram_involution_table(d)
        assert sorted(iota) == list(range(1, d.n + 1))
        for v, w in iota.items():
            assert iota[w] == v
        edge_data = {}
        for e in d.edges:
            a, b = sorted((e.a, e.b))
            edge_data[(a, b)] = (e.mult, e.short)
        for (a, b), (mult, short) in edge_data.items():
            ia, ib = sorted((iota[a], iota[b]))
            assert (ia, ib) in edge_data
            imult, ishort = edge_data[(ia, ib)]
            assert imult == mult
            assert ishort == (iota[short] if short is not None else None)


class TestTreePath:
    def test_line(self):
        assert tree_path(parse_diagram_spec("A4"), 1, 4) == [1, 2, 3, 4]

    def test_cross_factor_absent(self):
        assert tree_path(parse_diagram_spec("A2xA2"), 1, 3) is None

    def test_d4_fork(self):
        assert tree_path(parse_diagram_spec("D4"), 3, 4) == [3, 2, 4]

    def test_single_node(self):
        assert tree_path(parse_diagram_spec("B3"), 2, 2) == [2]

    def test_bad_node(self):
        with pytest.raises(DiagramError, match="out of range"):
            tree_path(parse_diagram_spec("A3"), 1, 9)

    @pytest.mark.parametrize("spec", FAMILIES_SAMPLE)
    def test_reversal_and_bfs_length_oracle(self, spec):
        d = parse_diagram_spec(spec)
        factor_of = node_factor(d)
        for a in range(1, d.n + 1):
            for b in range(1, d.n + 1):
                path = tree_path(d, a, b)
                rev = tree_path(d, b, a)
                if factor_of[a] != factor_of[b]:
                    assert path is None and rev is None
                    continue
                assert rev == path[::-1]
                assert len(path) == bfs_distance(d, a, b) + 1
                assert path[0] == a and path[-1] == b
                # consecutive path nodes really are edges
                adj_pairs = {(e.a, e.b) for e in d.edges} | {(e.b, e.a) for e in d.edges}
                assert all((path[i], path[i + 1]) in adj_pairs for i in range(len(path) - 1))


class TestStructure:
    @pytest.mark.parametrize("spec", FAMILIES_SAMPLE)
    def test_nodes_partition_into_factors(self, spec):
        d = parse_diagram_spec(spec)
        seen = []
        for lo, hi in d.factor_spans:
            seen.extend(range(lo, hi + 1))
        assert seen == list(range(1, d.n + 1))
        factor_of = node_factor(d)
        for e in d.edges:
            assert factor_of[e.a] == factor_of[e.b]
        for f, (lo, hi) in zip(d.factors, d.factor_spans):
            assert hi - lo + 1 == f.rank


class TestMarking:
    def test_parse_and_render(self):
        m = Marking.parse("2,4")
        assert m == (2, 4)
        assert m.render() == "2,4"
        assert Marking.parse("-") == ()
        assert Marking.parse("").render() == "-"

    def test_sorted_dedup(self):
        assert Marking([3, 1, 3]) == (1, 3)

    def test_a_marking_is_a_bare_immutable_tuple(self):
        m = Marking([3, 1])
        assert not hasattr(m, "__dict__")
        with pytest.raises(TypeError):
            m[0] = 2
        with pytest.raises(AttributeError):
            m.extra = 1
        assert hash(m) == hash((1, 3))
        assert {(1, 3): "key"}[m] == "key"

    def test_ascending_required(self):
        with pytest.raises(DiagramError, match="ascending"):
            Marking.parse("4,2")

    def test_bad_token(self):
        with pytest.raises(DiagramError, match="bad marking token"):
            Marking.parse("1,x")

    def test_overlong_token_out_of_range(self):
        with pytest.raises(DiagramError, match="out of range"):
            Marking.parse("1," + "9" * 5000)
        assert Marking.parse("0041") == (41,)

    @pytest.mark.parametrize("token, digits", [("0123", 3), ("123", 3), ("000999", 3),
                                               ("0" * 9 + "12345", 5)])
    def test_overlong_node_counts_digits_without_leading_zeros(self, token, digits):
        with pytest.raises(DiagramError, match=f"^node of {digits} digits out of range$"):
            Marking.parse(f"1,{token}")

    def test_validate_on(self):
        d = parse_diagram_spec("A3")
        with pytest.raises(DiagramError, match="node 9 out of range"):
            Marking.parse("9").validate_on(d)

    def test_set_ops(self):
        a, b = Marking([1, 2]), Marking([2, 3])
        assert a.union(b) == (1, 2, 3)
        assert a.minus(b) == (1,)
        assert a.intersect(b) == (2,)
        assert Marking([2]).issubset(a)


class TestRelabel:
    def test_empty(self):
        assert relabel_to_standard(parse_diagram_spec("A3"), ()) == (None, {})

    def test_a_reversal_prefers_low_marking(self):
        d = parse_diagram_spec("A3")
        sub, mapping = relabel_to_standard(d, [1, 2, 3], marking=[3])
        assert sub.type_string == "A3"
        assert mapping[3] == 1

    def test_c_tail_of_f4(self):
        d = parse_diagram_spec("F4")
        sub, mapping = relabel_to_standard(d, [2, 3, 4])
        assert sub.type_string == "C3"
        assert mapping == {4: 1, 3: 2, 2: 3}

    def test_b_tail_of_f4(self):
        d = parse_diagram_spec("F4")
        sub, mapping = relabel_to_standard(d, [1, 2, 3])
        assert sub.type_string == "B3"
        assert mapping == {1: 1, 2: 2, 3: 3}

    def test_b2_from_c_tail(self):
        d = parse_diagram_spec("C4")
        sub, mapping = relabel_to_standard(d, [3, 4])
        assert sub.type_string == "B2"
        # long root gets position 1
        assert mapping == {4: 1, 3: 2}

    def test_d5_inside_e6(self):
        d = parse_diagram_spec("E6")
        sub, _ = relabel_to_standard(d, [1, 2, 3, 4, 5])
        assert sub.type_string == "D5"

    def test_product_pieces(self):
        d = parse_diagram_spec("B4")
        sub, mapping = relabel_to_standard(d, [1, 3, 4], marking=[4])
        assert sub.type_string == "A1xB2"
        assert mapping[1] == 1 and mapping[3] == 2 and mapping[4] == 3


# F4 is already among the rank-5 diagrams; dict.fromkeys keeps one copy
RELABEL_SPECS = list(dict.fromkeys(
    diagrams_up_to_rank(5) + ["D6", "D7", "E6", "E7", "E8", "F4"]))
RELABEL_GOLDEN = Path(__file__).parent / "golden" / "relabel_sha256.json"


def all_subsets(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def bond_set(edges, rename):
    """Bonds as (unordered ends, multiplicity, short end) after renaming."""
    return {(frozenset((rename[e.a], rename[e.b])), e.mult, rename.get(e.short))
            for e in edges}


def induced_edges(d, nodes):
    return [e for e in d.edges if e.a in nodes and e.b in nodes]


def is_connected(d, nodes):
    """Oracle: plain graph search on the adjacency lists."""
    seen, stack = {nodes[0]}, [nodes[0]]
    while stack:
        for w in d.adjacency[stack.pop()]:
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


class TestRelabelOracles:
    def test_matches_recorded_digest(self):
        """Every node set and every marking within it, on every diagram of
        total rank <= 5 plus D6, D7, E6, E7, E8 and F4: the digest of all
        (type, mapping) results was recorded from the classifier that
        preceded the edge-table matcher."""
        want = json.loads(RELABEL_GOLDEN.read_text())
        digest, calls = hashlib.sha256(), 0
        for spec in RELABEL_SPECS:
            d = parse_diagram_spec(spec)
            for nodes in all_subsets(range(1, d.n + 1)):
                for marking in all_subsets(nodes):
                    sub, mapping = relabel_to_standard(d, nodes, marking)
                    line = f"{spec} {nodes} {marking} {sub} {sorted(mapping.items())}\n"
                    digest.update(line.encode())
                    calls += 1
        assert (len(RELABEL_SPECS), calls) == (want["diagrams"], want["calls"])
        assert digest.hexdigest() == want["sha256"]

    @pytest.mark.parametrize("spec", FAMILIES_SAMPLE)
    def test_edges_carried_onto_edge_tables(self, spec):
        d = parse_diagram_spec(spec)
        for nodes in all_subsets(range(1, d.n + 1)):
            if not nodes:
                continue
            for marking in all_subsets(nodes):
                sub, mapping = relabel_to_standard(d, nodes, marking)
                assert sorted(mapping) == list(nodes)
                assert sorted(mapping.values()) == list(range(1, sub.n + 1))
                identity = {v: v for v in range(1, sub.n + 1)}
                assert (bond_set(induced_edges(d, set(nodes)), mapping)
                        == bond_set(sub.edges, identity))

    @pytest.mark.parametrize("spec", ["A6", "B6", "C6", "D6", "D7", "E6", "E7", "E8",
                                      "F4", "G2", "A2xG2"])
    def test_permutation_brute_force_minimum(self, spec):
        """Components of at most 6 nodes: try every bijection onto every
        standard diagram of that size, keep those that carry the bonds
        exactly, and take the minimum under the documented key."""
        d = parse_diagram_spec(spec)
        for k in range(1, min(d.n, 6) + 1):
            targets = []
            for fam in "ABCDEFG":
                try:
                    std = parse_diagram_spec(f"{fam}{k}")
                except DiagramError:
                    continue
                identity = {v: v for v in range(1, k + 1)}
                targets.append((std.type_string, bond_set(std.edges, identity)))
            for comp in combinations(range(1, d.n + 1), k):
                if not is_connected(d, comp):
                    continue
                bonds = induced_edges(d, set(comp))
                valid = [(name, perm) for perm in permutations(comp)
                         for name, want in targets
                         if bond_set(bonds, {v: i + 1 for i, v in enumerate(perm)}) == want]
                for marking in all_subsets(comp):
                    name, best = min(valid, key=lambda nv: (
                        tuple(i + 1 for i, v in enumerate(nv[1]) if v in marking), nv[1]))
                    sub, mapping = relabel_to_standard(d, comp, marking)
                    assert sub.type_string == name
                    assert mapping == {v: i + 1 for i, v in enumerate(best)}
