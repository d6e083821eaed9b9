"""Flag, cycle and tower dimensions, checked against direct root counting."""

from itertools import chain, combinations

import pytest

from parhom import (Marking, ParabolicPair, build_report, cycle_descriptor,
                    dim_flag, generate_roots, parse_diagram_spec, reduction,
                    report_to_dict)


def dual_cycle_dim(pair):
    """Dimension of the dual cycle (the fiber-direction count on the other
    leg of the double fibration)."""
    d = pair.diagram
    return dim_flag(d, pair.union_marking) - dim_flag(d, pair.psi_p)


def tower_block(pair):
    """The `tower` block of the pair's JSON report."""
    return report_to_dict(build_report(pair.diagram, pair.psi_p, pair.psi_q))["tower"]


def subsets(n):
    return list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(n + 1)))


FAMILIES_BY_RANK = {1: "A", 2: "ABG", 3: "ABC", 4: "ABCDF", 5: "ABCD"}


def diagrams_up_to_rank(total):
    out = []

    def extend(prefix, remaining, floor):
        if prefix:
            out.append("x".join(f"{f}{r}" for r, f in prefix))
        for r in range(1, remaining + 1):
            for f in FAMILIES_BY_RANK[r]:
                key = (r, f)
                if key < floor:
                    continue
                extend(prefix + [key], remaining - r, key)

    extend([], total, (0, ""))
    return out


def direct_flag_dim(d, psi):
    """Oracle: count positive roots whose support meets psi, from raw coords."""
    rs = generate_roots(d)
    psi = set(psi)
    return sum(1 for c in rs.positive_roots
               if any(x != 0 and (i + 1) in psi for i, x in enumerate(c)))


def direct_cycle_dim(d, psi_p, psi_q):
    """Oracle: positive roots avoiding psi_q whose support meets psi_p."""
    rs = generate_roots(d)
    psi_p, psi_q = set(psi_p), set(psi_q)
    count = 0
    for c in rs.positive_roots:
        support = {i + 1 for i, x in enumerate(c) if x != 0}
        if not (support & psi_q) and (support & psi_p):
            count += 1
    return count


class TestDimFlag:
    def test_grassmannian(self):
        assert dim_flag(parse_diagram_spec("A3"), [2]) == 4

    def test_empty_marking_point(self):
        for spec in ("A3", "B4", "A2xG2"):
            assert dim_flag(parse_diagram_spec(spec), ()) == 0

    def test_full_marking_is_all_positive_roots(self):
        d = parse_diagram_spec("A3")
        assert dim_flag(d, [1, 2, 3]) == 6

    @pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2", "A1xB2"])
    def test_matches_direct_count_and_monotone(self, spec):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        dims = {s: dim_flag(d, s) for s in subs}
        for s in subs:
            assert dims[s] == direct_flag_dim(d, s)
            for t in subs:
                if set(s) <= set(t):
                    assert dims[s] <= dims[t]


class TestCycleDescriptor:
    def test_plane_pencil(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking([1]))
        desc = cycle_descriptor(pair)
        assert desc.type_string == "A2"
        assert desc.marking == (1,)
        assert desc.dim == 2
        assert not desc.is_point and not desc.is_whole_space

    def test_point_when_q_inside_p(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking([2]))
        desc = cycle_descriptor(pair)
        assert desc.is_point and desc.dim == 0 and desc.type_string == ""

    def test_whole_space_when_q_is_everything(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking(()))
        desc = cycle_descriptor(pair)
        assert desc.is_whole_space and desc.dim == 4

    def test_f4_tail_gives_c3(self):
        pair = ParabolicPair(parse_diagram_spec("F4"), Marking([4]), Marking([1]))
        desc = cycle_descriptor(pair)
        assert desc.type_string == "C3"
        assert desc.marking == (1,)
        assert desc.dim == 5
        assert desc.dim == desc.dim_recomputed()

    def test_unmarked_components_dropped(self):
        # removing the middle of A5 strands the far end; only the component
        # meeting the surviving marks stays
        pair = ParabolicPair(parse_diagram_spec("A5"), Marking([1]), Marking([3]))
        desc = cycle_descriptor(pair)
        assert desc.type_string == "A2"
        assert desc.marking == (1,)

    @pytest.mark.parametrize("spec", ["F4"] + diagrams_up_to_rank(5))
    def test_exhaustive_consistency(self, spec):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                pair = ParabolicPair(d, Marking(p), Marking(q))
                desc = cycle_descriptor(pair)
                assert desc.dim == direct_cycle_dim(d, p, q)
                assert desc.dim == desc.dim_recomputed()
                assert desc.is_point == (desc.dim == 0)
                assert desc.is_point == set(p).issubset(set(q))
                assert desc.is_whole_space == (not q)

    @pytest.mark.parametrize("spec", ["A4", "B3", "D4", "A2xA2"])
    def test_moduli_dim_invariant_under_reduction(self, spec):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                pair = ParabolicPair(d, Marking(p), Marking(q))
                reduced = reduction(pair).reduced_marking
                alt = ParabolicPair(d, Marking(p), reduced)
                assert cycle_descriptor(alt).dim == cycle_descriptor(pair).dim


class TestDualCycleDim:
    def test_lines_in_a_plane(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking([1]))
        assert dual_cycle_dim(pair) == 1

    def test_symmetric_pair_is_point(self):
        pair = ParabolicPair(parse_diagram_spec("B3"), Marking([1, 3]), Marking([1, 3]))
        assert dual_cycle_dim(pair) == 0

    def test_p_inside_q(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([1, 2, 3]), Marking([1]))
        assert dual_cycle_dim(pair) == 0


class TestTowerDims:
    def test_worked_example(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking([1]))
        t = tower_block(pair)
        assert (t["k_cycle"], t["l_dual"]) == (2, 1)
        assert t["level_increment"] == 3  # the level-2 tower has dimension 6

    def test_point_cycles(self):
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking([1, 2]))
        t = tower_block(pair)
        assert t["k_cycle"] == 0
        assert t["level_increment"] == t["l_dual"]

    @pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
    def test_level_one_identity_and_growth(self, spec):
        d = parse_diagram_spec(spec)
        subs = subsets(d.n)
        for p in subs:
            for q in subs:
                pair = ParabolicPair(d, Marking(p), Marking(q))
                t = tower_block(pair)
                u = pair.union_marking
                assert (t["k_cycle"], t["l_dual"]) == (
                    cycle_descriptor(pair).dim, dual_cycle_dim(pair))
                assert t["level_increment"] == (
                    2 * dim_flag(d, u) - dim_flag(d, p) - dim_flag(d, q))
                assert t["level_increment"] >= 0
