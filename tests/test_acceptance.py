"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from itertools import chain, combinations

from parhom import (Marking, ParabolicPair, chain_analysis, cycle_descriptor,
                    diagram_involution_table, exception_flags, generate_roots,
                    parse_diagram_spec, reduction)
from reduction_oracle import brute_force_reduction
from weyl_oracle import enumerate_weyl, involution_via_w0, longest_element

POS_COUNT_FORMULA = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}

FAMILIES_BY_RANK = {1: "A", 2: "ABG", 3: "ABC", 4: "ABCDF", 5: "ABCD"}


def subsets(n):
    return list(chain.from_iterable(combinations(range(1, n + 1), k)
                                    for k in range(n + 1)))


def diagrams_up_to_rank(total):
    """Every product diagram (factor multiset) of total rank <= total."""
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


def announce(name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_connectivity_theorem():
    types = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
             "G2", "F4", "A2xA2", "A1xB2"]

    def body():
        start = time.time()
        mismatches = []
        for spec in types:
            d = parse_diagram_spec(spec)
            subs = subsets(d.n)
            for p in subs:
                if not p:
                    continue
                for q in subs:
                    pair = ParabolicPair(d, Marking(p), Marking(q))
                    res = chain_analysis(pair)
                    criterion = not (set(p) & set(q))
                    if not res.complete or res.connected != criterion:
                        mismatches.append((spec, p, q))
        assert mismatches == []
        assert time.time() - start < 600

    announce("1 connectivity-theorem", body)


def test_criterion_2_reduction_oracle():
    def body():
        start = time.time()
        diagrams = diagrams_up_to_rank(5)
        assert "A5" in diagrams and "A1xA1xA1xA1xA1" in diagrams and "B2xC3" in diagrams
        mismatches = []
        for spec in diagrams:
            d = parse_diagram_spec(spec)
            subs = subsets(d.n)
            for p in subs:
                for q in subs:
                    pair = ParabolicPair(d, Marking(p), Marking(q))
                    fast = reduction(pair).reduced_marking
                    slow = brute_force_reduction(pair)  # raises if non-unique
                    if fast != slow:
                        mismatches.append((spec, p, q))
        assert mismatches == []
        assert time.time() - start < 60

    announce("2 reduction-oracle", body)


def test_criterion_3_moduli_consistency():
    def body():
        mismatches = []
        for spec in diagrams_up_to_rank(5):
            d = parse_diagram_spec(spec)
            subs = subsets(d.n)
            for p in subs:
                for q in subs:
                    pair = ParabolicPair(d, Marking(p), Marking(q))
                    reduced = reduction(pair).reduced_marking
                    alt = ParabolicPair(d, Marking(p), reduced)
                    if cycle_descriptor(pair).dim != cycle_descriptor(alt).dim:
                        mismatches.append((spec, p, q))
        assert mismatches == []

    announce("3 moduli-consistency", body)


def test_criterion_4_weyl_orders():
    def body():
        expected = {"A3": 24, "B3": 48, "D4": 192, "F4": 1152, "G2": 12}
        for spec, order in expected.items():
            rs = generate_roots(parse_diagram_spec(spec))
            assert len(enumerate_weyl(rs, range(1, rs.diagram.n + 1))) == order
        start = time.time()
        rs = generate_roots(parse_diagram_spec("E6"))
        assert len(enumerate_weyl(rs, range(1, 7), weyl_limit=60000)) == 51840
        assert time.time() - start < 60

    announce("4 weyl-orders", body)


def test_criterion_5_involution_cross_check():
    specs = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
             "D4", "D5", "F4", "G2", "E6"]

    def body():
        for spec in specs:
            rs = generate_roots(parse_diagram_spec(spec))
            assert involution_via_w0(rs) == diagram_involution_table(rs)

    announce("5 involution-cross-check", body)


def test_criterion_6_worked_grassmannian():
    def body():
        pair = ParabolicPair(parse_diagram_spec("A3"), Marking([2]), Marking([1]))
        desc = cycle_descriptor(pair)
        assert desc.dim == 2
        assert desc.type_string == "A2"
        assert desc.marking == (1,)  # an end of the A2 diagram
        from test_geometry import dual_cycle_dim
        assert dual_cycle_dim(pair) == 1
        assert reduction(pair).reduced_marking == (1,)
        res = chain_analysis(pair)
        assert res.reachable_dims == (0, 3, 4)
        assert res.minimal_n == 2

    announce("6 worked-grassmannian", body)


def test_criterion_7_exception_tables():
    specs = ["B2", "B3", "B4", "B5", "C3", "C4", "C5", "F4", "G2"]

    def expected_tangency(spec):
        d = parse_diagram_spec(spec)
        fam, rank = d.factors[0].family, d.factors[0].rank
        if fam == "B":
            return {((i,), tuple(sorted({i - 1, rank}))) for i in range(2, rank + 1)}
        if fam == "C":
            return {((rank,), (rank - 1,))}
        if fam == "F":
            return {((1,), (3,))}
        if fam == "G":
            return {((2,), (1,))}
        return set()

    larger_table = {("C", lambda r: (1,)): "OddSymplecticProjective",
                    ("B", lambda r: (r,)): "SpinorOddOrthogonal",
                    ("G", lambda r: (1,)): "G2Quadric"}

    def expected_larger(spec, p, q):
        # independent route: brute-force the reduction of P mod Q
        d = parse_diagram_spec(spec)
        pair = ParabolicPair(d, Marking(q), Marking(p))
        reduced_p = tuple(brute_force_reduction(pair))
        fam, rank = d.factors[0].family, d.factors[0].rank
        for (f, marker), case in larger_table.items():
            if fam == f and reduced_p == marker(rank):
                return case
        return None

    def body():
        for spec in specs:
            d = parse_diagram_spec(spec)
            subs = subsets(d.n)
            flagged = set()
            for p in subs:
                for q in subs:
                    pair = ParabolicPair(d, Marking(p), Marking(q))
                    flags = exception_flags(pair)
                    if flags.mok_zhang_exception:
                        flagged.add((p, q))
                    case = flags.larger_automorphism_case
                    want = expected_larger(spec, p, q)
                    assert (case.value if case else None) == want, (spec, p, q)
            assert flagged == expected_tangency(spec), spec

    announce("7 exception-tables", body)


def test_criterion_8_root_count_identities():
    specs = (["A%d" % r for r in range(1, 9)] + ["B%d" % r for r in range(2, 9)]
             + ["C%d" % r for r in range(3, 9)] + ["D%d" % r for r in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])

    def body():
        for spec in specs:
            rs = generate_roots(parse_diagram_spec(spec))
            f = rs.diagram.factors[0]
            assert rs.num_positive == POS_COUNT_FORMULA[f.family](f.rank), spec
            w0 = longest_element(rs)
            assert w0.length == rs.num_positive, spec
            assert (w0 * w0).is_identity(), spec

    announce("8 root-count-identities", body)


def test_criterion_9_determinism():
    def body():
        from contextlib import redirect_stdout
        from io import StringIO

        from parhom.cli import main

        argv = ["enumerate", "--type", "F4", "--with-chains", "--format", "tsv"]
        outputs = []
        for _ in range(2):
            buf = StringIO()
            with redirect_stdout(buf):
                assert main(argv) == 0
            outputs.append(buf.getvalue())
        assert outputs[0].encode() == outputs[1].encode()
        assert len(outputs[0].strip().splitlines()) == 1 + 15 * 16

    announce("9 determinism", body)
