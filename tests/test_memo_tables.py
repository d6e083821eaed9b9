"""The per-diagram memo tables on `RootSystem` (flag dimensions, splits of
D minus a marking, relabelled cycles, Weyl-group orders) and its memo of
scanned chain sizes: the values read through them match oracles that
share no code with them, or cold runs, when warm; bad nodes and guard
limits still raise; a table never hands out a mutable value; and whole
sweeps print the recorded bytes, however warm the tables are."""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import reduction_oracle as oracle
from parhom import (DiagramError, GuardLimitError, Marking, ParabolicPair,
                    chain_analysis, cycle_descriptor, dim_flag, exception_flags,
                    generate_roots, is_separating, parse_diagram_spec, reduction,
                    relabel_to_standard, weyl_order)
from parhom import dynkin
from parhom.cli import main
from test_connectivity import scan_fields
from test_geometry import diagrams_up_to_rank, subsets

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run_cli(argv) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


# -- exception flags: P mod Q against the path-walking swapped reduction --

@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "C5", "D5", "F4", "G2", "A2xG2", "E6"])
def test_exception_flags_match_swapped_reduction(spec):
    d = parse_diagram_spec(spec)
    fired = 0
    for p in subsets(d.n):
        for q in subsets(d.n):
            pair = ParabolicPair(d, p, q)
            want = oracle.larger_automorphism_case(pair)
            assert exception_flags(pair).larger_automorphism_case is want, (spec, p, q)
            fired += want is not None
    # every family with a table entry fires somewhere, so the test has teeth
    assert fired or spec in ("A4", "D5", "F4", "E6")


# -- dim G/P in closed form, from the Levi types ------------------------------

def _levi_positive_roots(family: str, rank: int, marked: set[int]) -> int:
    """|Phi+| of the Levi of one factor with the given local marking, summed
    over its components by the closed forms of each type.  The factor's
    Bourbaki diagram is written out here, apart from the library's tables."""
    nodes = [v for v in range(1, rank + 1) if v not in marked]
    if family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    elif family == "E":
        edges = [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, rank)]
    else:
        edges = [(i, i + 1) for i in range(1, rank)]
    adj = {v: set() for v in nodes}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    total, seen = 0, set()
    for start in nodes:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        k = len(comp)
        branch = [v for v in comp if len(adj[v]) == 3]
        if family in "BC" and rank in comp:  # holds the double bond, or is A1 = B1
            total += k * k
        elif family == "F" and {2, 3} <= comp:  # B2, B3, C3 or F4
            total += 24 if k == 4 else k * k
        elif family == "G" and k == 2:
            total += 6
        elif branch:  # a fork with arms (1, 1, m): D; (1, 2, 2|3|4): E6, E7, E8
            arms = sorted(len(_arm(adj, branch[0], w)) for w in adj[branch[0]])
            total += {(1, 2, 2): 36, (1, 2, 3): 63, (1, 2, 4): 120}.get(
                tuple(arms), k * (k - 1))
        else:
            total += k * (k + 1) // 2
    return total


def _arm(adj, centre, first):
    arm, prev, v = [first], centre, first
    while len(adj[v]) == 2:
        prev, v = v, next(w for w in adj[v] if w != prev)
        arm.append(v)
    return arm


def closed_form_dim(d, psi) -> int:
    """dim G/P = |Phi+| - sum of |Phi+(L)| over the Levi components L."""
    out = 0
    for f, (lo, hi) in zip(d.factors, d.factor_spans):
        local = {v - lo + 1 for v in psi if lo <= v <= hi}
        out += _levi_positive_roots(f.family, f.rank, set()) \
            - _levi_positive_roots(f.family, f.rank, local)
    return out


@pytest.mark.parametrize("spec", diagrams_up_to_rank(5) + ["D7", "E6", "E7", "E8"])
def test_dim_flag_matches_closed_form_cold_and_warm(spec):
    d = parse_diagram_spec(spec)
    want = {p: closed_form_dim(d, p) for p in subsets(d.n)}
    generate_roots.cache_clear()
    assert {p: dim_flag(d, p) for p in want} == want  # every lookup a miss
    assert len(generate_roots(d).flag_dims) == 2 ** d.n
    assert {p: dim_flag(d, Marking(p)) for p in want} == want  # every one a hit


def test_closed_form_knows_the_exceptional_groups():
    for spec, roots in (("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24), ("G2", 6),
                        ("D7", 42), ("B5", 25), ("C4", 16), ("A5", 15)):
        d = parse_diagram_spec(spec)
        assert closed_form_dim(d, range(1, d.n + 1)) == roots


# -- validation, immutability and table sizes after a warm sweep -------------

@pytest.fixture(scope="module")
def warm_e6():
    generate_roots.cache_clear()
    run_cli(["enumerate", "--type", "E6"])
    return parse_diagram_spec("E6")


def test_bad_nodes_still_raise_after_a_warm_sweep(warm_e6):
    d = warm_e6
    for bad in ([7], [0], [1, 7]):
        with pytest.raises(DiagramError):
            dim_flag(d, bad)
        with pytest.raises(DiagramError):
            ParabolicPair(d, bad, [1])
        with pytest.raises(DiagramError):
            is_separating(ParabolicPair(d, [1], [2]), bad)
    rs = generate_roots(d)
    for key in list(rs.flag_dims) + list(rs.levi_splits):
        assert all(1 <= v <= d.n for v in key)


def test_tables_stay_within_their_bounds(warm_e6):
    rs = generate_roots(warm_e6)
    assert len(rs.flag_dims) <= 2 ** 6
    assert len(rs.levi_splits) <= 2 ** 6
    assert 0 < len(rs.cycles) <= 3 ** 6
    for type_string, marking, diagram in rs.cycles.values():
        assert isinstance(type_string, str) and isinstance(marking, Marking)
        assert (diagram is None) == (not type_string)
        assert diagram is None or diagram.type_string == type_string


def test_mutating_a_relabel_mapping_leaves_the_cycle_alone(warm_e6):
    d = warm_e6
    pair = ParabolicPair(d, [1, 6], [3])
    before = cycle_descriptor(pair)
    nodes = sum(pair.cycle_components, ())
    sub, mapping = relabel_to_standard(d, nodes, marking=pair.psi_p.minus(pair.psi_q))
    for v in mapping:
        mapping[v] = 99
    mapping[100] = 1
    after = cycle_descriptor(pair)
    assert after == before
    assert after.marking == tuple(
        relabel_to_standard(d, nodes, marking=[1, 6])[1][v] for v in (1, 6))


def test_cache_clear_drops_the_tables():
    d = parse_diagram_spec("B3")
    cycle_descriptor(ParabolicPair(d, [1], [2]))
    weyl_order(d, [1])
    old = generate_roots(d)
    assert old.flag_dims and old.levi_splits and old.cycles and old.weyl_orders
    generate_roots.cache_clear()
    fresh = generate_roots(d)
    assert fresh is not old
    assert not fresh.flag_dims and not fresh.levi_splits and not fresh.cycles
    assert not fresh.weyl_orders


# -- relabeling orderings, per connected node set -----------------------------

@pytest.mark.parametrize("spec", ["D6", "E7"])
def test_relabel_orderings_warm_equal_cold(spec):
    d = parse_diagram_spec(spec)
    cases = [(nodes, marks) for nodes in subsets(d.n)
             for k in range(len(nodes) + 1) for marks in combinations(nodes, k)]
    cold = {}
    for nodes, marks in cases:
        dynkin._orderings.cache_clear()
        cold[nodes, marks] = relabel_to_standard(d, nodes, marks)
    dynkin._orderings.cache_clear()
    assert {case: relabel_to_standard(d, *case) for case in cases} == cold
    info = dynkin._orderings.cache_info()
    assert info.misses < 2 ** d.n < info.hits  # once per connected node set
    assert {case: relabel_to_standard(d, *case) for case in cases} == cold


def test_cached_orderings_are_immutable():
    d = parse_diagram_spec("D5")
    factor, orderings = dynkin._orderings(d, (1, 2, 3, 4, 5))
    assert str(factor) == "D5" and len(orderings) == 2  # the fork swap
    assert isinstance(orderings, tuple)
    assert all(isinstance(o, tuple) for o in orderings)
    assert dynkin._orderings(d, (1, 2, 3, 4, 5))[1] is orderings


# -- Weyl-group orders, per marking -------------------------------------------

@pytest.mark.parametrize("spec", ["A4", "B3xG2", "D5", "E6"])
def test_weyl_orders_warm_equal_cold(spec):
    d = parse_diagram_spec(spec)
    cold = {}
    for p in subsets(d.n):
        generate_roots.cache_clear()
        cold[p] = weyl_order(d, p)
    generate_roots.cache_clear()
    assert {p: weyl_order(d, p) for p in cold} == cold  # every lookup a miss
    assert len(generate_roots(d).weyl_orders) == 2 ** d.n
    assert {p: weyl_order(d, Marking(p)) for p in cold} == cold  # every one a hit


def test_bad_nodes_raise_against_a_warm_weyl_order_table():
    d = parse_diagram_spec("E6")
    generate_roots.cache_clear()
    run_cli(["enumerate", "--type", "E6", "--with-chains"])
    table = generate_roots(d).weyl_orders
    warm = dict(table)
    assert 0 < len(warm) <= 2 ** 6
    for bad in ([7], [0], [1, 7]):
        with pytest.raises(DiagramError):
            weyl_order(d, bad)
    assert table == warm  # nothing stored for a bad marking
    assert all(1 <= v <= d.n for key in table for v in key)


# -- whole sweeps print the recorded bytes ------------------------------------

RECORDED = json.loads((BENCH / "reference.json").read_text())["commands"]


@pytest.mark.parametrize("argv", workloads.SWEEP, ids=" ".join)
def test_sweep_matches_recorded_digest(argv):
    got = hashlib.sha256(run_cli(argv)).hexdigest()
    assert got == RECORDED[" ".join(argv)]


@pytest.mark.parametrize("argv", workloads.SWEEP[1:], ids=" ".join)
def test_tsv_sweeps_draw_no_witness_path(monkeypatch, argv):
    """TSV rows print no witnesses, so no row draws a path, neither for Q
    mod P nor for the swapped-pair reduction on the B factor."""
    def refuse(*args):
        raise AssertionError("a TSV sweep drew a witness path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "parhom" and hasattr(module, "tree_path"):
            monkeypatch.setattr(module, "tree_path", refuse)
    assert hashlib.sha256(run_cli(argv)).hexdigest() == RECORDED[" ".join(argv)]


def test_sweep_bytes_do_not_depend_on_table_state():
    argv = ["enumerate", "--type", "B5"]
    generate_roots.cache_clear()
    cold = run_cli(argv)
    assert run_cli(argv) == cold
    generate_roots.cache_clear()
    assert run_cli(argv) == cold


# -- the memo of scanned chain sizes -------------------------------------------

@pytest.mark.parametrize("spec,distinct", [("F4", 150), ("D5", 564), ("A2xG2", 120)])
def test_warm_scans_equal_cold_ones(spec, distinct):
    # the pairs `build_report` scans in an `enumerate --with-chains` sweep
    d = parse_diagram_spec(spec)
    subs = subsets(d.n)
    scanned = [(p, reduction(ParabolicPair(d, p, q)).reduced_marking)
               for p in subs[1:] for q in subs]
    cold = []
    for p, q in scanned:
        generate_roots.cache_clear()  # a pair keeps the root system it was made with
        cold.append(scan_fields(chain_analysis(ParabolicPair(d, p, q))))
    generate_roots.cache_clear()
    pairs = [ParabolicPair(d, p, q) for p, q in scanned]
    warm, entries = [], 0
    for i, pair in enumerate(pairs):
        warm.append(scan_fields(chain_analysis(pair)))
        if i + 1 == len(pairs) or pairs[i + 1].psi_p != pair.psi_p:
            # the memo entries of this psi_p, the last one scanned
            entries += sum(key[0] == pair.psi_p for key in generate_roots(d).scans)
    assert warm == cold
    # one scan per distinct (psi_p, red psi_q) whose level 1 is short of
    # |W_R|, R = psi_p & psi_q; the other levels are closed form, and each
    # of the other rows a hit
    assert len(set(scanned)) == distinct < len(pairs)
    assert entries == len({(p, q) for (p, q), (_, _, sizes, _, _) in zip(scanned, cold)
                           if sizes[1] < weyl_order(d, Marking(p).intersect(q))}) > 0


def test_mutating_a_returned_scan_leaves_the_next_alone():
    pair = ParabolicPair(parse_diagram_spec("D5"), [2], [1, 3])
    first = chain_analysis(pair)
    want = (list(first.reachable_sizes), list(first.reachable_dims))
    first.reachable_sizes[0] = -1
    first.reachable_sizes.append(0)
    first.reachable_dims.clear()
    again = chain_analysis(pair)
    assert (again.reachable_sizes, again.reachable_dims) == want


def test_truncated_scan_is_not_served_from_the_full_entry():
    pair = ParabolicPair(parse_diagram_spec("D5"), [1, 5], [3])
    full = chain_analysis(pair)
    assert full.complete and full.minimal_n > 1
    short = chain_analysis(pair, max_k=1)
    assert not short.complete and short.minimal_n is None
    assert short.reachable_sizes == full.reachable_sizes[:2]
    generate_roots.cache_clear()
    cold = ParabolicPair(pair.diagram, pair.psi_p, pair.psi_q)  # on the new root system
    assert scan_fields(chain_analysis(cold, max_k=1)) == scan_fields(short)
    assert scan_fields(chain_analysis(cold)) == scan_fields(full)


def test_guard_holds_on_a_warm_memo():
    pair = ParabolicPair(parse_diagram_spec("D5"), range(1, 6), [2])
    assert chain_analysis(pair).connected is False  # the Borel orbit, 1,920 points
    with pytest.raises(GuardLimitError) as exc:
        chain_analysis(pair, weyl_limit=1919)
    assert exc.value.estimated == 1920


def test_memo_goes_with_the_orbit_slot():
    # the memo holds the scanned sizes of one psi_p, as tuples of ints, keyed
    # (psi_p, psi_q, max_k); a scan of another psi_p drops them
    d = parse_diagram_spec("F4")
    generate_roots.cache_clear()
    rs = generate_roots(d)
    chain_analysis(ParabolicPair(d, [1], [2]))
    chain_analysis(ParabolicPair(d, [1], [3]))
    assert set(rs.scans) == {((1,), (2,), 32), ((1,), (3,), 32)}
    assert all(type(sizes) is tuple and all(type(x) is int for x in sizes)
               for sizes in rs.scans.values())
    chain_analysis(ParabolicPair(d, [4], [2]))
    assert set(rs.scans) == {((4,), (2,), 32)}
    chain_analysis(ParabolicPair(d, [1], [3]))
    assert set(rs.scans) == {((1,), (3,), 32)}
