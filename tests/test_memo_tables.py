"""The per-diagram memo tables on `RootSystem` (flag dimensions and
Weyl-group orders from the Levi walks, splits of D minus a marking,
relabelled cycles) and the memo of chain analyses on
`report.PsiPContext`: the values read through them
match oracles that share no code with them, or cold runs, when warm; bad
nodes and guard limits still raise; a table never hands out a mutable
value; and whole sweeps print the recorded bytes, however warm the tables
are."""

import dataclasses
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import reduction_oracle as oracle
from parhom import (ChainAnalysis, DiagramError, GuardLimitError, Marking, ParabolicPair,
                    build_report, chain_analysis, cycle_descriptor, dim_flag, exception_flags,
                    generate_roots, is_separating, parse_diagram_spec,
                    relabel_to_standard, weyl_order)
from parhom import dynkin
from parhom.cli import main
from parhom.report import PsiPContext
from test_connectivity import scan_fields
from test_geometry import diagrams_up_to_rank, markings_of, subsets

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run_cli(argv) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


# -- exception flags: P mod Q against the path-walking swapped reduction --

@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "C5", "D5", "F4", "G2", "A2xG2", "E6",
                                  "B3xC3", "C3xG2", "G2xB2"])
def test_exception_flags_match_swapped_reduction(spec):
    d = parse_diagram_spec(spec)
    fired = both = 0
    for p in subsets(d.n):
        for q in subsets(d.n):
            pair = ParabolicPair(d, p, q)
            cases = oracle.larger_automorphism_cases(pair)
            want = cases[0] if cases else None
            assert exception_flags(pair).larger_automorphism_case is want, (spec, p, q)
            fired += want is not None
            both += len(cases) > 1
    # every family with a table entry fires somewhere, so the test has teeth;
    # on the products of two such families some pairs match on both
    # factors, where the first factor must win
    assert fired or spec in ("A4", "D5", "F4", "E6")
    assert (both > 0) == (spec in ("B3xC3", "C3xG2", "G2xB2"))


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


@pytest.mark.parametrize("spec", diagrams_up_to_rank(5) + ["D7", "E6", "E7", "E8", "A40",
                                                         "B40", "C40", "D40", "B20xC20"])
def test_dim_flag_matches_closed_form_cold_and_warm(spec):
    d = parse_diagram_spec(spec)
    want = {p: closed_form_dim(d, p) for p in markings_of(spec, d.n)}
    generate_roots.cache_clear()
    assert {p: dim_flag(generate_roots(d), p) for p in want} == want  # every lookup a miss
    assert len(generate_roots(d).levi_walks) == len(want)
    assert {p: dim_flag(generate_roots(d), Marking(p)) for p in want} == want  # every one a hit


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
            dim_flag(generate_roots(d), bad)
        with pytest.raises(DiagramError):
            ParabolicPair(d, bad, [1])
        with pytest.raises(DiagramError):
            is_separating(ParabolicPair(d, [1], [2]), bad)
    rs = generate_roots(d)
    for key in list(rs.levi_walks) + list(rs.levi_splits):
        assert all(1 <= v <= d.n for v in key)


def test_tables_stay_within_their_bounds(warm_e6):
    rs = generate_roots(warm_e6)
    assert len(rs.levi_walks) <= 2 ** 6
    assert len(rs.levi_splits) <= 2 ** 6
    assert 0 < len(rs.cycles) <= 3 ** 6
    for type_string, marking, roots in rs.cycles.values():
        assert isinstance(type_string, str) and isinstance(marking, Marking)
        assert (roots is None) == (not type_string)
        assert roots is None or roots is generate_roots(roots.diagram)
        assert roots is None or roots.diagram.type_string == type_string


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
    weyl_order(generate_roots(d), [1])
    old = generate_roots(d)
    assert old.levi_walks and old.levi_splits and old.cycles
    generate_roots.cache_clear()
    fresh = generate_roots(d)
    assert fresh is not old
    assert not fresh.levi_walks and not fresh.levi_splits and not fresh.cycles


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
        cold[p] = weyl_order(generate_roots(d), p)
    generate_roots.cache_clear()
    assert {p: weyl_order(generate_roots(d), p) for p in cold} == cold  # every lookup a miss
    assert len(generate_roots(d).levi_walks) == 2 ** d.n
    assert {p: weyl_order(generate_roots(d), Marking(p)) for p in cold} == cold  # every one a hit


def test_bad_nodes_raise_against_a_warm_weyl_order_table():
    d = parse_diagram_spec("E6")
    generate_roots.cache_clear()
    run_cli(["enumerate", "--type", "E6", "--with-chains", "--format", "json"])  # counts sizes
    table = generate_roots(d).levi_walks
    warm = dict(table)
    assert 0 < len(warm) <= 2 ** 6
    for bad in ([7], [0], [1, 7]):
        with pytest.raises(DiagramError):
            weyl_order(generate_roots(d), bad)
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


# -- the per-psi_p memo of chain analyses ----------------------------------------

@pytest.mark.parametrize("spec,distinct", [("F4", 150), ("D5", 564), ("A2xG2", 120)])
def test_warm_scans_equal_cold_ones(spec, distinct):
    # the rows of an `enumerate --with-chains --format json` sweep, from one
    # context per psi_p: each distinct (psi_p, red psi_q) is scanned once, and
    # every row, memo-served or not, equals a cold scan of its own pair
    d = parse_diagram_spec(spec)
    subs = subsets(d.n)
    generate_roots.cache_clear()
    warm, scanned = [], set()
    for p in subs[1:]:
        context = PsiPContext(d, p, with_chains=True)
        warm += [scan_fields(build_report(context, q).chains) for q in subs]
        scanned |= {(p, red) for red in context.chains}
    cold = []
    for p in subs[1:]:
        for q in subs:
            generate_roots.cache_clear()  # a pair keeps the root system it was made with
            cold.append(scan_fields(chain_analysis(ParabolicPair(d, p, q))))
    assert warm == cold
    assert len(scanned) == distinct < len(warm)


def test_mutating_a_returned_scan_leaves_the_next_alone():
    # a scan is frozen and holds tuples, so a changed scan is a copy
    pair = ParabolicPair(parse_diagram_spec("D5"), [2], [1, 3])
    first = chain_analysis(pair)
    want = scan_fields(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.reachable_dims = ()
    with pytest.raises(TypeError):
        first.reachable_sizes[0] = -1
    altered = dataclasses.replace(first, reachable_sizes=(-1,) + first.reachable_sizes[1:])
    assert altered.reachable_sizes[0] == -1 and scan_fields(first) == want
    assert scan_fields(chain_analysis(pair)) == want


def test_rows_sharing_a_scan_cannot_change_it_for_each_other():
    # F4 psi_p = {1}: psi_q = {2} and {2, 3} both reduce to {2}, so their rows
    # share one scan, which neither can change
    context = PsiPContext(parse_diagram_spec("F4"), [1], with_chains=True)
    first = build_report(context, [2])
    want = first.chains.reachable_dims
    with pytest.raises(TypeError):
        first.chains.reachable_dims[1] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.chains.reachable_dims = (0, 0) + want[2:]
    first.chains = dataclasses.replace(first.chains, reachable_dims=(0, 0) + want[2:])
    second = build_report(context, [2, 3])  # passes its checks
    assert second.chains is context.chains[(2,)] and second.chains.reachable_dims == want


def test_a_stored_row_cannot_be_changed_through_its_report():
    # the context keeps the row it hands to the report of A4 psi_q = {1, 3, 4}
    context = PsiPContext(parse_diagram_spec("A4"), [2])
    first = build_report(context, [1, 3, 4])
    assert first.red is context.row(Marking([1, 3, 4]))[1]
    assert first.red.witness_starts == ((1, 2), (3, 2))
    with pytest.raises(TypeError):
        first.red.witness_starts[0] = (1, 4)
    assert build_report(context, [1, 3, 4]).red.witness_starts == ((1, 2), (3, 2))


def test_truncated_scan_is_not_served_from_the_full_entry():
    # contexts of one psi_p at max_k 32 and 1 each serve the scan of their
    # own limit, also to a row whose scan is served: (3, 4) reduces to (3,)
    d = parse_diagram_spec("D5")
    full_ctx, short_ctx = (PsiPContext(d, [1, 5], with_chains=True, max_k=k) for k in (32, 1))
    pair = ParabolicPair(d, [1, 5], [3])
    for q in ([3], [3, 4]):
        full, short = build_report(full_ctx, q).chains, build_report(short_ctx, q).chains
        assert full.complete and full.minimal_n > 1
        assert not short.complete and short.minimal_n is None
        assert short.reachable_sizes == full.reachable_sizes[:2]
        assert scan_fields(short) == scan_fields(chain_analysis(pair, max_k=1))
        assert scan_fields(full) == scan_fields(chain_analysis(pair))
    assert set(full_ctx.chains) == set(short_ctx.chains) == {(3,)}


def test_guard_holds_on_a_warm_memo():
    # a context at the default limit fills `levi_walks` for D5 psi_p =
    # {1,2,4,5} vs {3} (a scan of 960 points); one at 959 reads them warm
    # and still refuses
    d = parse_diagram_spec("D5")
    generate_roots.cache_clear()
    psi_p = Marking([1, 2, 4, 5])
    assert build_report(PsiPContext(d, psi_p, with_chains=True), [3]).chains.connected is True
    assert psi_p in generate_roots(d).levi_walks
    strict = PsiPContext(d, psi_p, with_chains=True, weyl_limit=959)
    with pytest.raises(GuardLimitError) as exc:
        build_report(strict, [3])
    assert exc.value.estimated == 960 and not strict.chains


def test_memo_goes_with_the_orbit_slot():
    # the chain analyses live on the context of one psi_p, keyed by red
    # psi_q, and rows of one red psi_q share one; another psi_p has its own
    # context, and the root system keeps only its Cartan data and its
    # per-marking tables
    d = parse_diagram_spec("F4")
    generate_roots.cache_clear()
    context = PsiPContext(d, [1], with_chains=True)
    shared = [build_report(context, q).chains for q in ([2], [2, 3], [2, 4])]
    assert shared[0] is shared[1] is shared[2]
    build_report(context, [3])
    assert set(context.chains) == {(2,), (3,)}
    assert all(type(c) is ChainAnalysis for c in context.chains.values())
    other = PsiPContext(d, [4], with_chains=True)
    build_report(other, [2])
    assert set(other.chains) == {(2,)} and set(context.chains) == {(2,), (3,)}
    assert set(vars(generate_roots(d))) == {"diagram", "cartan_rows", "moves", "num_positive",
                                            "involution", "levi_walks", "levi_splits", "cycles"}
