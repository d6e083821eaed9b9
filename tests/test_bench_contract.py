"""The benchmark's tracer wraps parhom functions by module and name
(`bench/tracer.py` TARGETS).  Every target must still resolve, and every
call the CLI makes to one must pass through its wrapper.  Chain sizes, and
so the size scan and its closures, exist only on the JSON and text paths:
a TSV chain sweep scans no orbit."""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import parhom.cli
import parhom.connectivity as connectivity
from parhom import Marking, ParabolicPair, parse_diagram_spec
from parhom.rootweyl import generate_roots

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_covers_every_target():
    assert tracer.coverage_check(list(workloads.COVERAGE_ARGV)) == []


def traced(argv):
    """The tracer of one traced CLI run, and what the run printed."""
    spans = tracer.Tracer()
    spans.install()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            assert parhom.cli.main(argv) == 0
    finally:
        spans.uninstall()
    return spans, out.getvalue()


def traced_calls(argv):
    """Per-target call counts of one traced CLI run."""
    return traced(argv)[0].calls


JSON_CHAINS_ARGV = list(workloads.COVERAGE_ARGV) + ["--format", "json"]
GOLDEN = Path(__file__).parent / "golden"
CHAIN_DIGESTS = json.loads((GOLDEN / "chain_tables_sha256.json").read_text())
SWEEP_DIGESTS = {**json.loads((GOLDEN / "enumerate_json_sha256.json").read_text()),
                 **json.loads(workloads.REFERENCE.read_text())["commands"]}


def test_chain_scans_run_through_the_traced_closure():
    name = "rootweyl.reflection_closure"
    assert traced_calls(JSON_CHAINS_ARGV)[name] >= 1
    assert traced_calls(["enumerate", "--type", "A3"])[name] == 0


def test_chain_scans_classify_no_diagram():
    """The scan's guard reads |W| and |W_P| off root heights, so a sweep with
    chain scans classifies exactly the diagrams the same sweep without does."""
    name = "dynkin.relabel_to_standard"
    counts = []
    for argv in (["enumerate", "--type", "A3"], list(workloads.COVERAGE_ARGV)):
        generate_roots.cache_clear()
        counts.append(traced_calls(argv)[name])
    assert counts[0] == counts[1] > 0


def test_traced_chain_counts_cover_memo_served_rows():
    """`chain_analysis` runs once per distinct (psi_p, red psi_q), and
    `chain_levels` and `chain_elements` sum over those scans: the other rows
    are served their reduced pair's scan by the context of their psi_p."""
    generate_roots.cache_clear()
    spans, out = traced(JSON_CHAINS_ARGV)
    rows = [json.loads(line) for line in out.splitlines()]
    sizes = {}
    for row in rows:
        key = (tuple(row["input"]["psi_p"]), tuple(row["reduction"]["reduced"]))
        sizes.setdefault(key, row["connectivity"]["reachable_sizes"])
    assert spans.chain_levels == sum(map(len, sizes.values()))
    assert spans.chain_elements == sum(map(sum, sizes.values()))
    assert spans.calls["connectivity.chain_analysis"] == len(sizes) < len(rows)


def test_tsv_chain_sweep_builds_no_orbit(monkeypatch):
    """TSV rows print no sizes, so a TSV chain sweep runs the closure 0
    times, and prints its recorded table with the size scan unusable."""
    assert traced_calls(list(workloads.COVERAGE_ARGV))["rootweyl.reflection_closure"] == 0

    def refuse(*args):
        raise AssertionError("a TSV chain sweep scanned an orbit")

    monkeypatch.setattr(connectivity, "orbit_counts", refuse)
    generate_roots.cache_clear()  # from a cold root cache, as a CLI run starts
    command = "enumerate --type E6 --with-chains"
    out = io.StringIO()
    with redirect_stdout(out):
        assert parhom.cli.main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHAIN_DIGESTS[command]


# `generate_roots` lookups of `enumerate --type E6` when each per-pair
# function looked the root system up itself: 56,206 for 4,032 rows
LOOKUPS_BEFORE_CONTEXT = 56_206


def test_sweep_call_budget(monkeypatch):
    """Call bounds of one sweep, so a guard, not a speed claim: the
    reduction runs at most once per row and once per distinct (psi_p, red
    psi_q) (`test_sweep_makes_each_row_once` pins once per row), the root
    system is looked up a quarter as often as before, and each row
    validates one marking, its psi_q."""
    argv = ["enumerate", "--type", "E6"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert parhom.cli.main(argv + ["--format", "json"]) == 0
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    reduced = {(tuple(row["input"]["psi_p"]), tuple(row["reduction"]["reduced"]))
               for row in rows}
    assert len(rows) == 4032 and len(reduced) == 2050

    counts = {"pairs": 0, "markings": 0}
    validate_pair, validate_marking = ParabolicPair.__post_init__, Marking.validate_on

    def count_pair(self):
        counts["pairs"] += 1
        validate_pair(self)

    def count_marking(self, d):
        counts["markings"] += 1
        return validate_marking(self, d)

    monkeypatch.setattr(ParabolicPair, "__post_init__", count_pair)
    monkeypatch.setattr(Marking, "validate_on", count_marking)
    generate_roots.cache_clear()
    calls = traced_calls(argv)
    assert calls["connectivity.reduction"] <= len(rows) + len(reduced)
    assert calls["rootweyl.generate_roots"] <= LOOKUPS_BEFORE_CONTEXT / 4
    # the sweep makes every pair of validated markings, with no check
    assert counts["pairs"] == 0
    # besides each row's psi_q: per marking its context and boundary class
    # as psi_p and its first `levi_walks` and `levi_splits` entries; per
    # relabelled cycle its node set and its marking's flag dimension
    assert counts["markings"] <= len(rows) + 4 * 2 ** 6 + 2 * calls["dynkin.relabel_to_standard"]


@pytest.mark.parametrize("spec", ["E6", "B5", "A3xB3"])
def test_sweep_makes_each_row_once(spec):
    """Exact call counts of a cold TSV sweep: the context of a psi_p makes
    each row, reduction and cycle once, also when another row needs it as
    its reduced pair.  The exception lookup reads P mod Q off the split of
    D minus psi_p, so on a B or C factor too it reduces no second pair.  A
    cycle's root system is looked up when its type is first met, not on
    every row."""
    generate_roots.cache_clear()
    spans, out = traced(["enumerate", "--type", spec])
    rows = len(out.splitlines()) - 1
    n = parse_diagram_spec(spec).n
    assert rows == (2 ** n - 1) * 2 ** n
    assert spans.calls["geometry.cycle_descriptor"] == rows
    assert spans.calls["connectivity.reduction"] == rows
    if spec == "E6":
        assert spans.calls["rootweyl.generate_roots"] <= 600


def test_json_sweep_draws_each_witness_path_once():
    """The context of a psi_p draws the path of each witness start (p, q)
    once, for all its rows that print it: a JSON sweep makes one
    `tree_path` call per distinct (psi_p, q, p) in the printed rows."""
    spans, out = traced(["enumerate", "--type", "E6", "--format", "json"])
    starts = {(tuple(row["input"]["psi_p"]), q, path[0])
              for row in map(json.loads, out.splitlines())
              for q, path in row["reduction"]["witnesses"].items()}
    assert spans.calls["dynkin.tree_path"] == len(starts)


@pytest.mark.parametrize("fmt", ["", " --format json"])
@pytest.mark.parametrize("spec,rows,scans", [("F4", 240, 150), ("D5", 992, 564),
                                             ("A2xG2", 240, 120)])
def test_chain_sweep_call_budget(spec, rows, scans, fmt):
    """A `--with-chains` sweep, TSV or JSON, runs `chain_analysis` once per
    distinct (psi_p, red psi_q), not once per row, and prints its recorded
    bytes."""
    command = f"enumerate --type {spec} --with-chains{fmt}"
    spans, out = traced(command.split())
    assert len(out.splitlines()) == rows + (not fmt)  # TSV adds a header
    assert spans.calls["connectivity.chain_analysis"] == scans
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[command]
