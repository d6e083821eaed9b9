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

import parhom.cli
import parhom.connectivity as connectivity
from parhom import Marking, ParabolicPair
from parhom.rootweyl import generate_roots

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_covers_every_target():
    assert tracer.coverage_check(list(workloads.COVERAGE_ARGV)) == []


def traced(argv):
    """The tracer of one traced CLI run."""
    spans = tracer.Tracer()
    spans.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert parhom.cli.main(argv) == 0
    finally:
        spans.uninstall()
    return spans


def traced_calls(argv):
    """Per-target call counts of one traced CLI run."""
    return traced(argv).calls


JSON_CHAINS_ARGV = list(workloads.COVERAGE_ARGV) + ["--format", "json"]
CHAIN_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "chain_tables_sha256.json").read_text())


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
    """`chain_levels` and `chain_elements` sum over every row's scan, also
    the rows whose scan is served from the memo of an equal reduced pair."""
    argv = JSON_CHAINS_ARGV
    generate_roots.cache_clear()
    spans = traced(argv)
    out = io.StringIO()
    with redirect_stdout(out):
        assert parhom.cli.main(argv) == 0
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    sizes = [row["connectivity"]["reachable_sizes"] for row in rows]
    assert spans.chain_levels == sum(map(len, sizes))
    assert spans.chain_elements == sum(map(sum, sizes))
    reduced = {(tuple(row["input"]["psi_p"]), tuple(row["reduction"]["reduced"]))
               for row in rows}
    assert spans.calls["connectivity.chain_analysis"] == len(rows) > len(reduced)


def test_tsv_chain_sweep_builds_no_orbit(monkeypatch):
    """TSV rows print no sizes, so a TSV chain sweep runs the closure 0
    times, and prints its recorded table with the size scan unusable."""
    assert traced_calls(list(workloads.COVERAGE_ARGV))["rootweyl.reflection_closure"] == 0

    def refuse(*args):
        raise AssertionError("a TSV chain sweep scanned an orbit")

    monkeypatch.setattr(connectivity, "_scan", refuse)
    generate_roots.cache_clear()  # no scan memo left over from an earlier test
    command = "enumerate --type E6 --with-chains"
    out = io.StringIO()
    with redirect_stdout(out):
        assert parhom.cli.main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHAIN_DIGESTS[command]


# `generate_roots` lookups of `enumerate --type E6` when each per-pair
# function looked the root system up itself: 56,206 for 4,032 rows
LOOKUPS_BEFORE_CONTEXT = 56_206


def test_sweep_call_budget(monkeypatch):
    """Exact call counts of one sweep, so a guard, not a speed claim: the
    reduction runs once per row and once per distinct (psi_p, red psi_q),
    the root system is looked up a quarter as often as before, and each row
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
    # as psi_p and its first `flag_dims` and `levi_splits` entries; per
    # relabelled cycle its node set and its marking's flag dimension
    assert counts["markings"] <= len(rows) + 4 * 2 ** 6 + 2 * calls["dynkin.relabel_to_standard"]
