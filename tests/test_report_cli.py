"""Report assembly, JSON schema, TSV rows, CLI behavior and exit codes."""

import ast
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import chain, combinations
from pathlib import Path

import pytest

import parhom
from parhom import (ConsistencyError, Marking, RootSystem, build_report,
                    parse_diagram_spec, render_json, render_tsv_row,
                    report_to_dict, tsv_header, verify_report)
from parhom.cli import LIMIT_ENV, build_parser, main
from parhom.report import TSV_COLUMNS, PsiPContext


def report_for(spec, p, q, **chain_options):
    return build_report(PsiPContext(parse_diagram_spec(spec), p, **chain_options), q)


class TestReport:
    def test_worked_example_fields(self):
        r = report_for("A3", [2], [1], with_chains=True)
        obj = report_to_dict(r)
        assert obj["schema"] == "parhom/1"
        assert obj["input"] == {
            "type": "A3",
            "factors": [{"type": "A3", "nodes": [1, 2, 3]}],
            "psi_p": [2], "psi_q": [1]}
        assert obj["dims"] == {"flag_p": 4, "flag_q": 3, "flag_pq": 5}
        assert obj["cycle"]["type"] == "A2" and obj["cycle"]["dim"] == 2
        assert obj["dual_cycle_dim"] == 1
        assert obj["reduction"]["reduced"] == [1]
        assert obj["connectivity"]["connected"] is True
        assert obj["connectivity"]["minimal_n"] == 2
        assert obj["connectivity"]["reachable_dims"] == [0, 3, 4]

    def test_no_chains_null_fields(self):
        obj = report_to_dict(report_for("A3", [2], [1]))
        assert obj["connectivity"]["computed"] is False
        assert obj["connectivity"]["minimal_n"] is None
        assert obj["connectivity"]["reachable_sizes"] is None

    def test_key_order_documented(self):
        obj = report_to_dict(report_for("B2", [1], [2]))
        assert list(obj) == ["schema", "input", "dims", "cycle", "dual_cycle_dim",
                            "tower", "reduction", "quotient_marking", "connectivity",
                            "boundary_class", "flags", "warnings"]

    def test_json_roundtrip_byte_identical(self):
        r = report_for("A3", [2], [1], with_chains=True)
        for compact in (False, True):
            text = render_json(r, compact=compact)
            reparsed = json.loads(text)
            again = (json.dumps(reparsed, separators=(",", ":")) if compact
                     else json.dumps(reparsed, indent=2))
            assert again == text

    def test_markings_serialized_sorted(self):
        obj = report_to_dict(report_for("A4", [4, 2], [3, 1]))
        assert obj["input"]["psi_p"] == [2, 4]
        assert obj["input"]["psi_q"] == [1, 3]

    def test_point_cycle_json(self):
        obj = report_to_dict(report_for("A3", [2], [2]))
        assert obj["cycle"]["dim"] == 0 and obj["cycle"]["is_point"] is True

    # the warning reads max_k off the chain, which ran exactly max_k levels
    @pytest.mark.parametrize("spec,p,q,max_k", [
        pytest.param("A4", [2], [3], 1, id="A4-1"),
        pytest.param("A6", [3], [2, 4], 1, id="A6-1"),
        pytest.param("A6", [3], [2, 4], 2, id="A6-2"),
    ])
    def test_truncation_warning(self, spec, p, q, max_k):
        r = report_for(spec, p, q, with_chains=True, max_k=max_k)
        assert not r.chains.complete
        assert [w for w in r.warnings if "truncated" in w] == [
            f"chain analysis truncated at max_k={max_k} before stabilization"]

    def test_misspelt_chain_option_raises_at_the_first_chained_row(self):
        d = parse_diagram_spec("A3")
        build_report(PsiPContext(d, [2], max_K=1), [1])  # no chains: the options go unread
        with pytest.raises(TypeError, match="max_K"):
            build_report(PsiPContext(d, [2], with_chains=True, max_K=1), [1])

    def test_linearity_warning_always_present(self):
        r = report_for("A2", [1], [2])
        assert any("linearity" in w for w in r.warnings)

    def test_degenerate_b_note_travels_in_report(self):
        r = report_for("B3", [1], [3])
        assert any("i=1" in w for w in r.warnings)

    def test_verify_rejects_tampering(self):
        r = report_for("A3", [2], [1])
        r.dim_gq = r.dim_gpq + 1
        with pytest.raises(ConsistencyError, match="dim monotonicity"):
            verify_report(r)

    @pytest.mark.parametrize("with_sizes", [True, False])
    def test_verify_rejects_a_level_that_adds_no_length(self, with_sizes):
        # D5 (1,5) vs (3): dims [0, 7, 13, 14]; a flat level 1 keeps the
        # dims monotone and the top cell, so only the length check sees it
        r = report_for("D5", [1, 5], [3], with_chains=True, with_sizes=with_sizes)
        verify_report(r)
        dims = r.chains.reachable_dims
        r.chains = dataclasses.replace(r.chains, reachable_dims=(dims[0], 0) + dims[2:])
        with pytest.raises(ConsistencyError, match="lengths strictly increase"):
            verify_report(r)

    def test_verify_rejects_a_truncated_scan_that_stalls(self):
        r = report_for("D5", [1, 5], [3], with_chains=True, max_k=2, with_sizes=False)
        assert not r.chains.complete and r.chains.reachable_dims == (0, 7, 13)
        r.chains = dataclasses.replace(r.chains, reachable_dims=(0, 7, 7))
        with pytest.raises(ConsistencyError, match="lengths strictly increase"):
            verify_report(r)

    def test_tsv_row_shape(self):
        assert tsv_header() == "\t".join(TSV_COLUMNS)
        row = render_tsv_row(report_for("A3", [2], [1], with_chains=True)).split("\t")
        assert row == ["A3", "2", "1", "4", "2", "1", "true", "2", "false"]

    def test_tsv_empty_marking_dash(self):
        row = render_tsv_row(report_for("A3", [2], ())).split("\t")
        assert row[2] == "-" and row[7] == "-"


def rendered_again(text, compact):
    """`text` parsed and rendered again the way the CLI renders it."""
    obj = json.loads(text)
    return json.dumps(obj, separators=(",", ":")) if compact else json.dumps(obj, indent=2)


class TestJsonRoundTrip:
    """Parsing a printed report and rendering it again gives the same bytes."""

    @pytest.mark.parametrize("chains", [False, True])
    @pytest.mark.parametrize("spec", ["A3", "B3", "G2", "A2xG2"])
    def test_analyze_json_on_every_pair(self, capsys, spec, chains):
        n = parse_diagram_spec(spec).n
        markings = [Marking(m).render() for m in chain.from_iterable(
            combinations(range(1, n + 1), k) for k in range(n + 1))]
        for p in markings:
            for q in markings:
                argv = ["analyze", "--type", spec, "--p", p, "--q", q, "--json"]
                assert main(argv + ["--chain-length"] * chains) == 0
                text = capsys.readouterr().out
                assert text.endswith("}\n")
                assert rendered_again(text[:-1], compact=False) == text[:-1], (p, q)

    @pytest.mark.parametrize("chains", [False, True])
    @pytest.mark.parametrize("spec", ["A3", "B3", "G2", "A2xG2"])
    def test_enumerate_json_on_every_pair(self, capsys, spec, chains):
        argv = ["enumerate", "--type", spec, "--format", "json"]
        assert main(argv + ["--with-chains"] * chains) == 0
        lines = capsys.readouterr().out.splitlines()
        n = parse_diagram_spec(spec).n
        assert len(lines) == (2 ** n - 1) * 2 ** n
        for line in lines:
            assert rendered_again(line, compact=True) == line


def all_markings(n):
    """Every marking on nodes 1..n, in `enumerate` order."""
    return sorted(Marking(m) for m in chain.from_iterable(
        combinations(range(1, n + 1), k) for k in range(n + 1)))


class TestPsiPContext:
    """A sweep builds its rows from one PsiPContext per psi_p; each row must
    be the report a fresh single-pair call builds, and every check must
    still run on rows whose reduced-pair values the context served."""

    @pytest.mark.parametrize("chains", [False, True])
    @pytest.mark.parametrize("spec", ["G2", "B4", "D5", "A3xB3"])
    def test_sweep_rows_equal_single_pair_reports(self, capsys, spec, chains):
        d = parse_diagram_spec(spec)
        pairs = [(p, q) for p in all_markings(d.n)[1:] for q in all_markings(d.n)]
        argv = ["enumerate", "--type", spec] + ["--with-chains"] * chains
        assert main(argv + ["--format", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert main(argv) == 0
        tsv = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(tsv) == len(pairs)
        for (p, q), row, line in zip(pairs, rows, tsv):
            single = build_report(PsiPContext(d, p, with_chains=chains), q)
            assert row == report_to_dict(single), (p, q)
            single = build_report(PsiPContext(d, p, chains, with_sizes=False), q)
            assert line == render_tsv_row(single), (p, q)

    def sweep(self, spec, p):
        """The reports of one psi_p, built from one context as `enumerate`
        builds them, and the rows whose reduced pair is another pair."""
        d = parse_diagram_spec(spec)
        context = PsiPContext(d, p)
        reports = [build_report(context, q) for q in all_markings(d.n)]
        return context, [r for r in reports if not r.red.is_already_reduced]

    @pytest.mark.parametrize("corrupt,check", [
        ("stored marking", "reduction idempotence"),
        ("stored dim", "moduli dim consistency"),
        # "cycle dim internal recomputation" recomputes the cycle dimension
        pytest.param("cycle dim", "cycle dim internal recomputation",
                     id="cycle dim-cycle dimension recomputed"),
    ])
    def test_served_rows_still_fail_their_checks(self, corrupt, check):
        context, served = self.sweep("D5", [2, 4])
        assert len(served) > 1
        for r in served:
            red = r.red.reduced_marking
            assert red in context.rows  # verify_report reads its row from the context
            verify_report(r)
            pair, red_of_red, cycle = entry = context.rows[red]
            if corrupt == "stored marking":
                marking = Marking(set(red_of_red.reduced_marking) ^ {1})
                context.rows[red] = (
                    pair, dataclasses.replace(red_of_red, reduced_marking=marking), cycle)
            elif corrupt == "stored dim":
                context.rows[red] = (
                    pair, red_of_red, dataclasses.replace(cycle, dim=cycle.dim + 1))
            else:
                r.cycle = dataclasses.replace(r.cycle, dim=r.cycle.dim + 1)
            with pytest.raises(ConsistencyError, match=check):
                verify_report(r)
            context.rows[red] = entry


def limit_input(monkeypatch, flag, value):
    """The argv tail giving `value` to `flag`, or [] after setting `value`
    as the environment variable `flag`."""
    if flag.startswith("--"):
        return [flag, value]
    monkeypatch.setenv(flag, value)
    return []


def corrupt_bound(monkeypatch, bound):
    """Make the walk from lambda_P, whose labels hold a 0, report `bound(M)`
    as the largest label it negates; the walks from rho, every label 1,
    that count roots and Weyl orders stay true."""
    real = parhom.rootweyl.descend

    def walk(rs, m, gens, word):
        from_rho = all(m)
        negated = real(rs, m, gens, word)
        return negated if from_rho else [bound(max(negated, default=0))]

    monkeypatch.setattr("parhom.rootweyl.descend", walk)


class TestCliAnalyze:
    def test_success_text(self, capsys):
        assert main(["analyze", "--type", "A3", "--p", "2", "--q", "1",
                     "--chain-length"]) == 0
        out = capsys.readouterr().out
        assert "minimal N = 2" in out

    def test_success_json(self, capsys):
        assert main(["analyze", "--type", "G2", "--p", "2", "--q", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["flags"]["mok_zhang_exception"] is True

    def test_node_out_of_range_exit2(self, capsys):
        assert main(["analyze", "--type", "A3", "--p", "2", "--q", "9"]) == 2
        assert "node 9 out of range" in capsys.readouterr().err

    def test_leading_zeros_are_not_counted_as_digits_exit2(self, capsys):
        assert main(["analyze", "--type", "A3", "--p", "0123", "--q", "1"]) == 2
        assert capsys.readouterr().err == "error: node of 3 digits out of range\n"

    def test_unknown_family_exit2(self, capsys):
        assert main(["analyze", "--type", "H3", "--p", "1", "--q", "2"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_guard_exit3(self, capsys):
        assert main(["analyze", "--type", "E8", "--p", "1,2,3,5,6,7,8", "--q", "4",
                     "--chain-length"]) == 3
        err = capsys.readouterr().err
        assert "348364800" in err and "1000000" in err

    @pytest.mark.parametrize("flag", ["--weyl-limit", "--max-k", "PARHOM_WEYL_LIMIT"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_nonpositive_limit_flags_exit2(self, capsys, monkeypatch, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--type", "A3", "--p", "1", "--q", "2",
                  "--chain-length", *limit_input(monkeypatch, flag, value)])
        assert exc.value.code == 2
        assert f"{flag}: must be at least 1, got {value}" in capsys.readouterr().err

    def test_raised_limit_allows_run(self, capsys):
        assert main(["analyze", "--type", "D4", "--p", "1", "--q", "3",
                     "--chain-length", "--weyl-limit", "200"]) == 0

    def test_consistency_exit4(self, capsys, monkeypatch):
        def broken(*a, **kw):
            raise ConsistencyError("forced for the exit-code test")
        monkeypatch.setattr("parhom.cli.build_report", broken)
        assert main(["analyze", "--type", "A2", "--p", "1", "--q", "2"]) == 4
        assert "consistency" in capsys.readouterr().err

    def test_short_orbit_exit4(self, capsys, monkeypatch):
        # with the label bound M too low, the keys of distinct points alias
        # and the scan reaches too few points: the arrays sized |W_R/W_P|
        # must not hide that from the size check
        corrupt_bound(monkeypatch, lambda top: (top + 1) // 2)
        # psi_p & psi_q is empty, so W_R = W and the orbit is all of W/W_P
        assert main(["analyze", "--type", "E6", "--p", "2,4", "--q", "1",
                     "--chain-length", "--json"]) == 4
        found = re.search(r"orbit has (\d+) points, not \|W_R/W_P\| = 1440",
                          capsys.readouterr().err)
        assert found and int(found[1]) < 1440

    def test_long_orbit_exit4(self, capsys, monkeypatch):
        # aliased digits can also carry into a neighbour and reach more
        # points than |W_R/W_P|: the scan stops at the end of its keys and
        # reports the count it reached
        corrupt_bound(monkeypatch, lambda top: top // 2)
        assert main(["analyze", "--type", "E6", "--p", "3,5", "--q", "1",
                     "--chain-length", "--json"]) == 4
        found = re.search(r"orbit has (\d+) points, not \|W_R/W_P\| = 2160",
                          capsys.readouterr().err)
        assert found and int(found[1]) > 2160

    def test_multi_word_orbit_output_unchanged(self, capsys):
        # the keys of A40 take two words, as 40 digits of at least 2 bits
        # exceed 62 bits for any M; psi_p = {1} has every level in closed
        # form, and {1, 2} vs {3} is scanned.  The digests are the outputs of the table builds the scan
        # replaced: the column lexsort, and the packed keys
        for p, q, digest in [
            ("1", "2", "d727585980daec86b3bc0a6a4b8d0539d1329477753af162b55830c001479c78"),
            ("1,2", "3", "c3e7e12e361529a28c282830ffeaa9c832714bbca7e1c72e911a29f6946d03d2"),
        ]:
            assert main(["analyze", "--type", "A40", "--p", p, "--q", q,
                         "--chain-length", "--json"]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, p

    def test_empty_marking_spelled_dash(self, capsys):
        # the point G/P of psi_p = - is already covered at level 0, but
        # minimal N counts from level 1, as one level is always scanned
        for p, sizes in (("1", "[1, 2]"), ("-", "[2, 2]")):
            assert main(["analyze", "--type", "A1", "--p", p, "--q", "-",
                         "--chain-length"]) == 0
            assert f"minimal N = 1  sizes {sizes}" in capsys.readouterr().out


class TestCliEnumerate:
    def test_a2_row_count(self, capsys):
        assert main(["enumerate", "--type", "A2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == tsv_header()
        assert len(lines) - 1 == (2 ** 2 - 1) * 2 ** 2

    def test_b2_nontrivial_filter(self, capsys):
        assert main(["enumerate", "--type", "B2", "--nontrivial-only"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            cols = line.split("\t")
            p = set(Marking.parse(cols[1]))
            q = set(Marking.parse(cols[2]))
            assert q and not p <= q

    def test_rows_lexicographic(self, capsys):
        assert main(["enumerate", "--type", "A2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        keys = [(Marking.parse(l.split("\t")[1]), Marking.parse(l.split("\t")[2]))
                for l in lines]
        assert keys == sorted(keys)

    def test_json_lines_parse(self, capsys):
        assert main(["enumerate", "--type", "A2", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            obj = json.loads(line)
            assert obj["schema"] == "parhom/1"

    def test_deterministic_repeat(self, capsys):
        assert main(["enumerate", "--type", "B2", "--with-chains"]) == 0
        first = capsys.readouterr().out
        assert main(["enumerate", "--type", "B2", "--with-chains"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_chain_column_populated(self, capsys):
        assert main(["enumerate", "--type", "A2", "--with-chains"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            cols = line.split("\t")
            if cols[6] == "true":
                assert cols[7] != "-"
            else:
                assert cols[7] == "-"


class TestCliBoundary:
    ORBIT_4 = ["analyze", "--type", "B2", "--p", "1", "--q", "2", "--chain-length"]

    @pytest.mark.parametrize("value", ["-5", "0", "abc"])
    def test_bad_env_limit_exit2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", value)
        with pytest.raises(SystemExit) as exc:
            main(self.ORBIT_4)
        assert exc.value.code == 2
        message = "not an integer: 'abc'" if value == "abc" else f"must be at least 1, got {value}"
        assert f"PARHOM_WEYL_LIMIT: {message}" in capsys.readouterr().err

    def test_env_limit_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", "3")
        assert main(self.ORBIT_4) == 3
        assert "scanned orbit |W_R/W_P| 4 exceeds guard limit 3" in capsys.readouterr().err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", "3")
        assert main(self.ORBIT_4 + ["--weyl-limit", "100"]) == 0

    def test_empty_env_gives_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", "")
        assert main(["analyze", "--type", "E8", "--p", "1,2,3,5,6,7,8", "--q", "4",
                     "--chain-length"]) == 3
        assert "exceeds guard limit 1000000;" in capsys.readouterr().err

    def test_only_the_cli_reads_the_environment(self):
        """`os.environ`, `os.getenv` or `from os import environ` in a module
        of the package, found by its syntax tree."""
        readers_of_env = {"environ", "environb", "getenv", "getenvb"}

        def reads_env(node):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                return any(alias.name in readers_of_env for alias in node.names)
            return (isinstance(node, ast.Attribute) and node.attr in readers_of_env
                    and isinstance(node.value, ast.Name) and node.value.id == "os")

        readers = {path.name for path in Path(parhom.__file__).parent.glob("*.py")
                   if any(map(reads_env, ast.walk(ast.parse(path.read_text()))))}
        assert readers == {"cli.py"}

    def test_both_markings_parsed_before_either_is_checked(self, capsys):
        assert main(["analyze", "--type", "A3", "--p", "9", "--q", "x"]) == 2
        assert capsys.readouterr().err == "error: bad marking token 'x' (expected integer)\n"

    def test_internal_value_error_exit4(self, capsys, monkeypatch):
        def broken(*a, **kw):
            raise ValueError("forced for the exit-code test")
        monkeypatch.setattr("parhom.cli.build_report", broken)
        assert main(["analyze", "--type", "A2", "--p", "1", "--q", "2"]) == 4
        assert "internal error: forced" in capsys.readouterr().err

    def test_memory_error_exit3(self, capsys, monkeypatch):
        def broken(*a, **kw):
            raise MemoryError
        monkeypatch.setattr("parhom.cli.build_report", broken)
        assert main(["enumerate", "--type", "A2"]) == 3
        assert "out of memory" in capsys.readouterr().err


class TestCliHelp:
    @pytest.mark.parametrize("command", ["analyze", "enumerate"])
    def test_every_option_has_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # an option without help text is a line of its own, up to the next option
        entries = re.split(r"\n(?=  -)", out.split("options:\n", 1)[1].rstrip())
        assert [e for e in entries if not re.search(r"\S {2,}\S|\n +\S", e)] == []
        assert "overrides PARHOM_WEYL_LIMIT" in " ".join(out.split())


def run_calls(calls, monkeypatch, capsys, fresh_parser):
    """(exit code, stdout, stderr) of each `main(argv)` call, with
    PARHOM_WEYL_LIMIT set to `env` for it, or unset when `env` is None."""
    results = []
    for argv, env in calls:
        if env is None:
            monkeypatch.delenv(LIMIT_ENV, raising=False)
        else:
            monkeypatch.setenv(LIMIT_ENV, env)
        if fresh_parser:
            build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
    return results


ORBIT_4 = TestCliBoundary.ORBIT_4
SEQUENCES = {  # id: ([(argv, PARHOM_WEYL_LIMIT or None)], exit codes)
    "flag-then-none": ([(ORBIT_4 + ["--weyl-limit", "3"], None), (ORBIT_4, None)], [3, 0]),
    "env-set-cleared-set": ([(ORBIT_4, "3"), (ORBIT_4, None), (ORBIT_4, "3")], [3, 0, 3]),
    "bad-env-then-good": ([(ORBIT_4, "abc"), (ORBIT_4, None)], [2, 0]),
    "usage-error-then-good": ([(ORBIT_4[:5], None), (ORBIT_4, None)], [2, 0]),
    "json-then-text": ([(ORBIT_4 + ["--json"], None), (ORBIT_4, None)], [0, 0]),
    "nontrivial-then-plain": ([(["enumerate", "--type", "B2", "--nontrivial-only"], None),
                               (["enumerate", "--type", "B2"], None)], [0, 0]),
}


class TestCliReusedParser:
    """`main` builds its parser once per process; each call of a sequence
    must give what it gives on a parser of its own."""

    @pytest.mark.parametrize("calls,codes", SEQUENCES.values(), ids=SEQUENCES)
    def test_calls_leak_nothing(self, capsys, monkeypatch, calls, codes):
        cold = run_calls(calls, monkeypatch, capsys, fresh_parser=True)
        build_parser.cache_clear()
        warm = run_calls(calls, monkeypatch, capsys, fresh_parser=False)
        assert build_parser.cache_info().misses == 1
        assert warm == cold
        assert [code for code, _, _ in warm] == codes


def fail_after(calls):
    """A build_report stand-in that delegates `calls` times, then raises."""
    seen = []

    def build(*a, **kw):
        if len(seen) == calls:
            raise ConsistencyError("forced after the streamed rows")
        seen.append(1)
        return build_report(*a, **kw)
    return build


class TestCliEnumerateGuard:
    def test_pair_count_refused(self, capsys, monkeypatch):
        monkeypatch.setattr("parhom.cli.build_report", fail_after(0))
        assert main(["enumerate", "--type", "A10"]) == 3
        captured = capsys.readouterr()
        assert "sweep pair count 1047552 exceeds guard limit 1000000" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--type", "A10", "--weyl-limit", "1047552"],
                                      ["--type", "E8"]])
    def test_pair_count_admitted(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("parhom.cli.build_report", fail_after(0))
        assert main(["enumerate", *argv]) == 4

    def test_rows_streamed_before_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("parhom.cli.build_report", fail_after(2))
        assert main(["enumerate", "--type", "A2"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == tsv_header()
        assert lines[1:] == [render_tsv_row(report_for("A2", [1], q)) for q in ([], [1])]


# the console script's body, so the child exits as an installed `parhom` does
CLI_CHILD = "import sys; from parhom.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_child(argv, stdout, **popen):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop(LIMIT_ENV, None)
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so a short output is written at the end
    return subprocess.Popen([sys.executable, "-c", CLI_CHILD, *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env, **popen)


class TestCliOutputFailures:
    """A failed write of stdout exits 5: quietly when the reader closed the
    pipe, else with one error line.  An exception `main` does not name
    exits 4 with one line."""

    def test_closed_pipe_stops_quietly(self):
        # 16,256 rows, far past the pipe's buffer, so the child is still writing
        proc = cli_child(["enumerate", "--type", "E7"], subprocess.PIPE)
        assert proc.stdout.readline().decode() == tsv_header() + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 5
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["analyze", "--type", "A2", "--p", "1", "--q", "2"],
        ["analyze", "--type", "E6", "--p", "1", "--q", "2", "--json"],
        ["enumerate", "--type", "E6", "--with-chains", "--format", "json"],
    ])
    def test_full_device_exits5_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = cli_child(argv, full)
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 5
        assert err == "error: cannot write stdout: No space left on device\n"

    def test_closed_stdout_exits5_with_one_line(self):
        # as `parhom enumerate --type A1 >&-`: Python then sets sys.stdout to
        # None, and print would drop every line
        proc = cli_child(["enumerate", "--type", "A1"], None, preexec_fn=lambda: os.close(1))
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 5
        assert err == "error: cannot write stdout: it is closed\n"

    def test_unnamed_exception_exit4_with_one_line(self, capsys, monkeypatch):
        def broken(*a, **kw):
            raise KeyError("forced for the exit-code test")
        monkeypatch.setattr("parhom.cli.build_report", broken)
        assert main(["analyze", "--type", "A2", "--p", "1", "--q", "2"]) == 4
        assert capsys.readouterr().err == \
            "internal error: KeyError('forced for the exit-code test')\n"


class TestCliRankBound:
    @pytest.fixture
    def no_roots(self, monkeypatch):
        """A refused diagram must not reach root generation."""
        def refuse(self, diagram):
            raise AssertionError(f"root system built for {diagram}")
        monkeypatch.setattr(RootSystem, "__init__", refuse)

    @pytest.mark.parametrize("digits", [20, 5000])
    def test_huge_rank_analyze_exit3(self, capsys, no_roots, digits):
        assert main(["analyze", "--type", "A" + "9" * digits, "--p", "1", "--q", "2"]) == 3
        err = capsys.readouterr().err
        assert "exceeds the rank bound 40" in err
        assert "--weyl-limit" not in err

    def test_huge_rank_enumerate_exit3(self, capsys, no_roots):
        assert main(["enumerate", "--type", "A" + "9" * 5000]) == 3
        captured = capsys.readouterr()
        assert "exceeds the rank bound 40" in captured.err
        assert captured.out == ""

    def test_total_rank_over_bound_exit3(self, capsys, no_roots):
        assert main(["analyze", "--type", "A20xB21", "--p", "1", "--q", "2"]) == 3
        assert "total rank 41 exceeds the rank bound 40" in capsys.readouterr().err

    def test_overlong_node_token_exit2(self, capsys):
        assert main(["analyze", "--type", "A3", "--p", "1," + "9" * 5000, "--q", "2"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestCliHugeInteger:
    """int() refuses strings of over 4300 digits; the flag check must name
    the size instead of calling the value "not an integer"."""

    ARGV = {"analyze": ["analyze", "--type", "A3", "--p", "1", "--q", "2", "--chain-length"],
            "enumerate": ["enumerate", "--type", "A2", "--with-chains"]}

    @pytest.mark.parametrize("command", ["analyze", "enumerate"])
    @pytest.mark.parametrize("flag", ["--weyl-limit", "--max-k", "PARHOM_WEYL_LIMIT"])
    def test_too_large_exit2(self, capsys, monkeypatch, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV[command] + limit_input(monkeypatch, flag, "9" * 5000))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: too large: an integer of 5000 digits" in err
        assert len(err) < 1000

    @pytest.mark.parametrize("command", ["analyze", "enumerate"])
    def test_negative_exit2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV[command] + ["--max-k", "-" + "9" * 5000])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be at least 1, got a negative integer of 5000 digits" in err
        assert len(err) < 1000

    def test_leading_zeros_do_not_count(self, capsys):
        assert main(self.ARGV["analyze"] + ["--max-k", "0" * 5000 + "2"]) == 0
