"""Report assembly, JSON schema, TSV rows, CLI behavior and exit codes."""

import dataclasses
import hashlib
import json
import re
from itertools import chain, combinations

import pytest

from parhom import (ConsistencyError, Marking, RootSystem, build_report,
                    generate_roots, parse_diagram_spec, render_json,
                    render_tsv_row, report_to_dict, tsv_header, verify_report)
from parhom.cli import main
from parhom.report import TSV_COLUMNS, PsiPContext


def report_for(spec, p, q, **kw):
    return build_report(parse_diagram_spec(spec), Marking(p), Marking(q), **kw)


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

    def test_truncation_warning(self):
        r = report_for("A4", [2], [3], with_chains=True, max_k=1)
        assert any("truncated at max_k=1" in w for w in r.warnings)

    def test_linearity_warning_always_present(self):
        r = report_for("A2", [1], [2])
        assert any("linearity" in w for w in r.warnings)

    def test_degenerate_b_note_travels_in_report(self):
        r = report_for("B3", [1], [3])
        assert any("i=1" in w for w in r.warnings)

    def test_verify_rejects_tampering(self):
        r = report_for("A3", [2], [1])
        r.dual_dim += 1
        with pytest.raises(ConsistencyError, match="dual dimension"):
            verify_report(r)

    @pytest.mark.parametrize("with_sizes", [True, False])
    def test_verify_rejects_a_level_that_adds_no_length(self, with_sizes):
        # D5 (1,5) vs (3): dims [0, 7, 13, 14]; a flat level 1 keeps the
        # dims monotone and the top cell, so only the length check sees it
        r = report_for("D5", [1, 5], [3], with_chains=True, with_sizes=with_sizes)
        verify_report(r)
        r.chains.reachable_dims[1] = 0
        with pytest.raises(ConsistencyError, match="lengths strictly increase"):
            verify_report(r)

    def test_verify_rejects_a_truncated_scan_that_stalls(self):
        r = report_for("D5", [1, 5], [3], with_chains=True, max_k=2, with_sizes=False)
        assert not r.chains.complete and r.chains.reachable_dims == [0, 7, 13]
        r.chains.reachable_dims[2] = 7
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
            assert row == report_to_dict(build_report(d, p, q, with_chains=chains)), (p, q)
            single = build_report(d, p, q, with_chains=chains, with_sizes=False)
            assert line == render_tsv_row(single), (p, q)

    def sweep(self, spec, p):
        """The reports of one psi_p, built from one context as `enumerate`
        builds them, and the rows whose reduced pair is another pair."""
        d = parse_diagram_spec(spec)
        context = PsiPContext(d, p)
        reports = [build_report(d, context.psi_p, q, context=context)
                   for q in all_markings(d.n)]
        return context, [r for r in reports if not r.red.is_already_reduced]

    @pytest.mark.parametrize("corrupt,check", [
        ("stored marking", "reduction idempotence"),
        ("stored dim", "moduli dim consistency"),
        ("cycle dim", "cycle dimension formula"),
    ])
    def test_served_rows_still_fail_their_checks(self, corrupt, check):
        context, served = self.sweep("D5", [2, 4])
        assert len(served) > 1
        for r in served:
            red = r.red.reduced_marking
            assert red in context.reduced  # verify_report reads it from the context
            verify_report(r)
            pair, marking, dim = entry = context.reduced[red]
            if corrupt == "stored marking":
                context.reduced[red] = (pair, Marking(set(marking) ^ {1}), dim)
            elif corrupt == "stored dim":
                context.reduced[red] = (pair, marking, dim + 1)
            else:
                r.cycle = dataclasses.replace(r.cycle, dim=r.cycle.dim + 1)
            with pytest.raises(ConsistencyError, match=check):
                verify_report(r)
            context.reduced[red] = entry

    def test_context_of_another_psi_p_is_refused(self):
        d = parse_diagram_spec("A3")
        with pytest.raises(ValueError, match="another diagram or psi_p"):
            build_report(d, [1], [2], context=PsiPContext(d, [2]))
        with pytest.raises(ValueError, match="another diagram or psi_p"):
            build_report(parse_diagram_spec("B3"), [1], [2], context=PsiPContext(d, [1]))


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
        assert main(["analyze", "--type", "E8", "--p", "1,2,3,4,5,6,7,8", "--q", "1",
                     "--chain-length"]) == 3
        err = capsys.readouterr().err
        assert "696729600" in err and "1000000" in err

    @pytest.mark.parametrize("flag", ["--weyl-limit", "--max-k"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_nonpositive_limit_flags_exit2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--type", "A3", "--p", "1", "--q", "2",
                  "--chain-length", flag, value])
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
        rs = generate_roots(parse_diagram_spec("E6"))
        monkeypatch.setattr(rs, "positive_coroots", rs.positive_coroots // 2)
        monkeypatch.setattr(rs, "scans", {})  # no size served from the memo
        # psi_p & psi_q is empty, so W_R = W and the orbit is all of W/W_P
        assert main(["analyze", "--type", "E6", "--p", "2,4", "--q", "1",
                     "--chain-length", "--json"]) == 4
        found = re.search(r"orbit has (\d+) points, not \|W_R/W_P\| = 1440",
                          capsys.readouterr().err)
        assert found and int(found[1]) < 1440

    def test_multi_word_orbit_output_unchanged(self, capsys):
        # the keys of A40 take two words, as (2M+1)**40 > 2**62 for any M;
        # psi_p = {1} has every level in closed form, and {1, 2} vs {3} is
        # scanned.  The digests are the outputs of the table builds the scan
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
    @pytest.mark.parametrize("value", ["-5", "0", "abc"])
    def test_bad_env_limit_exit2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", value)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--type", "A3", "--p", "1", "--q", "2", "--chain-length"])
        assert exc.value.code == 2
        assert f"PARHOM_WEYL_LIMIT must be an integer >= 1, got {value!r}" in \
            capsys.readouterr().err

    def test_env_limit_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("PARHOM_WEYL_LIMIT", "3")
        assert main(["analyze", "--type", "A3", "--p", "1", "--q", "2",
                     "--chain-length"]) == 3
        assert "orbit size |W/W_P| 4 exceeds guard limit 3" in capsys.readouterr().err

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
    @pytest.mark.parametrize("flag", ["--weyl-limit", "--max-k"])
    def test_too_large_exit2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV[command] + [flag, "9" * 5000])
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
