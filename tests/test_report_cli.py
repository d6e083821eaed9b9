"""Report assembly, JSON schema, TSV rows, CLI behavior and exit codes."""

import json

import pytest

from parhom import (ConsistencyError, Marking, RootSystem, build_report,
                    parse_diagram_spec, render_json, render_tsv_row,
                    report_to_dict, tsv_header, verify_report)
from parhom.cli import main
from parhom.report import TSV_COLUMNS


def report_for(spec, p, q, **kw):
    return build_report(parse_diagram_spec(spec), Marking.of(p), Marking.of(q), **kw)


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

    def test_tsv_row_shape(self):
        assert tsv_header() == "\t".join(TSV_COLUMNS)
        row = render_tsv_row(report_for("A3", [2], [1], with_chains=True)).split("\t")
        assert row == ["A3", "2", "1", "4", "2", "1", "true", "2", "false"]

    def test_tsv_empty_marking_dash(self):
        row = render_tsv_row(report_for("A3", [2], ())).split("\t")
        assert row[2] == "-" and row[7] == "-"


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

    def test_empty_marking_spelled_dash(self, capsys):
        assert main(["analyze", "--type", "A1", "--p", "1", "--q", "-",
                     "--chain-length"]) == 0
        assert "minimal N = 1" in capsys.readouterr().out


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
        keys = [(Marking.parse(l.split("\t")[1]).nodes, Marking.parse(l.split("\t")[2]).nodes)
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
