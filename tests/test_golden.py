"""Golden outputs: `enumerate --with-chains` on A4, B3, G2 and F4 must print
exactly what the recorded files hold (TSV byte for byte, JSON by SHA-256),
so a change to the report schema or to any computed field shows here; the
JSON sweep of A6 at `--max-k 2` covers rows of truncated chains.  Eight
`analyze` text reports, one per kind of line `render_text` prints, are
checked by SHA-256.  The TSV chain tables of E6, E7 and E8 are checked by SHA-256: E6 and E7 as
recorded when every scan still built an orbit, and E8, the first complete
table, with its minimal_n column sampled against the Demazure oracle."""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

from demazure_oracle import demazure_chain_scan
from parhom import Marking, parse_diagram_spec
from parhom.cli import main
from parhom.report import TSV_COLUMNS

GOLDEN = Path(__file__).parent / "golden"
JSON_DIGESTS = json.loads((GOLDEN / "enumerate_json_sha256.json").read_text())
CHAIN_DIGESTS = json.loads((GOLDEN / "chain_tables_sha256.json").read_text())
TEXT_DIGESTS = json.loads((GOLDEN / "analyze_text_sha256.json").read_text())
E8_TABLE = "enumerate --type E8 --with-chains --weyl-limit 696729600"


@pytest.mark.parametrize("spec", ["A4", "B3", "G2", "F4"])
def test_tsv_matches_golden(capsys, spec):
    assert main(["enumerate", "--type", spec, "--with-chains"]) == 0
    want = (GOLDEN / f"enumerate_{spec}_with_chains.tsv").read_bytes()
    assert capsys.readouterr().out.encode() == want


@pytest.mark.parametrize("command", sorted(JSON_DIGESTS))
def test_json_matches_golden_digest(capsys, command):
    assert main(command.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == JSON_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(TEXT_DIGESTS))
def test_text_report_matches_golden_digest(capsys, command):
    assert main(command.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == TEXT_DIGESTS[command]


@lru_cache(maxsize=None)
def chain_table(command: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    return out.getvalue()


@pytest.mark.parametrize("command", [c for c in sorted(CHAIN_DIGESTS) if "E6" not in c])
def test_chain_table_matches_golden_digest(command):
    # E6 is checked with the size scan disabled, in test_bench_contract
    got = hashlib.sha256(chain_table(command).encode()).hexdigest()
    assert got == CHAIN_DIGESTS[command]


def test_e8_chain_table_minimal_n_matches_demazure_oracle():
    rows = chain_table(E8_TABLE).splitlines()
    assert rows[0] == "\t".join(TSV_COLUMNS) and len(rows) == 1 + 255 * 256
    d = parse_diagram_spec("E8")
    for row in random.Random(8).sample(rows[1:], 500):
        fields = dict(zip(TSV_COLUMNS, row.split("\t")))
        p, q = (Marking.parse(fields[k]) for k in ("psi_p", "psi_q"))
        minimal_n, _, complete = demazure_chain_scan(d, p, q)
        assert complete and fields["minimal_n"] == str(minimal_n or "-"), row
