"""Golden outputs: `enumerate --with-chains` on A4, B3, G2 and F4 must print
exactly what the recorded files hold (TSV byte for byte, JSON by SHA-256),
so a change to the report schema or to any computed field shows here."""

import hashlib
import json
from pathlib import Path

import pytest

from parhom.cli import main

GOLDEN = Path(__file__).parent / "golden"
JSON_DIGESTS = json.loads((GOLDEN / "enumerate_json_sha256.json").read_text())


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
