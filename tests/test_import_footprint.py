"""numpy loads only where a weight orbit is built.

Each case runs the CLI in a fresh interpreter, since this test process has
numpy loaded already, and reads back whether `numpy` was imported."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# runs `parhom.cli.main` on argv, then reports numpy on the last stderr line
CHILD = """
import sys
import parhom, parhom.cli
code = parhom.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def run_child(*argv):
    """(exit code, stdout bytes, stderr lines before the numpy line, numpy loaded)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PARHOM_WEYL_LIMIT", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          env=env, timeout=300, check=False)
    *err, last = proc.stderr.decode().splitlines()
    assert last.startswith("numpy loaded: ")
    return proc.returncode, proc.stdout, err, last == "numpy loaded: True"


def test_import_loads_no_numpy():
    assert run_child() == (0, b"", [], False)


@pytest.mark.parametrize("argv", [
    ["analyze", "--type", "E6", "--p", "1", "--q", "2"],
    ["analyze", "--type", "E6", "--p", "1", "--q", "2", "--json"],
    ["enumerate", "--type", "B3", "--format", "json"],
], ids=["analyze-text", "analyze-json", "enumerate-json"])
def test_runs_that_count_no_sizes_load_no_numpy(argv):
    code, out, err, numpy_loaded = run_child(*argv)
    assert (code, err, numpy_loaded) == (0, [], False)
    assert out


def test_tsv_chain_table_loads_no_numpy():
    argv = ["enumerate", "--type", "E6", "--with-chains"]
    code, out, err, numpy_loaded = run_child(*argv)
    assert (code, err, numpy_loaded) == (0, [], False)
    recorded = json.loads((GOLDEN / "chain_tables_sha256.json").read_text())
    assert hashlib.sha256(out).hexdigest() == recorded[" ".join(argv)]


def test_guard_refusal_loads_no_numpy():
    code, out, err, numpy_loaded = run_child(
        "analyze", "--type", "E8", "--p", "1,2,3,4,5,6,7,8", "--q", "1", "--chain-length")
    assert (code, out, numpy_loaded) == (3, b"", False)
    assert err == ["error: orbit size |W/W_P| 696729600 exceeds guard limit 1000000; "
                   "raise --weyl-limit or PARHOM_WEYL_LIMIT"]


def test_orbit_sizes_load_numpy():
    code, out, err, numpy_loaded = run_child(
        "analyze", "--type", "E6", "--p", "1", "--q", "2", "--chain-length", "--json")
    assert (code, err, numpy_loaded) == (0, [], True)
    assert json.loads(out)["connectivity"]["reachable_sizes"] == [1920, 32640, 51840]
    # the digest of this report when numpy was imported at module level
    assert hashlib.sha256(out).hexdigest() == (
        "de3c63cab1cf10ee1278bf9d64f8a78bf33b1878902b646358a66ca6607e8a5f")
