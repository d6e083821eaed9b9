"""numpy loads only where a weight orbit is scanned: a chain level strictly
between W_P and the Levi W_R of psi_p & psi_q.

Each case runs the CLI in a fresh interpreter, since this test process has
numpy loaded already, and reads back whether `numpy` was imported.  The
largest E7 scan also reads back its peak RSS."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# runs `parhom.cli.main` on argv, then reports numpy and the peak RSS in KiB
# on the last stderr line.  The peak is VmHWM, not ru_maxrss: Linux carries
# ru_maxrss across exec, so a child of a large test process would report
# its parent's peak
CHILD = """
import sys
import parhom, parhom.cli
code = parhom.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print("numpy loaded:", "numpy" in sys.modules, peak, file=sys.stderr)
sys.exit(code)
"""


def run_child(*argv, rss=False):
    """(exit code, stdout bytes, stderr lines before the numpy line, numpy
    loaded), and the child's peak RSS in MiB last if `rss`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PARHOM_WEYL_LIMIT", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          env=env, timeout=300, check=False)
    *err, last = proc.stderr.decode().splitlines()
    _, _, loaded, peak_kib = last.split()
    result = proc.returncode, proc.stdout, err, loaded == "True"
    return result + (int(peak_kib) / 1024,) if rss else result


def test_import_loads_no_numpy():
    assert run_child() == (0, b"", [], False)


# counts the argparse parsers built, and the parser each `parse_args` runs on
PARSER_COUNT = """
import argparse, sys
built, used = [], []
init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

def counted_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

def counted_parse(self, *args, **kwargs):
    used.append(self)
    return parse(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted_init
argparse.ArgumentParser.parse_args = counted_parse
import parhom.cli
print(len(built))
for argv in (sys.argv[1:], sys.argv[1:] + ["--json"], sys.argv[1:]):
    assert parhom.cli.main(argv) == 0
print(len(built), len({id(parser) for parser in used}), len(used), file=sys.stderr)
"""


def test_parser_built_on_first_call_and_reused():
    # no parser at import, so the import time stays as it was; three calls share one
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT, "analyze", "--type", "A2", "--p", "1", "--q", "2"],
        capture_output=True, text=True, timeout=120, check=False,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "0"
    assert proc.stderr.split() == ["3", "1", "3"]  # the parser and its two subparsers


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
        "analyze", "--type", "E8", "--p", "1,2,3,5,6,7,8", "--q", "4", "--chain-length")
    assert (code, out, numpy_loaded) == (3, b"", False)
    assert err == ["error: scanned orbit |W_R/W_P| 348364800 exceeds guard limit 1000000; "
                   "raise --weyl-limit or PARHOM_WEYL_LIMIT"]


# reports whose every chain level is closed form: |W_P| at level 0, then
# |W_R|, R = psi_p & psi_q.  The E6 and E7 digests are those of the same
# reports scanned on the full orbit W/W_P; the E8 one is recorded from the
# closed form, as its full orbit's 696,729,600 x 8 neighbour table (45 GB)
# was too large to build
REPORT_DIGESTS = json.loads((GOLDEN / "chain_reports_sha256.json").read_text())
BOREL = "--chain-length --json --weyl-limit"
CLOSED_FORM_SIZES = [
    ("analyze --type E6 --p 1,6 --q 1 --chain-length --json", [192, 1920, 1920]),
    (f"analyze --type E7 --p 1,2,3,4,5,6,7 --q - {BOREL} 3000000", [1, 2903040]),
    (f"analyze --type E7 --p 1,2,3,4,5,6,7 --q 7 {BOREL} 3000000", [1, 51840, 51840]),
    (f"analyze --type E8 --p 1,2,3,4,5,6,7,8 --q 8 {BOREL} 696729600", [1, 2903040, 2903040]),
]


@pytest.mark.parametrize("command,sizes", CLOSED_FORM_SIZES,
                         ids=["E6-disconnected", "E7-Borel-q-empty", "E7-Borel-q7", "E8-Borel-q8"])
def test_closed_form_sizes_load_no_numpy(command, sizes):
    code, out, err, numpy_loaded = run_child(*command.split())
    assert (code, err, numpy_loaded) == (0, [], False)
    assert json.loads(out)["connectivity"]["reachable_sizes"] == sizes
    assert hashlib.sha256(out).hexdigest() == REPORT_DIGESTS[command]


def test_orbit_sizes_load_numpy():
    # psi_p & psi_q is empty and level 1 is short of |W|: it is scanned
    code, out, err, numpy_loaded = run_child(
        "analyze", "--type", "E6", "--p", "1", "--q", "2", "--chain-length", "--json")
    assert (code, err, numpy_loaded) == (0, [], True)
    assert json.loads(out)["connectivity"]["reachable_sizes"] == [1920, 32640, 51840]
    # the digest of this report when numpy was imported at module level
    assert hashlib.sha256(out).hexdigest() == (
        "de3c63cab1cf10ee1278bf9d64f8a78bf33b1878902b646358a66ca6607e8a5f")


def test_largest_e7_scan_fits_its_memory_target():
    # the largest connected E7 scan: 1,451,520 points of W/W_P, held as keys
    # only; the neighbour-table build peaked at 145 MiB.  The digest is its output
    command = "analyze --type E7 --p 1,2,3,5,6,7 --q 4 --chain-length --json --weyl-limit 3000000"
    code, out, err, numpy_loaded, peak_mib = run_child(*command.split(), rss=True)
    assert (code, err, numpy_loaded) == (0, [], True)
    assert hashlib.sha256(out).hexdigest() == REPORT_DIGESTS[command]
    assert peak_mib <= 110


def test_only_rootweyl_imports_numpy():
    """`import numpy` or `from numpy import ...` in a module of the package,
    found by its syntax tree, a `TYPE_CHECKING` import included."""
    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.partition(".")[0] == "numpy")

    importers = {path.name for path in (ROOT / "src" / "parhom").glob("*.py")
                 if any(map(imports_numpy, ast.walk(ast.parse(path.read_text()))))}
    assert importers == {"rootweyl.py"}
