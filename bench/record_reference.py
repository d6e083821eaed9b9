"""Record the reference outputs the benchmark checks against.

Writes bench/reference.json with
  commands  SHA-256 of the stdout of every sweep and sweep-chains command;
  e6_pairs  for every E6 pair "psi_p|psi_q": [chain elements, digest], where
            chain elements is the sum of `reachable_sizes` (the chain-sample
            work estimate) and digest the first 16 hex digits of the SHA-256
            of the `analyze --chain-length --json` stdout.

Run it only on a program whose outputs are known good (it takes about ten
minutes, mostly the 665 connected E6 pairs):

    python3 bench/record_reference.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import parhom.cli  # noqa: E402
import workloads  # noqa: E402


def run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = parhom.cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return buf.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    commands = {}
    for argv in workloads.SWEEP + workloads.SWEEP_CHAINS:
        commands[" ".join(argv)] = sha(run(argv))
    pairs = {}
    for p, q in workloads.all_pairs(workloads.CHAIN_RANK):
        out = run(workloads.chain_argv(p, q))
        sizes = json.loads(out)["connectivity"]["reachable_sizes"]
        pairs[f"{workloads.render(p)}|{workloads.render(q)}"] = [sum(sizes), sha(out)[:16]]
    workloads.REFERENCE.write_text(
        json.dumps({"commands": commands, "e6_pairs": pairs}, indent=0) + "\n")
    print(f"wrote {workloads.REFERENCE} ({len(commands)} commands, {len(pairs)} E6 pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
