"""One benchmark child process: a fresh interpreter, so parhom's root cache
starts cold as it does for a CLI user.

Modes (the last stdout line is one JSON object):
  import    time `import parhom, parhom.cli` only
  measure   run the workload's groups back to back until --seconds is used
  unit      run the workload's fixed trace unit, with --traced 1 under the tracer
  coverage  compare tracer call counts with cProfile on a small sweep

Only the standard library is imported before the parhom import is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (stdlib-only module beside this file)


class DigestSink(io.TextIOBase):
    """Stand-in for stdout: hashes and counts what the CLI prints, keeps nothing."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        return len(text)


def run_op(cli, op: workloads.Op, expected: dict[str, str]) -> dict:
    """One CLI call, through `cli.main` as bound now (the tracer may have
    replaced it).  It fails on a nonzero exit, an exception or a stdout
    digest that differs from the recorded one."""
    sink = DigestSink()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # any escape from the CLI is a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}"
    digest = sink.sha.hexdigest()
    want = expected.get(op.key)
    if error is None and want is not None and digest[:len(want)] != want:
        error = f"stdout digest {digest} != recorded {want}"
    return {"key": op.key, "wall": wall, "rows": op.rows(sink.lines),
            "bytes": sink.bytes, "error": error}


def timed_import():
    """(the parhom.cli module, seconds its import took)."""
    t0 = time.perf_counter()
    import parhom  # noqa: F401
    import parhom.cli
    return parhom.cli, time.perf_counter() - t0


def measure(args) -> dict:
    cli, _ = timed_import()
    expected = workloads.load_digests()
    stream = enumerate(workloads.groups(args.workload, args.seed))
    index, group = next(stream)  # builds the chain-sample pair lists untimed
    ops = []
    start = time.perf_counter()
    while True:
        g0 = time.perf_counter()
        ops.extend(dict(run_op(cli, op, expected), group=index) for op in group)
        end = time.perf_counter()
        if end - start + (end - g0) > args.seconds:
            return {"ops": ops, "elapsed": end - start}
        index, group = next(stream)


def unit(args) -> dict:
    cli, _ = timed_import()
    expected = workloads.load_digests()
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    ops = [run_op(cli, op, expected) for op in workloads.trace_unit(args.workload, args.seed)]
    elapsed = time.perf_counter() - start
    out = {"ops": ops, "elapsed": elapsed}
    if tracer is not None:
        tracer.uninstall()
        from parhom.rootweyl import generate_roots
        total, self_t = tracer.layer_times()
        info = generate_roots.cache_info()
        out["trace"] = {
            "calls": tracer.calls, "total_s": total, "self_s": self_t,
            "closure_rows_in": tracer.closure_rows_in,
            "closure_rows_out": tracer.closure_rows_out,
            "closure_peak_bytes": tracer.closure_peak_bytes,
            "chain_levels": tracer.chain_levels,
            "chain_elements": tracer.chain_elements,
            "roots_hits": info.hits, "roots_misses": info.misses,
        }
    return out


def coverage(args) -> dict:
    from tracer import coverage_check
    return {"problems": coverage_check(list(workloads.COVERAGE_ARGV))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("import", "measure", "unit", "coverage"))
    ap.add_argument("--src", required=True, help="directory holding the parhom package")
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    if args.mode == "import":
        out = {"import_s": timed_import()[1]}
    else:
        out = {"measure": measure, "unit": unit, "coverage": coverage}[args.mode](args)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
