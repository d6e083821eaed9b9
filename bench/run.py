"""parhom benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

The parhom CLI is driven in-process (`parhom.cli.main([...])`) inside a fresh
child interpreter per measurement, one call at a time (a closed loop with a
single client).  `--trace 0` reports the end-to-end metrics; `--trace 1`
reports per-layer metrics from runs under the span tracer, next to untraced
runs of the same calls.  Human-readable lines come first; the last stdout
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exit code 2 when the parhom sources are missing or a child process fails.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
SPAN_SHARES = (  # (metric, span, "total_s" or "self_s")
    ("rootweyl.reflection_closure.pct", "rootweyl.reflection_closure", "total_s"),
    ("connectivity.chain_analysis.pct", "connectivity.chain_analysis", "total_s"),
    ("connectivity.chain_analysis.self_pct", "connectivity.chain_analysis", "self_s"),
    ("dynkin.tree_path.pct", "dynkin.tree_path", "total_s"),
    ("dynkin.relabel_to_standard.pct", "dynkin.relabel_to_standard", "total_s"),
    ("geometry.dim_flag.pct", "geometry.dim_flag", "total_s"),
    ("geometry.cycle_descriptor.pct", "geometry.cycle_descriptor", "total_s"),
    ("geometry.cycle_descriptor.self_pct", "geometry.cycle_descriptor", "self_s"),
    ("connectivity.reduction.pct", "connectivity.reduction", "total_s"),
    ("connectivity.exception_flags.pct", "connectivity.exception_flags", "total_s"),
    ("report.verify_report.pct", "report.verify_report", "total_s"),
    ("report.verify_report.self_pct", "report.verify_report", "self_s"),
    ("report.build_report.self_pct", "report.build_report", "self_s"),
    ("cli.self_pct", "cli.main", "self_s"),
)
CALL_COUNTS = (
    "rootweyl.reflection_closure", "connectivity.chain_analysis", "dynkin.check_node",
    "dynkin.tree_path", "dynkin.relabel_to_standard", "dynkin.parse_diagram_spec",
    "geometry.dim_flag", "geometry.cycle_descriptor", "connectivity.reduction",
)
RENDER_SPANS = ("report.render_json", "report.render_tsv_row",
                "report.render_text", "report.tsv_header")


class ChildError(RuntimeError):
    pass


def child(mode: str, *extra: str, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env.pop("PARHOM_WEYL_LIMIT", None)  # every run uses the default guard
    cmd = [sys.executable, str(WORKER), mode, "--src", str(SRC), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"worker {mode} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few samples
    for that percentile to lie above the median."""
    s = sorted(values)
    n = len(s)
    if n > 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return s[-1], 100.0


def end_to_end(args) -> tuple[dict, list[dict], list[str], list[str]]:
    imports = [child("import", timeout=60)["import_s"] for _ in range(SETUP_SAMPLES)]
    res = child("measure", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), timeout=args.seconds + 100)
    ops = res["ops"]
    if args.workload in workloads.GROUP_LATENCY:
        per_group: dict[int, float] = {}
        for op in ops:
            per_group[op["group"]] = per_group.get(op["group"], 0.0) + op["wall"]
        lat, sample = [w * 1e3 for w in per_group.values()], "groups"
    else:
        lat, sample = [op["wall"] * 1e3 for op in ops], "calls"
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "throughput_per_s": (sum(op["rows"] for op in ops) / res["elapsed"], "1/s"),
        "lat_p50_ms": (statistics.median(lat), "ms"),
        "lat_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MiB"),
        "setup_s": (statistics.median(imports), "s"),
    }
    notes = [f"{len(ops)} calls in {res['elapsed']:.2f} s",
             f"lat_tail_ms is p{tail_pct:.1f} of {len(lat)} {sample}",
             f"setup_s is the median of {SETUP_SAMPLES} fresh imports"]
    return metrics, ops, notes, []


def per_layer(args) -> tuple[dict, list[dict], list[str], list[str]]:
    problems = child("coverage", timeout=120)["problems"]
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        plain.append(child("unit", *base, timeout=150))
        traced.append(child("unit", *base, "--traced", "1", timeout=150))
        last = time.perf_counter() - t0
    first = traced[0]["trace"]
    if any(t["trace"]["calls"] != first["calls"] for t in traced):
        problems.append("per-layer call counts differ between identical traced runs")

    def share(span: str, kind: str) -> float:
        return statistics.median(100 * t["trace"][kind][span] / t["elapsed"] for t in traced)

    calls = first["calls"]
    hits, misses = first["roots_hits"], first["roots_misses"]
    metrics = {f"{name}.calls": (calls[name], "count") for name in CALL_COUNTS}
    metrics.update({m: (share(span, kind), "%") for m, span, kind in SPAN_SHARES})
    metrics.update({
        "rootweyl.reflection_closure.rows_in": (first["closure_rows_in"], "count"),
        "rootweyl.reflection_closure.rows_out": (first["closure_rows_out"], "count"),
        "rootweyl.reflection_closure.peak_bytes": (first["closure_peak_bytes"], "B"),
        "connectivity.chain_levels": (first["chain_levels"], "count"),
        "connectivity.chain_elements": (first["chain_elements"], "count"),
        "rootweyl.generate_roots.hits": (hits, "count"),
        "rootweyl.generate_roots.misses": (misses, "count"),
        "rootweyl.generate_roots.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                              "ratio"),
        "report.render.pct": (sum(share(s, "total_s") for s in RENDER_SPANS), "%"),
        "cli.bytes_out": (sum(op["bytes"] for op in traced[0]["ops"]), "B"),
        "trace.wall_s": (statistics.median(t["elapsed"] for t in traced), "s"),
        "trace.overhead_frac": (statistics.median(t["elapsed"] for t in traced)
                                / statistics.median(p["elapsed"] for p in plain) - 1, "ratio"),
    })
    ops = [op for res in plain + traced for op in res["ops"]]
    notes = [f"{len(traced)} traced and {len(plain)} untraced runs of "
             f"{len(traced[0]['ops'])} calls each",
             f"coverage check on `{' '.join(workloads.COVERAGE_ARGV)}`: "
             + ("passed" if not problems else "FAILED")]
    return metrics, ops, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "parhom" / "__init__.py").is_file():
        print(f"error: parhom sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        run = per_layer if args.trace else end_to_end
        metrics, ops, notes, problems = run(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = [f"{op['key']}: {op['error']}" for op in ops if op["error"]]
    for err in problems + errors[:20]:
        print(f"failed: {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} calls, {len(errors)} failed (fail_frac {len(errors) / max(len(ops), 1):g})")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
