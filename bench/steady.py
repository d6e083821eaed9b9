"""Steadiness report: run the benchmark on several seeds and summarise each metric.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workloads chain-sample --out /tmp/cs.json

For every workload and metric it records the values, their median, first and
third quartiles (`statistics.quantiles(values, n=4)`) and the interquartile
range as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs use seeds first-seed .. first-seed+runs-1, one at a time.  The record is
stamped with the git SHA, the CPU count and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", type=Path, help="record path (default bench/records/steady-<sha>.json)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    sha = git_sha()
    record = {
        "git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "seconds": args.seconds,
        "trace": args.trace, "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {},
    }
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in record["seeds"]:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            if not res["correct"]:
                status = 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {name: {"unit": units[name], "bound": bounds.get(name), **summarise(v)}
                   for name, v in values.items()}
        record["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                         "fail_frac": failed / attempted, "metrics": summary}
        print(f"{workload}: {attempted} calls, {failed} failed (fail_frac {failed / attempted:g})")
        for name, s in summary.items():
            spread = "-" if s["iqr_share"] is None else f"{s['iqr_share']:.3f}"
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {name:42s} median {s['median']:>14.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  iqr/median {spread}{bound}")
    out = args.out or BENCH / "records" / f"steady-{sha[:12]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
