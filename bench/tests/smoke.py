"""Smoke tests for the benchmark itself (not collected by the project's suite).

    python3 -m pytest bench/tests/smoke.py

Each workload runs once for one second, traced and untraced (one group of
calls each, about a minute in all), and must emit every metric BENCHMARK.json
names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    if trace:
        closures = result["metrics"]["rootweyl.reflection_closure.calls"]["value"]
        assert (closures == 0) == (workload == "sweep")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_samples_beyond(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from run import tail
    assert tail([float(v) for v in range(1, 31)]) == (20.0, 100 * 20 / 30)
    assert tail([float(v) for v in range(1, 13)]) == (12.0, 100.0)


def test_coverage_check_catches_an_unwrapped_call_site(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import parhom.report
    import tracer
    import workloads

    argv = list(workloads.COVERAGE_ARGV)
    assert tracer.coverage_check(argv) == []

    install = tracer.Tracer.install

    def install_missing_one(self):
        install(self)
        for obj, name, original in self._patches:
            if obj is parhom.report and name == "dim_flag":
                setattr(obj, name, original)

    monkeypatch.setattr(tracer.Tracer, "install", install_missing_one)
    problems = tracer.coverage_check(argv)
    assert any(p.startswith("geometry.dim_flag:") for p in problems)
