"""The benchmark's tracer wraps parhom functions by module and name
(`bench/tracer.py` TARGETS).  Every target must still resolve, and every
call the CLI makes to one must pass through its wrapper."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_covers_every_target():
    assert tracer.coverage_check(list(workloads.COVERAGE_ARGV)) == []
