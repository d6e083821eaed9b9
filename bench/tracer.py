"""Span tracer that wraps parhom's public functions from outside the package.

parhom modules import each other with `from .x import y`, so one function is
reachable under several module-level names.  `Tracer.install` replaces every
binding of each target in every loaded `parhom` module (and the method on its
class), so no call site is missed; `coverage_check` proves that against
cProfile.

A span is (name, start, end, parent); spans live in flat typed arrays and are
aggregated once, when the traced run ends.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import io
import pstats
import sys
from array import array
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

# (span name, module, attribute, mode).  "count" wrappers only count calls:
# they are the hottest functions and have no time metric.
TARGETS = (
    ("cli.main", "cli", "main", "span"),
    ("report.build_report", "report", "build_report", "span"),
    ("report.verify_report", "report", "verify_report", "span"),
    ("report.render_json", "report", "render_json", "span"),
    ("report.render_tsv_row", "report", "render_tsv_row", "span"),
    ("report.render_text", "report", "render_text", "span"),
    ("report.tsv_header", "report", "tsv_header", "span"),
    ("connectivity.chain_analysis", "connectivity", "chain_analysis", "span"),
    ("connectivity.reduction", "connectivity", "reduction", "span"),
    ("connectivity.exception_flags", "connectivity", "exception_flags", "span"),
    ("geometry.cycle_descriptor", "geometry", "cycle_descriptor", "span"),
    ("geometry.dim_flag", "geometry", "dim_flag", "span"),
    ("rootweyl.reflection_closure", "rootweyl", "reflection_closure", "span"),
    ("rootweyl.generate_roots", "rootweyl", "generate_roots", "count"),
    ("dynkin.tree_path", "dynkin", "tree_path", "span"),
    ("dynkin.relabel_to_standard", "dynkin", "relabel_to_standard", "span"),
    ("dynkin.parse_diagram_spec", "dynkin", "parse_diagram_spec", "count"),
    ("dynkin.check_node", "dynkin", "DynkinDiagram.check_node", "count"),
)


def _modules():
    import parhom
    return [parhom] + [mod for name, mod in sorted(sys.modules.items())
                       if name.startswith("parhom.") and mod is not None]


def _resolve(module: str, attr: str):
    """(owner object, attribute name, original function) for one target."""
    owner = sys.modules[f"parhom.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans and counters for the targets while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack: list[int] = []
        self.calls = dict.fromkeys(self.names, 0)
        self.closure_rows_in = 0
        self.closure_rows_out = 0
        self.closure_peak_bytes = 0
        self.chain_levels = 0
        self.chain_elements = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id[name]
        observe = {"rootweyl.reflection_closure": self._observe_closure,
                   "connectivity.chain_analysis": self._observe_chains}.get(name)
        calls, stack = self.calls, self.stack
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe_closure(self, args, result) -> None:
        """reflection_closure(rs, rows, ...) returns an (elements x roots)
        permutation array; its size stands for the closure's memory."""
        rows_in = args[1]
        self.closure_rows_in += len(rows_in) if np.ndim(rows_in) == 2 else 1
        self.closure_rows_out += len(result)
        self.closure_peak_bytes = max(self.closure_peak_bytes, result.nbytes)

    def _observe_chains(self, args, result) -> None:
        self.chain_levels += len(result.reachable_sizes)
        self.chain_elements += sum(result.reachable_sizes)

    def install(self) -> None:
        """Replace every binding of every target in the loaded parhom modules."""
        modules = _modules()
        for name, module, attr, mode in TARGETS:
            owner, key, original = _resolve(module, attr)
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapped = make(name, original)
            if owner in modules:
                bound = [(mod, n) for mod in modules
                         for n, val in vars(mod).items() if val is original]
            else:
                bound = [(owner, key)]
            for obj, n in bound:
                self._patches.append((obj, n, original))
                setattr(obj, n, wrapped)

    def uninstall(self) -> None:
        for obj, n, original in reversed(self._patches):
            setattr(obj, n, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name.  Self time is a span's
        duration minus the durations of its direct child spans."""
        n = len(self.span_name)
        total = dict.fromkeys(self.names, 0.0)
        self_t = dict.fromkeys(self.names, 0.0)
        if not n:
            return total, self_t
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        has_parent = parent >= 0
        child_t = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        per_total = np.bincount(name, weights=dur, minlength=len(self.names))
        per_self = np.bincount(name, weights=dur - child_t, minlength=len(self.names))
        for i, nm in enumerate(self.names):
            total[nm] = float(per_total[i])
            self_t[nm] = float(per_self[i])
        return total, self_t


def coverage_check(argv: list[str]) -> list[str]:
    """Run the CLI once under cProfile and once under the tracer, both from a
    cold root cache, and return one message per target whose wrapper count
    differs from cProfile's `ncalls` (empty when every call site is wrapped).

    `generate_roots` sits behind a C-level `lru_cache`, which cProfile does
    not see: its wrapper count is checked against the cache's own hit+miss
    count, and cProfile's `ncalls` against the misses.
    """
    import parhom.cli
    from parhom.rootweyl import generate_roots

    sink = io.StringIO()
    generate_roots.cache_clear()
    prof = cProfile.Profile()
    with redirect_stdout(sink):
        prof.runcall(parhom.cli.main, argv)
    stats = pstats.Stats(prof).stats
    expected_out = sink.getvalue()

    generate_roots.cache_clear()
    tracer = Tracer()
    tracer.install()
    sink = io.StringIO()
    try:
        with redirect_stdout(sink):
            parhom.cli.main(argv)
    finally:
        tracer.uninstall()
    info = generate_roots.cache_info()

    problems = []
    if sink.getvalue() != expected_out:
        problems.append("traced output differs from untraced output")
    for name, module, attr, _ in TARGETS:
        code = inspect.unwrap(_resolve(module, attr)[2]).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        ncalls = stats[key][1] if key in stats else 0
        got = tracer.calls[name]
        if name == "rootweyl.generate_roots":
            if got != info.hits + info.misses or ncalls != info.misses:
                problems.append(f"{name}: wrapper {got}, cache {info.hits}+{info.misses}, "
                                f"cProfile {ncalls}")
        elif got != ncalls:
            problems.append(f"{name}: wrapper {got}, cProfile {ncalls}")
    return problems
