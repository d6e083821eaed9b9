"""The three benchmark workloads as seeded streams of parhom CLI calls.

Each workload is an endless stream of groups; a run executes whole groups
until its time is used, so every run has the same mix.

  sweep         one group = `enumerate` over E6 (JSON), B5 and A3xB3 (TSV)
  sweep-chains  one group = `enumerate --with-chains` over F4, D5 and A2xG2
  chain-sample  one group = `analyze --chain-length --json` on four connected
                E6 pairs and one disconnected pair

The seed rotates the sweep order, and picks the chain-sample pairs.  Connected
E6 pairs (665 of 4,032) take about 25 times longer than disconnected ones and
carry the chain scan, so four of every five calls are connected: the median
and the tail latency then both measure chain scans.  (With the population's
one-in-six mix the median was a 3-4 ms disconnected call, which varied twice
as much between runs.)  Within each kind the pairs are sorted by a work
estimate and walked with a golden-ratio sequence from a seeded offset, so any
prefix of the stream spreads evenly over cheap and costly pairs.

On the sweeps a group's calls differ several-fold in size, so their latency
sample is the whole group (one pass over the three types), not one call.

Standard library only: the worker imports this before timing the parhom import.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from pathlib import Path

NAMES = ("sweep", "chain-sample", "sweep-chains")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SWEEP = (
    ("enumerate", "--type", "E6", "--format", "json"),
    ("enumerate", "--type", "B5"),
    ("enumerate", "--type", "A3xB3"),
)
SWEEP_CHAINS = (
    ("enumerate", "--type", "F4", "--with-chains"),
    ("enumerate", "--type", "D5", "--with-chains"),
    ("enumerate", "--type", "A2xG2", "--with-chains"),
)
COVERAGE_ARGV = ("enumerate", "--type", "A3", "--with-chains")

CHAIN_TYPE, CHAIN_RANK = "E6", 6
CONNECTED_PER_GROUP, DISCONNECTED_PER_GROUP = 4, 1
TRACE_GROUPS = {"sweep": 1, "sweep-chains": 1, "chain-sample": 2}
GROUP_LATENCY = frozenset({"sweep", "sweep-chains"})
_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Op:
    """One CLI call."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def rows(self, lines: int) -> int:
        """Reports emitted: one per `analyze`, one per row of `enumerate`
        (whose TSV output starts with a header line)."""
        if self.argv[0] == "analyze":
            return 1
        return lines if "json" in self.argv else lines - 1


def render(nodes: tuple[int, ...]) -> str:
    return ",".join(map(str, nodes)) or "-"


def chain_argv(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[str, ...]:
    return ("analyze", "--type", CHAIN_TYPE, "--p", render(p), "--q", render(q),
            "--chain-length", "--json")


def all_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (psi_p, psi_q) with psi_p nonempty, in `enumerate` order."""
    subsets = sorted(chain.from_iterable(combinations(range(1, n + 1), k)
                                         for k in range(n + 1)))
    return [(p, q) for p in subsets if p for q in subsets]


@lru_cache(maxsize=None)
def load_reference() -> dict:
    """Recorded outputs of the program this benchmark was defined on; see
    record_reference.py."""
    return json.loads(REFERENCE.read_text())


def load_digests() -> dict[str, str]:
    """Expected stdout SHA-256 per command (a 16-hex-digit prefix for the
    E6 `analyze` calls)."""
    ref = load_reference()
    out = dict(ref["commands"])
    for pair, (_, digest) in ref["e6_pairs"].items():
        p, q = pair.split("|")
        out[" ".join(chain_argv(_parse(p), _parse(q)))] = digest
    return out


def _parse(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(v) for v in text.split(","))


def _work_estimate(p, q, chain_elements: int) -> int:
    """Chain-scan work: elements over all levels times the reflections that
    close them (the Levi generators of both markings)."""
    return chain_elements * (2 * CHAIN_RANK - len(p) - len(q))


def _golden_walk(items: list, rng: random.Random):
    offset = rng.random()
    i = 0
    while True:
        yield items[int(((offset + i * _PHI) % 1.0) * len(items))]
        i += 1


def _chain_groups(seed: int):
    rng = random.Random(seed)
    elements = {pair: v[0] for pair, v in load_reference()["e6_pairs"].items()}
    connected, disconnected = [], []
    for p, q in all_pairs(CHAIN_RANK):
        work = _work_estimate(p, q, elements[f"{render(p)}|{render(q)}"])
        (disconnected if set(p) & set(q) else connected).append((work, rng.random(), p, q))
    connected.sort()
    disconnected.sort()
    conn, disc = _golden_walk(connected, rng), _golden_walk(disconnected, rng)
    while True:
        picks = ([next(conn) for _ in range(CONNECTED_PER_GROUP)]
                 + [next(disc) for _ in range(DISCONNECTED_PER_GROUP)])
        rng.shuffle(picks)
        yield [Op(chain_argv(p, q)) for _, _, p, q in picks]


def groups(workload: str, seed: int):
    """Endless stream of op groups for one workload and seed."""
    if workload == "chain-sample":
        yield from _chain_groups(seed)
        return
    argvs = SWEEP if workload == "sweep" else SWEEP_CHAINS
    rot = seed % len(argvs)
    order = [Op(a) for a in argvs[rot:] + argvs[:rot]]
    while True:
        yield order


def trace_unit(workload: str, seed: int) -> list[Op]:
    """The fixed list of ops a traced run measures: the first groups of the
    stream, so the per-layer counts repeat exactly for a given seed."""
    stream = groups(workload, seed)
    return [op for _ in range(TRACE_GROUPS[workload]) for op in next(stream)]
