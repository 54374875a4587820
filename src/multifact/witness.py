"""Graph generators and the search for a weak-series non-termination witness.

``random_graph`` and ``suite_seed`` give the seeded G(n, p) instances that
``multifact verify --random`` and the acceptance sweep run on.

The weak rule can keep producing effective steps forever, but only on the
right shape of input; dense graphs collapse and sparse ones stall.  Graphs
with an apex vertex adjacent to everything else are a productive hunting
ground, so the harness scans those in a fixed order and freezes the first
graph whose weak series is still effective at the cap while the clean
series on the same graph terminates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import Graph
from .series import run_clean, run_weak


@dataclass(frozen=True)
class ApexWitness:
    base_size: int
    mask: int
    weak_cap: int
    clean_rank: int

    @property
    def graph(self) -> Graph:
        return apex_graph(self.base_size, self.mask)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) instance with labels x0..x{n-1}; same seed, same graph."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    edges = [
        (labels[u], labels[v])
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edge_list(edges, extra_vertices=labels)


def suite_seed(n: int, p: float, i: int) -> int:
    """Per-instance seed of the random sweep; stable across runs and hosts."""
    return n * 7919 + int(p * 10) * 104729 + i


def apex_graph(base_size: int, mask: int) -> Graph:
    """Base vertices b0..b{n-1} plus an apex adjacent to all of them.

    Bit i of ``mask`` switches on the i-th base pair in sorted order, so
    (base_size, mask) enumerates every apex graph exactly once.
    """
    if base_size < 1:
        raise ValueError("base_size must be at least 1")
    base = [f"b{i}" for i in range(base_size)]
    edges = [("apex", b) for b in base]
    for bit, (i, j) in enumerate(combinations(range(base_size), 2)):
        if mask >> bit & 1:
            edges.append((base[i], base[j]))
    return Graph.from_edge_list(edges)


def find_apex_witness(max_base: int = 6, cap: int = 50) -> ApexWitness | None:
    """First apex graph, in scan order, separating the weak and clean series.

    Scan order is base_size ascending, then mask ascending.  Returns the
    witness whose weak run reports cap-reached while its clean run
    terminates, or None when no such graph exists up to ``max_base``.
    """
    for b in range(2, max_base + 1):
        for mask in range(1 << (b * (b - 1) // 2)):
            g = apex_graph(b, mask)
            weak = run_weak(g, cap=cap, low_memory=True)
            if weak.status.kind != "cap-reached":
                continue
            clean = run_clean(g, low_memory=True)
            return ApexWitness(b, mask, cap, clean.status.rank)
    return None
