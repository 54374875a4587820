"""Workload inputs: seeded graph generators and the pinned instance lists.

Each workload is a fixed list of graph instances.  ``--seed`` relabels every
instance with a seeded permutation of its vertex names, so each seed gives
the program different input bytes (and, since multifact numbers vertices in
label order, different vertex ids) for an isomorphic graph.  The series'
output sizes are graph invariants, so the work per pass stays the same from
seed to seed, while drawing fresh G(n, p) graphs per seed would swing a dense
pass by several times (decomposing n=18 instances takes 0.3 s to 3.5 s).
Seed 0 keeps the generators' own names ``x0..x{n-1}``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def gnp(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Edges of G(n, p) as (u, v) with u < v.

    Draws in the same order as ``multifact.cli.random_graph``, so seed 0
    reproduces that function's graphs label for label.
    """
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def suite_seed(n: int, p: float, i: int) -> int:
    """Per-instance seed of the acceptance sweep, restated here."""
    return n * 7919 + int(p * 10) * 104729 + i


def band(blocks: int, width: int, step: int) -> list[tuple[int, int]]:
    """Overlapping cliques: block i spans vertices step*i .. step*i+width-1."""
    edges = set()
    for i in range(blocks):
        block = range(step * i, step * i + width)
        edges.update((u, v) for u in block for v in block if u < v)
    return sorted(edges)


def named(pairs: list[tuple[str, str]]) -> list[tuple[int, int]]:
    """Edges over named vertices, renumbered in sorted name order."""
    index = {x: i for i, x in enumerate(sorted({x for e in pairs for x in e}))}
    return [tuple(sorted((index[a], index[b]))) for a, b in pairs]


# Small named graphs of the test suite and the acceptance criteria.
DIAMOND = named([("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
BOWTIE = named([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")])
FIX_CHAIN = named([
    ("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"),
    ("b", "c"), ("b", "d"), ("b", "e"), ("b", "f"),
    ("c", "d"), ("c", "e"),
])
# the weak series' non-termination witness (tests/data/apex_witness.edges)
APEX = named([
    ("apex", "b0"), ("apex", "b1"), ("apex", "b2"), ("apex", "b3"),
    ("b0", "b2"), ("b0", "b3"), ("b1", "b2"), ("b1", "b3"),
])


@dataclass(frozen=True)
class Instance:
    """One input graph and the series its decompose operation asks for."""

    name: str
    edges: tuple[tuple[int, int], ...]
    mode: str = "clean"
    cap: int | None = None

    def labels(self, seed: int) -> list[str]:
        n = 1 + max(max(e) for e in self.edges)
        if seed == 0:
            return [f"x{i}" for i in range(n)]
        perm = random.Random(f"{seed}/{self.name}").sample(range(n), n)
        return [f"x{j}" for j in perm]

    def text(self, seed: int) -> str:
        """Canonical edge-list text: sorted ``u v`` lines with u < v."""
        lab = self.labels(seed)
        pairs = sorted(tuple(sorted((lab[u], lab[v]))) for u, v in self.edges)
        return "".join(f"{a} {b}\n" for a, b in pairs)


def _gnp(n: int, p: float, seed: int, **kw) -> Instance:
    return Instance(f"gnp-{n}-{p:.4f}-{seed}", tuple(gnp(n, p, seed)), **kw)


def _dense(n: int, i: int) -> Instance:
    return _gnp(n, 0.7, suite_seed(n, 0.7, i))


def _sparse(n: int, degree: int, seed: int) -> Instance:
    return _gnp(n, degree / (n - 1), seed)


WARM_UP = Instance("warm-up-diamond", tuple(DIAMOND))

WORKLOADS: dict[str, list[Instance]] = {
    # the north star's pinned dense set, trimmed to seconds per pass: three
    # sweep instances per n for n = 14..16, the cheaper n = 17, 18 ones, and
    # the criterion-5 membership witness
    "clean-dense": [
        *(_dense(n, i) for n in (14, 15, 16) for i in (0, 1, 2)),
        _dense(17, 1),
        _dense(17, 3),
        _dense(18, 3),
        _gnp(8, 0.7, 796461),
    ],
    # thousands of maximal cliques and rank 2-3 series: cliques, incidence,
    # the level-2 concept walk and the intersection family do the work
    "clean-sparse": [
        _sparse(300, 12, 1),
        _sparse(600, 8, 1),
        _sparse(1000, 6, 1),
        Instance("band-24-8-4", tuple(band(24, 8, 4))),  # criterion 10
        Instance("band-48-8-4", tuple(band(48, 8, 4))),
        Instance("band-40-9-3", tuple(band(40, 9, 3))),
        Instance("band-60-6-2", tuple(band(60, 6, 2))),
        Instance("diamond", tuple(DIAMOND)),
        Instance("bowtie", tuple(BOWTIE)),
        Instance("fix-chain", tuple(FIX_CHAIN)),
    ],
    # weak series whose top level doubles at every step, stopped by a cap
    "weak-capped": [
        _gnp(8, 0.5, suite_seed(8, 0.5, 1), mode="weak", cap=9),
        _gnp(8, 0.5, suite_seed(8, 0.5, 2), mode="weak", cap=11),
        Instance("apex-witness", tuple(APEX), mode="weak", cap=60),
    ],
}
