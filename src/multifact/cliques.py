"""Maximal-clique enumeration and the clique incidence decomposition."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ContractError, Graph, MultipartiteGraph, bit_indices, record_snapshots


@dataclass(frozen=True)
class CliqueSet:
    """Canonically ordered maximal cliques plus a vertex -> clique index."""

    cliques: tuple[frozenset[int], ...]

    def containing(self, x: int) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cliques) if x in c)

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)


def maximal_cliques(g: Graph) -> CliqueSet:
    """All inclusion-maximal cliques of g, isolated vertices included.

    Branch and bound over (partial clique, candidates, excluded) with the
    usual pivot trick: only candidates outside the pivot's neighbourhood
    spawn branches.
    """
    n = g.vertex_count
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    found: list[int] = []

    def expand(clique: int, cand: int, excl: int) -> None:
        if cand == 0 and excl == 0:
            found.append(clique)
            return
        # pivot: vertex of cand | excl covering the most candidates
        best = max(bit_indices(cand | excl), key=lambda u: (cand & nbr[u]).bit_count())
        for v in bit_indices(cand & ~nbr[best]):
            low = 1 << v
            expand(clique | low, cand & nbr[v], excl & nbr[v])
            cand ^= low
            excl |= low

    if n:
        expand(0, (1 << n) - 1, 0)
    cliques = sorted((frozenset(bit_indices(m)) for m in found), key=sorted)
    return CliqueSet(tuple(cliques))


def clique_incidence(g: Graph) -> MultipartiteGraph:
    """Bipartite incidence of vertices (level 0) versus maximal cliques (level 1).

    Level-0 vertices keep their ids and labels; clique vertices get fresh ids
    in canonical clique order.  The new level's snapshots are recorded, so a
    clique vertex's level-0 snapshot is its member set.
    """
    n = g.vertex_count
    ks = maximal_cliques(g)
    labels = {x: g.labels[x] for x in range(n)}
    level1 = []
    edges = []
    for i, c in enumerate(ks):
        cid = n + i
        level1.append(cid)
        labels[cid] = f"L1#{i}"
        edges.extend((v, cid) for v in c)
    b = MultipartiteGraph([range(n), level1], labels, edges)
    return record_snapshots(b)


def collapse_bipartite(b: MultipartiteGraph) -> Graph:
    """Inverse of clique_incidence: join level-0 vertices sharing a level-1 neighbour."""
    if b.top != 1:
        raise ContractError(f"collapse needs exactly 2 levels, got {b.top + 1}")
    base = sorted(b.levels[0])
    if base != list(range(len(base))):
        raise ContractError("level 0 must occupy ids 0..n-1 to collapse")
    edges: set[tuple[int, int]] = set()
    for c in sorted(b.levels[1]):
        members = sorted(b.neighbours(c))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.add((u, v))
    return Graph([b.labels[x] for x in base], edges)
