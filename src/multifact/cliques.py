"""Maximal-clique enumeration and the clique incidence decomposition."""

from __future__ import annotations

from .core import ContractError, Graph, MultipartiteGraph, bit_indices, record_snapshots


def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All inclusion-maximal cliques of g, isolated vertices included.

    Returned in canonical order (by sorted member list).  Branch and bound
    over (partial clique, candidates, excluded) with Tomita pivoting: only
    candidates outside the pivot's neighbourhood spawn branches.  Branches
    wait on an explicit stack, so a clique of any size costs no recursion.
    """
    n = g.vertex_count
    nbr = [0] * n
    for u, vs in enumerate(g._adj):
        for v in vs:
            nbr[u] |= 1 << v

    found: list[int] = []
    stack = [(0, (1 << n) - 1, 0)] if n else []
    while stack:
        clique, cand, excl = stack.pop()
        if not cand:
            if not excl:
                found.append(clique)
            continue
        # pivot: vertex of cand | excl covering the most candidates
        best = max(bit_indices(cand | excl), key=lambda u: (cand & nbr[u]).bit_count())
        for v in bit_indices(cand & ~nbr[best]):
            low = 1 << v
            stack.append((clique | low, cand & nbr[v], excl & nbr[v]))
            cand ^= low
            excl |= low
    return tuple(sorted((frozenset(bit_indices(m)) for m in found), key=sorted))


def clique_incidence(g: Graph) -> MultipartiteGraph:
    """Bipartite incidence of vertices (level 0) versus maximal cliques (level 1).

    Level-0 vertices keep their ids and labels; clique vertices get fresh ids
    in canonical clique order.  The new level's snapshots are recorded, so a
    clique vertex's level-0 snapshot is its member set.
    """
    n = g.vertex_count
    labels = {x: g.labels[x] for x in range(n)}
    level1 = []
    edges = []
    for i, c in enumerate(maximal_cliques(g)):
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
