"""Maximal-clique enumeration and the clique incidence decomposition.

Each ``Graph`` is enumerated once: ``maximal_cliques`` keeps its result on
the graph, so the series, the intersection family and the size bound of one
graph all read the same tuple.
"""

from __future__ import annotations

import re

from .core import ContractError, Graph, MultipartiteGraph, bit_indices

# the labels factorising steps give their new vertices: L<level>#<index>
_GENERATED_LABEL = re.compile(r"L[1-9][0-9]*#(?:0|[1-9][0-9]*)")


def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All inclusion-maximal cliques of g, isolated vertices included.

    Returned in canonical order (by sorted member list).  Branch and bound
    over (partial clique, candidates, excluded) with Tomita pivoting: only
    candidates outside the pivot's neighbourhood spawn branches.  Branches
    wait on an explicit stack, so a clique of any size costs no recursion.
    The result is kept on g; later calls return the same tuple.
    """
    if g._cliques is not None:
        return g._cliques
    n = g.vertex_count
    nbr = [0] * n
    for u, vs in enumerate(g._adj):
        for v in vs:
            nbr[u] |= 1 << v

    # a partial clique travels as the tuple of its members
    found: list[tuple[int, ...]] = []
    stack = [((), (1 << n) - 1, 0)] if n else []
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
            stack.append((clique + (v,), cand & nbr[v], excl & nbr[v]))
            cand ^= low
            excl |= low
    g._cliques = tuple(map(frozenset, sorted(map(sorted, found))))
    return g._cliques


def clique_incidence(g: Graph) -> MultipartiteGraph:
    """Bipartite incidence of vertices (level 0) versus maximal cliques (level 1).

    Level-0 vertices keep their ids and labels; clique vertices get fresh ids
    in canonical clique order.  The new level's snapshots are recorded, so a
    clique vertex's level-0 snapshot is its member set.  A source label of
    the form the series gives its new vertices (``L<k>#<i>``) is rejected,
    since a later level could repeat it.
    """
    for label in g.labels:
        if _GENERATED_LABEL.fullmatch(label):
            raise ContractError(f"label {label!r} is reserved for generated vertices")
    n = g.vertex_count
    ks = [tuple(sorted(c)) for c in maximal_cliques(g)]
    ids = range(n, n + len(ks))
    through: list[list[int]] = [[] for _ in range(n)]
    for cid, c in zip(ids, ks):
        for v in c:
            through[v].append(cid)
    adj = {v: tuple(cs) for v, cs in enumerate(through)}
    adj.update(zip(ids, ks))
    labels = dict(enumerate(g.labels))
    labels.update((cid, f"L1#{cid - n}") for cid in ids)
    return MultipartiteGraph._assemble(
        (frozenset(range(n)), frozenset(ids)),
        labels,
        adj,
        {cid: {0: c} for cid, c in zip(ids, ks)},
    )


def collapse_bipartite(b: MultipartiteGraph) -> Graph:
    """Inverse of clique_incidence: join level-0 vertices sharing a level-1 neighbour."""
    if b.top != 1:
        raise ContractError(f"collapse needs exactly 2 levels, got {b.top + 1}")
    base = sorted(b.levels[0])
    if base != list(range(len(base))):
        raise ContractError("level 0 must occupy ids 0..n-1 to collapse")
    edges: set[tuple[int, int]] = set()
    for c in sorted(b.levels[1]):
        members = b.neighbours(c)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.add((u, v))
    return Graph([b.labels[x] for x in base], edges)
