"""Expected figures worked out without multifact.

The maximal cliques come from networkx.  The clique-intersection count uses
a closure search over vertices, unlike multifact's fold over cliques.
"""

from __future__ import annotations

from collections import defaultdict


def maximal_cliques(edges) -> list[frozenset[int]]:
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(edges)
    return [frozenset(c) for c in nx.find_cliques(g)]


def nontrivial_intersections(edges, cliques: list[frozenset[int]]) -> int:
    """Distinct intersections of two or more maximal cliques with two or more vertices.

    Such a set S is exactly one that equals the intersection of all maximal
    cliques holding it, when at least two hold it.  Each one is reached from
    the closure of one of its edges by adding a vertex and closing again,
    one vertex at a time, so the search below finds them all.
    """
    holding: dict[int, set[int]] = defaultdict(set)
    for i, c in enumerate(cliques):
        for v in c:
            holding[v].add(i)

    def close(ids: set[int]) -> frozenset[int]:
        return frozenset.intersection(*(cliques[i] for i in ids))

    found: set[frozenset[int]] = set()
    stack: list[tuple[frozenset[int], set[int]]] = []

    def visit(ids: set[int]) -> None:
        if len(ids) >= 2:
            s = close(ids)
            if s not in found:
                found.add(s)
                stack.append((s, ids))

    for u, v in edges:
        visit(holding[u] & holding[v])
    while stack:
        s, ids = stack.pop()
        for w in frozenset().union(*(cliques[i] for i in ids)) - s:
            visit(ids & holding[w])
    return len(found)
