"""Factorising steps and their inverse projection.

A step spends a candidate family: every candidate set becomes one vertex
of a fresh top level, edges between a candidate's upper and lower parts
are removed, and the new vertex joins every member of its set.  The
projection drops the newest level and restores exactly those pairs that
lost their edge to a dropped vertex, which makes it an exact inverse of
any effective step.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import ContractError, IntegrityError, MultipartiteGraph, canonical_edge
from .candidates import Candidate, CandidateFamily


class _Interned(dict):
    """Member tuple -> its frozenset, built on first lookup."""

    def __missing__(self, members: tuple[int, ...]) -> frozenset[int]:
        s = self[members] = frozenset(members)
        return s


@dataclass(eq=False, slots=True)
class FactorStep:
    """Record of one factorising step: the family and the graph it produced."""

    family: CandidateFamily
    after: MultipartiteGraph
    new_vertices: dict[int, Candidate]
    removed_count: int
    added_count: int

    @property
    def effective(self) -> bool:
        return bool(self.family.members)

    @property
    def removed_edges(self) -> frozenset[tuple[int, int]]:
        """Edges cut between upper and lower parts.  Derived on demand."""
        out = set()
        for c in self.family.members:
            for y in c._u:
                for z in c._l:
                    out.add(canonical_edge(y, z))
        return frozenset(out)

    @property
    def added_edges(self) -> frozenset[tuple[int, int]]:
        """Edges joining each new vertex to its candidate set.  Derived on demand."""
        out = set()
        for x, c in self.new_vertices.items():
            for y in c.full_set:
                out.add(canonical_edge(x, y))
        return frozenset(out)

    def __repr__(self) -> str:
        return (
            f"FactorStep(k={self.family.k}, candidates={len(self.family.members)}, "
            f"removed={self.removed_count}, added={self.added_count})"
        )


def factorise(g: MultipartiteGraph, family: CandidateFamily) -> FactorStep:
    """Apply one factorising step.  An empty family leaves the graph alone."""
    top = g.top
    if family.k != top + 1:
        raise ContractError(
            f"family targets level {family.k} but the graph tops out at level {top}"
        )
    if not family.members:
        return FactorStep(family, g, {}, 0, 0)

    level_of = g._level_of
    base = max(level_of) + 1
    top_level = g.levels[top]
    adj = g._adj

    new_vertices: dict[int, Candidate] = {}
    adj2 = dict(adj)
    labels = dict(g.labels)
    snaps = dict(g.snapshots)
    # one set per distinct member tuple, so the many equal snapshots of a
    # step, the empty one above all, share one object
    shared = _Interned()
    # the new vertices each old vertex joins
    joins: defaultdict[int, list[int]] = defaultdict(list)
    added_count = 0

    for i, c in enumerate(family.members):
        x = base + i
        if not c.upper <= top_level:
            raise ContractError(f"candidate upper part {sorted(c.upper)} leaves the top level")
        new_vertices[x] = c
        adj2[x] = c.full_set
        labels[x] = f"L{family.k}#{i}"
        added_count += len(c.full_set)
        # a top-level member of a malformed lower part lands in the last
        # bucket and is reported by the edge check below
        below: list[list[int]] = [[] for _ in range(top + 1)]
        for w in c._l:
            below[level_of[w]].append(w)
        snap = {p: shared[tuple(below[p])] for p in range(top)}
        snap[top] = c.upper
        snaps[x] = snap
        for v in c.full_set:
            joins[v].append(x)

    removed_count = 0
    for v, xs in joins.items():
        # an upper vertex loses its edges to the lower parts, and the other
        # way round; a cut edge that is absent means a malformed family
        old = adj[v]
        up = v in top_level
        cut = set().union(*[new_vertices[x]._l if up else new_vertices[x]._u for x in xs])
        if not cut <= old:
            raise IntegrityError(f"candidate family removes edges absent at vertex {v}")
        if up:
            removed_count += len(cut)
        adj2[v] = (old - cut).union(xs)

    levels2 = g.levels + (frozenset(range(base, base + len(family.members))),)
    after = MultipartiteGraph._assemble(
        levels2, labels, adj2, snaps, g.edge_count - removed_count + added_count
    )
    return FactorStep(family, after, new_vertices, removed_count, added_count)


def project(g: MultipartiteGraph) -> MultipartiteGraph:
    """Drop the top level and restore the edges its creation removed.

    A pair is restored only when one end sits at the new top level and the
    other below it, and both were adjacent to a common dropped vertex.
    Pairs inside lower levels were never cut by a factorising step, so
    re-adding them would invent edges.  With at least three levels this is
    the exact inverse of an effective step.
    """
    top = g.top
    if top < 2:
        raise ContractError("projection needs at least three levels")
    dropped = g.levels[top]
    new_top = g.levels[top - 1]
    adj = g._adj

    # only the dropped vertices' neighbours change: each loses its dropped
    # neighbours and regains, across every dropped vertex it shares, the
    # members on the other side of the new top level
    adj2 = dict(adj)
    removed_deg = 0
    regained: defaultdict[int, set[int]] = defaultdict(set)
    for x in dropped:
        del adj2[x]
        members = adj[x]
        removed_deg += len(members)
        ups = members & new_top
        lows = members - ups
        for y in ups:
            regained[y] |= lows
        for z in lows:
            regained[z] |= ups

    delta = 0
    for v, extra in regained.items():
        old = adj[v]
        merged = old - dropped
        merged |= extra
        delta += len(merged) - len(old)
        adj2[v] = merged

    labels2 = dict(g.labels)
    snaps2 = dict(g.snapshots)
    for x in dropped:
        del labels2[x]
        snaps2.pop(x, None)
    return MultipartiteGraph._assemble(
        g.levels[:top],
        labels2,
        adj2,
        snaps2,
        g.edge_count + (delta - removed_deg) // 2,
    )
