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
from .candidates import Candidate


class _Interned(dict):
    """Member tuple -> its frozenset, built on first lookup."""

    def __missing__(self, members: tuple[int, ...]) -> frozenset[int]:
        s = self[members] = frozenset(members)
        return s


@dataclass(eq=False, slots=True)
class FactorStep:
    """Record of one factorising step: the family and the graph it produced."""

    family: tuple[Candidate, ...]
    after: MultipartiteGraph
    new_vertices: range  # the new vertex ids, one per family member in order
    removed_count: int

    @property
    def added_count(self) -> int:
        return sum(len(c.upper) + len(c.lower) for c in self.family)

    @property
    def effective(self) -> bool:
        return bool(self.family)

    @property
    def removed_edges(self) -> frozenset[tuple[int, int]]:
        """Edges cut between upper and lower parts.  Derived on demand."""
        out = set()
        for c in self.family:
            for y in c.upper:
                for z in c.lower:
                    out.add(canonical_edge(y, z))
        return frozenset(out)

    @property
    def added_edges(self) -> frozenset[tuple[int, int]]:
        """Edges joining each new vertex to its candidate set.  Derived on demand."""
        out = set()
        for x, c in zip(self.new_vertices, self.family):
            for y in c.upper + c.lower:
                out.add(canonical_edge(x, y))
        return frozenset(out)

    def __repr__(self) -> str:
        return (
            f"FactorStep(candidates={len(self.family)}, "
            f"removed={self.removed_count}, added={self.added_count})"
        )


def factorise(g: MultipartiteGraph, family: tuple[Candidate, ...]) -> FactorStep:
    """Apply one factorising step.  An empty family leaves the graph alone.

    A family built by hand is checked as it is spent: every upper part lies
    in the top level, every id is the graph's, no vertex repeats and each
    part has two or more.  A family of another stage fails the first check.
    """
    top = g.top
    if not family:
        return FactorStep(family, g, range(0), 0)

    level_of = g._level_of
    base = max(level_of) + 1
    top_level = g.levels[top]
    adj = g._adj

    new_vertices = range(base, base + len(family))
    adj2 = dict(adj)
    labels = dict(g.labels)
    snaps = dict(g.snapshots)
    # one set per distinct member tuple, so the many equal snapshots of a
    # step, the empty one above all, share one object
    shared = _Interned()
    # the new vertices each old vertex joins
    joins: defaultdict[int, list[int]] = defaultdict(list)

    for i, c in enumerate(family):
        x = base + i
        upper = frozenset(c.upper)
        if not upper <= top_level:
            raise ContractError(f"candidate upper part {list(c.upper)} leaves the top level")
        adj2[x] = full = upper.union(c.lower)
        # the set sizes tell a repeated vertex, an upper vertex in the lower
        # part too, and a part of fewer than two
        if not (len(upper) == len(c.upper) >= 2 and len(full) - len(upper) == len(c.lower) >= 2):
            raise ContractError(
                f"candidate {list(c.upper)} {list(c.lower)} repeats a vertex "
                f"or has a part of fewer than two"
            )
        labels[x] = f"L{top + 1}#{i}"
        # a top-level member of a malformed lower part lands in the last
        # bucket and is reported by the edge check below
        below: list[list[int]] = [[] for _ in range(top + 1)]
        try:
            for w in c.lower:
                below[level_of[w]].append(w)
        except KeyError:
            raise ContractError(f"candidate lower part names an unknown vertex {w}") from None
        snap = {p: shared[tuple(below[p])] for p in range(top)}
        snap[top] = upper
        snaps[x] = snap
        for v in full:
            joins[v].append(x)

    removed_count = 0
    for v, xs in joins.items():
        # an upper vertex loses its edges to the lower parts, and the other
        # way round; a cut edge that is absent means a malformed family
        old = adj[v]
        up = v in top_level
        cut = set().union(
            *[family[x - base].lower if up else family[x - base].upper for x in xs]
        )
        if not cut <= old:
            raise IntegrityError(f"candidate family removes edges absent at vertex {v}")
        if up:
            removed_count += len(cut)
        adj2[v] = (old - cut).union(xs)

    levels2 = g.levels + (frozenset(new_vertices),)
    after = MultipartiteGraph._assemble(levels2, labels, adj2, snaps)
    return FactorStep(family, after, new_vertices, removed_count)


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
        raise ContractError(f"projection needs at least 3 levels, got {top + 1}")
    dropped = g.levels[top]
    new_top = g.levels[top - 1]
    adj = g._adj

    # only the dropped vertices' neighbours change: each loses its dropped
    # neighbours and regains, across every dropped vertex it shares, the
    # members on the other side of the new top level
    adj2 = dict(adj)
    regained: defaultdict[int, set[int]] = defaultdict(set)
    for x in dropped:
        del adj2[x]
        members = adj[x]
        ups = members & new_top
        lows = members - ups
        for y in ups:
            regained[y] |= lows
        for z in lows:
            regained[z] |= ups

    for v, extra in regained.items():
        adj2[v] = (adj[v] - dropped) | extra

    labels2 = dict(g.labels)
    snaps2 = dict(g.snapshots)
    for x in dropped:
        del labels2[x]
        snaps2.pop(x, None)
    return MultipartiteGraph._assemble(g.levels[:top], labels2, adj2, snaps2)
