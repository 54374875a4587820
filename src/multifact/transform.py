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
from itertools import filterfalse
from operator import lt

from .core import ContractError, IntegrityError, MultipartiteGraph, canonical_edge
from .candidates import Candidate


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

    The step numbers its new vertices, one per member: larger candidate
    sets first, equal sizes by ascending ids.  ``FactorStep.family`` lists
    the members in that order, so every order of a family gives one graph.

    A family built by hand, its parts in any order, is checked before it
    is spent: every upper part lies in the top level, every id is an int of
    the graph, no vertex repeats, each part has two or more and no set is
    listed twice.  A family of another stage fails the first check.
    """
    top = g.top
    if not family:
        return FactorStep(family, g, range(0), 0)

    level_of = g._level_of
    base = max(level_of) + 1
    top_level = g.levels[top]
    adj = g._adj

    # check each member and merge it once into its candidate set
    merged: list[tuple[int, tuple[int, ...], Candidate]] = []
    for c in family:
        if not top_level.issuperset(c.upper):
            raise ContractError(f"candidate upper part {list(c.upper)} leaves the top level")
        # the upper part passed, so a stranger is below
        for w in filterfalse(level_of.__contains__, c.lower):
            raise ContractError(f"candidate lower part names an unknown vertex {w}")
        # merges a producer's two ascending parts; sorts interleaved hand-built ids
        full = tuple(sorted(c.lower + c.upper))
        # an id equal to one of the graph's, such as True for 1, is not an int
        if set(map(type, full)) != {int}:
            w = next(w for w in full if type(w) is not int)
            raise ContractError(f"candidate names a vertex {w!r} that is not an integer")
        # a repeat breaks the strict ascent; a top vertex in the lower part fails the cut check
        if not (all(map(lt, full, full[1:])) and len(c.upper) >= 2 and len(c.lower) >= 2):
            raise ContractError(
                f"candidate {list(c.upper)} {list(c.lower)} repeats a vertex "
                f"or has a part of fewer than two"
            )
        # larger candidate sets first, equal sizes by ascending ids
        merged.append((-len(full), full, c))
    merged.sort()

    new_vertices = range(base, base + len(family))
    adj2 = dict(adj)
    labels = dict(g.labels)
    snaps = dict(g.snapshots)
    # one tuple per distinct member list, so the many equal snapshots of a
    # step, the empty one above all, share one object
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    # the new vertices each old vertex joins
    joins: defaultdict[int, list[int]] = defaultdict(list)

    last: tuple[int, ...] = ()
    for i, (_, full, _) in enumerate(merged):
        # sorted, a candidate set listed twice is its own neighbour
        if full == last:
            raise ContractError(f"candidate family lists the set {list(full)} twice")
        x = base + i
        last = adj2[x] = full
        labels[x] = f"L{top + 1}#{i}"
        below: list[list[int]] = [[] for _ in range(top + 1)]
        for w in full:
            below[level_of[w]].append(w)
        snaps[x] = {p: shared.setdefault(t, t) for p, t in enumerate(map(tuple, below))}
        for v in full:
            joins[v].append(x)

    family = tuple(c for _, _, c in merged)
    removed_count = 0
    for v, xs in joins.items():
        # an upper vertex loses its edges to the lower parts, and the other
        # way round; a cut edge that is absent means a malformed family
        old = adj[v]
        up = v in top_level
        cut = set().union(
            *[family[x - base].lower if up else family[x - base].upper for x in xs]
        )
        kept = tuple(y for y in old if y not in cut)
        if len(kept) + len(cut) != len(old):
            raise IntegrityError(f"candidate family removes edges absent at vertex {v}")
        if up:
            removed_count += len(cut)
        # every new id exceeds every old one, so the tuple stays ascending
        adj2[v] = kept + tuple(xs)

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
        ups = new_top.intersection(members)
        lows = ups.symmetric_difference(members)  # ups lies in members
        for y in ups:
            regained[y] |= lows
        for z in lows:
            regained[z] |= ups

    for v, extra in regained.items():
        extra.update(filterfalse(dropped.__contains__, adj[v]))
        adj2[v] = tuple(sorted(extra))

    labels2 = dict(g.labels)
    snaps2 = dict(g.snapshots)
    for x in dropped:
        del labels2[x]
        snaps2.pop(x, None)
    return MultipartiteGraph._assemble(g.levels[:top], labels2, adj2, snaps2)
