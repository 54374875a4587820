"""Clique-intersection semilattice and the structural checks built on it.

Every intersection of two or more distinct maximal cliques is an element of
the family; the ones with at least two vertices are the nontrivial elements.
Each vertex of level >= 2 in a clean decomposition determines a sequence of
such elements read off its creation snapshots, and the decomposition is
correct exactly when those sequences are strict chains, are distinct within
a level, and jointly realise every strict chain of nontrivial elements.

Creation lemma.  Write ``snap[v][i]`` for v's creation level-i
neighbourhood.  For x at level k >= 3 and 2 <= j <= k-1, every y in
``snap[x][j]`` has ``snap[y][1] >= snap[x][1]``.  A vertex gets all of its
edges to lower levels when it is created and later steps only cut them, so
``adj(v) & level i <= snap[v][i]``.  For j = k-1, y is an upper vertex of
x's candidate, adjacent before the step to all of its lower part L, so
``snap[x][1] = L & level 1 <= snap[y][1]``.  For j <= k-2, any upper vertex
u was adjacent to y and to ``L & level 1``, so y is in ``snap[u][j]`` and
``snap[x][1] <= snap[u][1]``; induction on u at level k-1 gives
``snap[y][1] >= snap[u][1]``.  In a clean run ``snap[x][1]`` holds at least
two cliques (the clean rule's level-1 condition, from k = 3 on), so the
cliques x's level-j neighbours share include x's own: the mask is never 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .cliques import maximal_cliques
from .core import ContractError, Graph, IntegrityError, MultipartiteGraph, bit_indices
from .series import SeriesRun

# Failure reports keep a handful of witnesses; counts tell the rest.
_WITNESS_CAP = 5


def _canon_key(s: frozenset[int]):
    return (len(s), sorted(s))


@dataclass(eq=False)
class IntersectionFamily:
    """Intersections of maximal cliques, their supports, and the chain order."""

    cliques: tuple[frozenset[int], ...]
    nontrivial: tuple[frozenset[int], ...]
    # element -> the indices of the cliques containing it; the keys are the elements
    supports: dict[frozenset[int], frozenset[int]]
    # support mask -> element, and each single clique under its own bit
    by_support: dict[int, frozenset[int]]
    height: int
    # each nontrivial element -> its strict supersets, in canonical order
    supersets: dict[frozenset[int], tuple[frozenset[int], ...]]


def intersection_family(g: Graph) -> IntersectionFamily:
    """Close the maximal cliques of g under intersections of two or more.

    Two cliques meet only if they share a vertex, so the closure is indexed
    by vertex: ``through[v]`` is the mask of the cliques through v.  Each
    clique is paired only with the later cliques through its own vertices,
    and each element is folded only into the cliques that touch it.  The
    cliques through all of an element's vertices are its supports.  The
    empty set is an element exactly when there are two or more cliques and
    all of them together share no vertex; three cliques can meet pairwise
    and still do.  The fold keeps each element under its support mask, the
    table sequences are resolved with.  This fold stays separate from the
    candidates' chain index and concept walk on purpose: the family is the
    reference the decomposition is checked against.  It reads the cliques
    g already keeps, if the series enumerated them.
    """
    ks = maximal_cliques(g)
    masks = [sum(1 << v for v in c) for c in ks]
    through = [0] * g.vertex_count
    for i, c in enumerate(ks):
        for v in c:
            through[v] |= 1 << i

    seen: set[int] = set()
    frontier: list[tuple[int, list[int]]] = []
    for i, c in enumerate(ks):
        near = 0
        for v in c:
            near |= through[v]
        for j in bit_indices(near >> (i + 1)):
            m = masks[i] & masks[i + 1 + j]
            if m not in seen:
                seen.add(m)
                frontier.append((m, bit_indices(m)))
    # folding each element once into the cliques that touch it without
    # containing it reaches every deeper nonempty intersection
    everyone = (1 << len(masks)) - 1
    supports: dict[frozenset[int], frozenset[int]] = {}
    by_support: dict[int, frozenset[int]] = {}
    while frontier:
        fresh = []
        for a, vs in frontier:
            near, common = 0, everyone
            for v in vs:
                near |= through[v]
                common &= through[v]
            element = by_support[common] = frozenset(vs)
            supports[element] = frozenset(bit_indices(common))
            for j in bit_indices(near & ~common):
                x = a & masks[j]
                if x not in seen:
                    seen.add(x)
                    fresh.append((x, bit_indices(x)))
        frontier = fresh
    if len(masks) >= 2 and not frozenset.intersection(*ks):
        supports[frozenset()] = frozenset(range(len(masks)))
        by_support[everyone] = frozenset()
    by_support.update((1 << i, c) for i, c in enumerate(ks))
    nontrivial = tuple(sorted((o for o in supports if len(o) >= 2), key=_canon_key))

    supersets = {o: tuple(p for p in nontrivial if o < p) for o in nontrivial}
    # the longest chain up from each element; canonical order is by size,
    # so in reverse every strict superset comes first
    deepest: dict[frozenset[int], int] = {}
    for o in reversed(nontrivial):
        deepest[o] = 1 + max(map(deepest.__getitem__, supersets[o]), default=0)

    return IntersectionFamily(
        cliques=ks,
        nontrivial=nontrivial,
        supports=supports,
        by_support=by_support,
        height=max(deepest.values(), default=0),
        supersets=supersets,
    )


def chains(fam: IntersectionFamily, length: int) -> list[tuple[frozenset[int], ...]]:
    """All strictly increasing tuples of nontrivial elements of a given length.

    Ordered lexicographically by the entries' places in ``fam.nontrivial``,
    the canonical order (by size, then sorted members).
    """
    if length < 1:
        raise ContractError(f"chain length must be positive, got {length}")
    out = [(o,) for o in fam.nontrivial]
    for _ in range(length - 1):
        # each chain, in turn, extended by each strict superset of its top
        out = [c + (p,) for c in out for p in fam.supersets[c[-1]]]
    return out


def _level1_clique_map(m: MultipartiteGraph, fam: IntersectionFamily) -> dict[int, int]:
    """Level-1 vertex -> index of its clique."""
    index = {c: i for i, c in enumerate(fam.cliques)}
    owner: dict[int, int] = {}
    for y in sorted(m.levels[1]):
        i = index.get(m.snapshot(y, 0))
        if i is None:
            raise IntegrityError(f"level-1 vertex {y} does not match any maximal clique")
        if i in owner:
            raise IntegrityError(f"level-1 vertices {owner[i]} and {y} carry the same clique")
        owner[i] = y
    return {y: i for i, y in owner.items()}


class _Resolver:
    """Shared tables for resolving many sequences against one clique family.

    A vertex of level >= 2 stands for the mask of the cliques its level-1
    snapshot carries; the level-1 map is injective, so ANDing masks
    intersects clique sets.  An element's support determines it, so the
    family's table from support mask to element resolves a shared clique
    set, or finds it supports no element.  By the creation lemma the
    shared mask of a clean run is never 0, and no support is 0, so a
    hand-built graph whose neighbours share no clique fails the lookup.
    """

    __slots__ = ("m", "fam", "to_clique", "masks")

    def __init__(self, m: MultipartiteGraph, fam: IntersectionFamily):
        self.m = m
        self.fam = fam
        self.to_clique = _level1_clique_map(m, fam) if m.top >= 1 else {}
        self.masks: dict[int, int] = {}  # built on first use

    def sequence(self, x: int) -> tuple[frozenset[int], ...]:
        """The entries of x's sequence, one per level 1..k-1."""
        k = self.m._level_of[x]
        if k < 2:
            raise ContractError(f"vertex {x} is at level {k}; sequences start at level 2")
        snaps, masks = self.m.snapshots, self.masks
        entries: list[frozenset[int]] = [snaps[x][0]]
        for j in range(2, k):
            ys = snaps[x][j]
            if not ys:
                raise IntegrityError(f"vertex {x} has an empty creation level-{j} neighbourhood")
            common = -1
            for y in ys:
                mask = masks.get(y)
                if mask is None:
                    mask = masks[y] = sum(1 << self.to_clique[c] for c in snaps[y][1])
                common &= mask
            element = self.fam.by_support.get(common)
            # the shared cliques must be exactly the cliques of the entry,
            # otherwise no set satisfies the defining equation
            if element is None:
                raise IntegrityError(
                    f"vertex {x}: no set is carried by exactly the shared cliques at level {j}"
                )
            entries.append(element)
        return tuple(entries)


def characterising_sequence(
    run: SeriesRun, x: int, fam: IntersectionFamily | None = None
) -> tuple[frozenset[int], ...]:
    """Resolve the sequence of intersection elements encoded by vertex x.

    Entry 1 is x's creation level-0 neighbourhood.  Entry j >= 2 is the
    unique family element supported by exactly the cliques every creation
    level-j neighbour of x carried at its own creation; by the creation
    lemma those include x's own cliques.  Failure to resolve a unique
    element means the decomposition itself is broken.
    """
    if run.mode != "clean":
        raise ContractError("characterising sequences are defined for clean runs")
    if fam is None:
        fam = intersection_family(run.source)
    return _Resolver(run.final, fam).sequence(x)


def _labels_of(g: Graph, s: Iterable[int]) -> list[str]:
    return sorted(g.labels[v] for v in s)


def verify_charseq_theorem(run: SeriesRun, fam: IntersectionFamily | None = None) -> dict:
    """Check the three sequence properties on every level of a clean run.

    Per level k >= 2: (1) each sequence is a strict chain whose entries,
    the first one included, are nontrivial elements;
    (2) sequences are injective within the level; (3) every strict chain of
    nontrivial elements of length k-1 is realised by some level-k vertex.
    Together they make each level a bijection onto the chains of its
    length: the clean rule meets level 0 twice from level 3 on, so no
    sequence starts with the empty set or a single vertex (the factor rule
    at level 3 let such surplus vertices through).  Property 3 is also
    checked for levels the decomposition never built, where any chain of
    the matching length is a failure.  It is checked by count: once (1)
    holds, the distinct sequences are chains of the level's length, so
    they realise every chain exactly when there are as many.  Chains are
    listed only to name the first ones a failing level misses.
    """
    if run.mode != "clean":
        raise ContractError("the sequence properties are stated for clean runs")
    if fam is None:
        fam = intersection_family(run.source)
    m = run.final
    src = run.source
    resolver = _Resolver(m, fam)
    top_needed = max(m.top, fam.height + 1)
    levels_report = []
    # starts[o] counts the chains of the current length that begin at o; one
    # longer, a chain is o followed by one that begins at a strict superset
    starts = dict.fromkeys(fam.nontrivial, 1)
    for k in range(2, top_needed + 1):
        if k > 2:
            starts = {o: sum(map(starts.__getitem__, ps)) for o, ps in fam.supersets.items()}
        count = sum(starts.values())  # the chains of length k-1
        xs = sorted(m.levels[k]) if k <= m.top else []
        seqs = {x: resolver.sequence(x) for x in xs}
        chain_bad = [x for x, s in seqs.items() if any(not a < b for a, b in zip(s, s[1:]))]
        member_bad = [(x, e) for x, s in seqs.items() for e in s if e not in fam.supersets]
        realised = set(seqs.values())
        missing = []
        if chain_bad or member_bad or len(realised) < count:
            for c in chains(fam, k - 1):
                if c not in realised:
                    missing.append(c)
                    if len(missing) >= _WITNESS_CAP:
                        break
        entry = {
            "level": k,
            "vertices": len(xs),
            "chains": count,
            "strict_chains": {
                "pass": not chain_bad,
                "witnesses": [
                    {"vertex": m.labels[x], "entries": [_labels_of(src, e) for e in seqs[x]]}
                    for x in chain_bad[:_WITNESS_CAP]
                ],
            },
            "membership": {
                "pass": not member_bad,
                "witnesses": [
                    {"vertex": m.labels[x], "entry": _labels_of(src, e)}
                    for x, e in member_bad[:_WITNESS_CAP]
                ],
            },
            "injective": {"pass": len(realised) == len(seqs)},
            "chains_realised": {
                "pass": not missing,
                "witnesses": [[_labels_of(src, e) for e in c] for c in missing],
            },
        }
        entry["pass"] = all(c["pass"] for c in entry.values() if isinstance(c, dict))
        levels_report.append(entry)
    return {"pass": all(lv["pass"] for lv in levels_report), "levels": levels_report}


def verify_v2_bijection(run: SeriesRun, fam: IntersectionFamily | None = None) -> dict:
    """Level-2 vertices must map one-to-one onto the nontrivial elements.

    The map sends a vertex to its creation level-0 neighbourhood; its
    creation level-1 neighbourhood must be exactly the cliques supporting
    the image.
    """
    if fam is None:
        fam = intersection_family(run.source)
    m = run.final
    src = run.source
    xs = sorted(m.levels[2]) if m.top >= 2 else []
    to_clique = _level1_clique_map(m, fam) if xs else {}
    failures: list[str] = []
    images: dict[frozenset[int], int] = {}
    for x in xs:
        image = m.snapshot(x, 0)
        if image in images:
            failures.append(f"{m.labels[x]} repeats the image of {m.labels[images[image]]}")
            continue
        images[image] = x
        if image not in fam.supports or len(image) < 2:
            failures.append(f"{m.labels[x]} maps outside the nontrivial elements")
        elif frozenset(to_clique[c] for c in m.snapshot(x, 1)) != fam.supports[image]:
            failures.append(f"{m.labels[x]} does not carry the supporting cliques of its image")
    failures.extend(
        f"element {{{', '.join(_labels_of(src, o))}}} has no level-2 vertex"
        for o in fam.nontrivial
        if o not in images
    )
    return {
        "pass": not failures,
        "level2": len(xs),
        "nontrivial": len(fam.nontrivial),
        "failures": failures[:_WITNESS_CAP],
    }


def size_bound(g: Graph, m: MultipartiteGraph) -> dict:
    """Exact-arithmetic bound on the decomposition size.

    With every vertex of g in at most k maximal cliques and no clique larger
    than c, the decomposition of an n-vertex graph cannot exceed
    4 * min(k * 2^c * c!, 2^k * k!) * n vertices.
    """
    per_vertex = [0] * g.vertex_count
    c = 0
    for clique in maximal_cliques(g):
        c = max(c, len(clique))
        for v in clique:
            per_vertex[v] += 1
    k = max(per_vertex, default=0)
    n = g.vertex_count
    bound = 4 * min(k * 2**c * math.factorial(c), 2**k * math.factorial(k)) * n
    return {
        "cliques_per_vertex": k,
        "clique_size": c,
        "n": n,
        "bound": bound,
        "vertices": m.vertex_count,
        "pass": m.vertex_count <= bound,
    }
