"""Candidate families for the three factorisation modes.

A candidate is a pair (upper, lower): upper is a set of at least two
top-level vertices, lower a set of at least two vertices below the top
level, and every upper vertex is adjacent to every lower vertex.  The
family kept by a step consists of the inclusion-maximal candidate sets
(upper joined with lower), further constrained by mode:

* weak    no extra constraint;
* factor  the lower part must meet the level directly below the top in
          at least two vertices;
* clean   factor constraint, plus the upper part must stay inside one
          equivalence class of top-level vertices sharing the same
          neighbourhood at level 0 and at every level from 2 up to two
          below the top, and the lower part must meet level 1 in at least
          two vertices: the upper vertices share two or more maximal
          cliques, so the new vertex's top sequence entry is an
          intersection of two or more cliques (see ``lattice``).  Only
          defined once four levels exist.

Every rule walks classes of top-level vertices, each over its own
neighbourhood: weak and factor pass the whole top level as one class,
clean its equivalence classes.  The walk enumerates closed vertex sets of
the bipartite adjacency between a class and what it touches below, via
intersections of the per-lower-vertex neighbour masks.  Three reductions
keep it sound:

1. maximal candidate sets correspond exactly to closed pairs: two
   distinct closed pairs never produce nested candidate sets, and every
   non-closed candidate is contained in its closure;
2. the factor constraint and the clean two-clique constraint commute
   with taking maximal elements, because both are monotone in the lower
   part and comparable weak candidates share the same lower part; being
   monotone, both are pruned inside the walk, and no candidate is built
   to be thrown away;
3. for clean mode, candidates from distinct equivalence classes are
   never comparable, so classes can be enumerated independently.

``brute_force_candidates`` enumerates subsets literally and exists as an
independent cross-check for small graphs; it must stay separate from the
fast path.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import ContractError, MultipartiteGraph, bit_indices

MODES = ("weak", "factor", "clean")

# brute-force subset enumeration is exponential; cap its use
BRUTE_FORCE_LIMIT = 16

# kept intents up to which the concept walk scans them all instead of
# indexing them by bit; measured on small dense clean classes
_SCAN_LIMIT = 64


class Candidate:
    """One admissible pair: ``upper`` above the cut, ``lower`` below it."""

    __slots__ = ("upper", "full_set", "_u", "_l")

    def __init__(self, upper: Iterable[int], lower: Iterable[int]):
        self._fill(tuple(sorted(set(upper))), tuple(sorted(set(lower))))

    @classmethod
    def _from_sorted(cls, u: tuple[int, ...], l: tuple[int, ...]) -> "Candidate":
        c = object.__new__(cls)
        c._fill(u, l)
        return c

    def _fill(self, u: tuple[int, ...], l: tuple[int, ...]) -> None:
        self._u = u
        self._l = l
        self.upper = frozenset(u)
        self.full_set = self.upper.union(l)

    @property
    def lower(self) -> frozenset[int]:
        """The lower part as a set, built on each access; hot paths read ``_l``."""
        return frozenset(self._l)

    def _order_key(self) -> tuple[int, tuple[int, ...]]:
        # families are ordered by size (descending) then vertex list
        u, l = self._u, self._l
        if not u or not l or l[-1] < u[0]:
            merged = l + u
        else:
            merged = tuple(sorted(self.full_set))
        return (-len(merged), merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Candidate):
            return NotImplemented
        return self._u == other._u and self._l == other._l

    def __hash__(self) -> int:
        return hash((self._u, self._l))

    def __repr__(self) -> str:
        return f"Candidate(upper={list(self._u)}, lower={list(self._l)})"


def _check_target(mode: str, k: int) -> None:
    """A ``mode`` family for level k needs k existing levels: two, or four if clean."""
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    need = 4 if mode == "clean" else 2
    if k < need:
        raise ContractError(f"{mode} candidates need at least {need} existing levels")


class CandidateFamily:
    """The ordered family a factorising step will spend."""

    __slots__ = ("mode", "k", "members")

    def __init__(self, mode: str, k: int, members: Iterable[Candidate]):
        _check_target(mode, k)
        self.mode = mode
        self.k = k
        self.members: tuple[Candidate, ...] = tuple(
            sorted(members, key=Candidate._order_key)
        )

    @property
    def effective(self) -> bool:
        return bool(self.members)

    def full_sets(self) -> list[frozenset[int]]:
        return [c.full_set for c in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.members)

    def __repr__(self) -> str:
        return f"CandidateFamily(mode={self.mode!r}, k={self.k}, size={len(self.members)})"


def _closed_intents(objects: Iterable[int], keep: int, meet: int) -> set[int]:
    """Intersections of two or more of the listed objects, pruned.

    Equal objects count as two, so an object's own intent is kept exactly
    when a second object contains it.  Only intents with at least two bits
    inside the mask ``keep`` and at least two inside the mask ``meet`` are
    kept.  The prune is exhaustive-safe because intersections only shrink
    and both conditions are monotone: every prefix of a surviving intent is
    a superset of it and so survives too, and an object that fails can
    never join a survivor.

    Each arriving object meets what is filed: the earlier objects and the
    kept intents.  Past ``_SCAN_LIMIT`` filed masks it meets only those
    filed under one of its kept bits in an index.  That loses nothing: a
    kept intersection has two bits inside ``keep`` and each of its parts
    contains both.  Below the limit a full scan is cheaper than the index.
    """
    intents: set[int] = set()
    filed: set[int] = set()  # the kept intents and the objects met so far
    by_bit: dict[int, set[int]] | None = None
    for om in objects:
        kept = om & keep
        if kept.bit_count() < 2 or (om & meet).bit_count() < 2:
            continue
        if by_bit is None:
            near = filed
        else:
            near = set().union(*[by_bit.get(b, ()) for b in bit_indices(kept)])
        cuts = {f & om for f in near}
        cuts -= intents
        fresh = [c for c in cuts if (c & keep).bit_count() >= 2 and (c & meet).bit_count() >= 2]
        intents.update(fresh)
        if om not in filed:
            fresh.append(om)
        filed.update(fresh)
        if by_bit is None:
            if len(filed) <= _SCAN_LIMIT:
                continue
            by_bit, fresh = {}, filed
        for c in fresh:
            for b in bit_indices(c & keep):
                at = by_bit.get(b)
                if at is None:
                    by_bit[b] = {c}
                else:
                    at.add(c)
    return intents


def _concept_candidates(
    g: MultipartiteGraph,
    uppers: list[int],
    lowers: list[int],
    below_top: frozenset[int] | None,
    cliques: frozenset[int] | None,
) -> list[Candidate]:
    """Closed pairs over the given top-level/lower vertex lists.

    Only pairs whose lower part meets ``below_top``, the level directly
    below the top, twice (the factor constraint) and ``cliques``, level 1,
    twice (the clean two-clique constraint) survive; None waives either.
    Both lists must be ascending.  The walk enumerates closed lower parts,
    where both constraints are monotone, instead of closed upper parts, whose
    closure system can dwarf the surviving family on dense graphs.
    """
    adj = g._adj
    lpos = {w: j for j, w in enumerate(lowers)}

    attr = [0] * len(lowers)
    objects: list[int] = []
    for i, x in enumerate(uppers):
        m = 0
        for w in adj[x]:
            j = lpos.get(w)
            if j is not None:
                m |= 1 << j
                attr[j] |= 1 << i
        objects.append(m)

    masks = [(1 << len(lowers)) - 1] * 2
    for i, within in enumerate((below_top, cliques)):
        if within is not None:
            masks[i] = sum(1 << j for j, w in enumerate(lowers) if w in within)

    out: list[Candidate] = []
    # every kept intent lies in two or more objects, so its extent has two
    for intent in _closed_intents(objects, *masks):
        bits = bit_indices(intent)
        extent = -1
        for j in bits:
            extent &= attr[j]
        out.append(
            Candidate._from_sorted(
                tuple(map(uppers.__getitem__, bit_indices(extent))),
                tuple(map(lowers.__getitem__, bits)),
            )
        )
    return out


def _family(
    g: MultipartiteGraph,
    mode: str,
    classes: list[list[int]],
    below: frozenset[int] | None,
    cliques: frozenset[int] | None,
) -> CandidateFamily:
    """Walk each ascending class of two or more top vertices over its own
    neighbourhood; a lower vertex no member touches lies in no intent."""
    adj = g._adj
    members: list[Candidate] = []
    for cls in classes:
        if len(cls) > 1:
            seen = set().union(*[adj[x] for x in cls])
            members.extend(_concept_candidates(g, cls, sorted(seen), below, cliques))
    return CandidateFamily(mode, g.top + 1, members)


def weak_candidates(g: MultipartiteGraph) -> CandidateFamily:
    """Maximal candidates with no mode constraint, for the next level."""
    _check_target("weak", g.top + 1)
    return _family(g, "weak", [sorted(g.levels[g.top])], None, None)


def factor_candidates(g: MultipartiteGraph) -> CandidateFamily:
    """Maximal candidates whose lower part meets the level below the top twice."""
    _check_target("factor", g.top + 1)
    return _family(g, "factor", [sorted(g.levels[g.top])], g.levels[g.top - 1], None)


def _clean_classes(g: MultipartiteGraph) -> list[list[int]]:
    """Group top-level vertices by neighbourhoods at level 0 and 2..top-2.

    Levels are disjoint, so one set, the neighbourhood without levels 1 and
    top-1, carries the same information as the per-level tuple.  A top
    vertex is grouped in the step right after its creation, so its live
    neighbourhoods still equal its creation snapshots; the key reads the
    live ones, which also serves graphs built by hand without snapshots.
    """
    top = g.top
    adj = g._adj
    drop = g.levels[1] | g.levels[top - 1]
    groups: dict[frozenset[int], list[int]] = {}
    for x in g.levels[top]:
        groups.setdefault(adj[x] - drop, []).append(x)
    return [sorted(v) for v in groups.values()]


def clean_candidates(g: MultipartiteGraph) -> CandidateFamily:
    """Factor candidates inside one equivalence class sharing two cliques."""
    _check_target("clean", g.top + 1)
    return _family(g, "clean", _clean_classes(g), g.levels[g.top - 1], g.levels[1])


def candidate_family(g: MultipartiteGraph, mode: str) -> CandidateFamily:
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    return {"weak": weak_candidates, "factor": factor_candidates, "clean": clean_candidates}[mode](g)


def _is_valid_candidate(
    g: MultipartiteGraph, mode: str, upper: frozenset[int], lower: frozenset[int]
) -> bool:
    if len(upper) < 2 or len(lower) < 2:
        return False
    top = g.top
    for y in upper:
        if not lower <= g._adj[y]:
            return False
    if mode in ("factor", "clean") and len(lower & g.levels[top - 1]) < 2:
        return False
    if mode == "clean":
        if len(lower & g.levels[1]) < 2:
            return False
        ps = (0, *range(2, top - 1))
        keys = {
            tuple(g.level_neighbours(x, p) for p in ps)
            for x in upper
        }
        if len(keys) > 1:
            return False
    return True


def brute_force_candidates(g: MultipartiteGraph, mode: str) -> CandidateFamily:
    """Literal subset enumeration of the definition.  Small graphs only.

    Walks every upper subset; for a fixed upper part only the full common
    neighbourhood can be part of a maximal candidate set, and a valid
    smaller lower part exists exactly when the full one is valid.
    Independent of the fast path on purpose: tests compare the two routes.
    """
    from itertools import combinations

    k = g.top + 1
    _check_target(mode, k)
    uppers = sorted(g.levels[g.top])
    lowers = frozenset().union(*g.levels[:-1])
    if len(uppers) > BRUTE_FORCE_LIMIT:
        raise ContractError("graph too large for brute-force candidate enumeration")

    by_set: dict[frozenset[int], Candidate] = {}
    for a in range(2, len(uppers) + 1):
        for upper in combinations(uppers, a):
            us = frozenset(upper)
            common = lowers
            for y in upper:
                common &= g._adj[y]
            if _is_valid_candidate(g, mode, us, common):
                c = Candidate(us, common)
                by_set.setdefault(c.full_set, c)

    maximal = [
        c
        for s, c in by_set.items()
        if not any(s < t for t in by_set if t != s)
    ]
    return CandidateFamily(mode, k, maximal)
