"""Candidate families for the three factorisation modes.

A candidate is a pair (upper, lower): upper is a set of at least two
top-level vertices, lower a set of at least two vertices below the top
level, and every upper vertex is adjacent to every lower vertex.  The
family kept by a step consists of the inclusion-maximal candidate sets
(upper joined with lower), further constrained by mode:

* weak    no extra constraint;
* factor  the lower part must meet the level directly below the top in
          at least two vertices;
* clean   factor constraint, plus the lower part must meet level 1 and
          level 0 in at least two vertices each: the upper vertices share
          two or more maximal cliques, so the new vertex's top sequence
          entry is an intersection of two or more cliques, and its first
          entry is nontrivial too (see ``lattice``).  From the fourth level
          up the upper part must also stay inside one equivalence class of
          top-level vertices sharing the same neighbourhood at level 0 and
          at every level from 2 up to two below the top.  Defined once
          three levels exist: a clean run builds level 2 by the factor rule
          and every later level by this one, so each level of the result
          is in bijection with the chains of its length.  This departs
          from building levels 2 and 3 by the factor rule with no level-0
          condition, which built surplus vertices whose first sequence
          entry is trivial.

Each rule can be computed by a walk over classes of top-level vertices,
each over its own neighbourhood: weak and factor pass the whole top level
as one class, clean mode its equivalence classes (at level 3 the whole top
level).  The walk enumerates closed vertex sets of the bipartite adjacency
between a class and what it touches below, via intersections of the
per-lower-vertex neighbour masks.  Three reductions keep it sound:

1. maximal candidate sets correspond exactly to closed pairs: two
   distinct closed pairs never produce nested candidate sets, and every
   non-closed candidate is contained in its closure;
2. the factor constraint and the clean level-1 and level-0 constraints
   commute with taking maximal elements, because all are monotone in the
   lower part and comparable weak candidates share the same lower part;
   being monotone, all are pruned inside the walk, and no candidate is
   built to be thrown away;
3. for clean mode, candidates from distinct equivalence classes are
   never comparable, so classes can be enumerated independently.

A clean run walks only for level 2.  From the step building level 3 on it
reads each family off the chains of the run so far (``ChainIndex``), by
the lemma below; the walk stays as the rule for arbitrary multipartite
graphs and as the reference the chain path is tested against.

Chain-extension lemma.  Let P be the nontrivial elements (``lattice``)
ordered by inclusion, supp(o) the level-1 vertices of the cliques that
contain o, and ``snap[v][j]`` v's creation level-j neighbourhood.  In a
clean run, for every k >= 2 the level-k vertices are x_c, one for each
chain c = (c_1 < ... < c_{k-1}) of P, with

  (S0) ``snap[x_c][0]`` = c_1 and (S1) ``snap[x_c][1]`` = supp(c_{k-1}),
  (Sj) ``snap[x_c][j]`` = the x_(c_1..c_{j-2}, o) with c_{j-1} <= o <= c_j,
       for 2 <= j <= k-1: an interval of P above a fixed prefix;

and the clean family of the stage topped by level k has one member per
pair (t, e), t = x_c and e in P with e > m = c_{k-1}: the upper part is
the x_(c_1..c_{k-2}, o) with m <= o <= e, the lower part t's creation
neighbourhood at levels 0 and 2..k-1 with supp(e) at level 1, and the new
vertex is x_(c, e).

Proof, by induction on k.  Level 2 is the factor rule over cliques and
vertices, whose closed pairs with two of each are (supp(o), o) for o in P:
(S0) and (S1).  Given the claim for level k:

(a) A top vertex got all its edges when it was created and no step has
    cut any since, so its live neighbourhoods are its snapshots.
(b) A clean class is one chain prefix.  The class key (k >= 3) is the
    level-0 set and the sets of levels 2..k-2.  By (Sj) the level-j set
    names the prefix (c_1..c_{j-2}) and an interval whose least and
    greatest members are c_{j-1} and c_j, so the key fixes c_1..c_{k-2}
    and the class is the x_(pi, o), pi = (c_1..c_{k-2}), o > c_{k-2}.  At
    k = 2 the class is the whole level and pi is empty.
(c) Let U be two or more of a class, O their last elements, a the
    intersection and b the union of O, and b' the least element containing
    b (the intersection of the cliques that contain b).  Below U they have
    in common: at level 1 supp(b) = supp(b'); at level k-1 (k >= 3) the
    x_(c_1..c_{k-3}, o) with c_{k-2} <= o <= a; at level 0 c_1 (at k = 2,
    a); at levels 2..k-2 the class key.  The two-vertex conditions hold
    exactly when two or more cliques contain b and a > c_{k-2} (at k = 2,
    |a| >= 2).  Then b' is in P, and so is a: it is the intersection of the
    supports of O, two or more cliques, with two or more vertices.
(d) A class member x_(pi, o) is adjacent to all of that lower part
    exactly when supp(o) contains supp(b'), that is o <= b' (an element is
    the intersection of its supports), and a <= o.  So the extent is the
    interval [a, b'], and the closed pairs are exactly the intervals [m, e]
    with c_{k-2} < m < e (at k = 2, m < e); with t = x_(pi, m) the lower
    part is as stated (levels 2..k-2 from the key, level k-1 or 0 by (Sj)
    or (S0) of t).
(e) A new vertex's snapshots are its candidate split by level, which gives
    (S0), (S1) and (Sj) for the chain (c, e).  Each chain of length k comes
    from exactly one pair, its prefix's vertex and its last element, so
    level k+1 is in bijection with those chains.

The chain path groups the top level by the clean classes, as the walk
does, so by (b) each class is one set of siblings x_(pi, o), and by (S1)
each one's level-1 snapshot names its last element o.  By (b), each member
x_(pi, o) that (d) names exists, so a failed lookup in the index is an
integrity error.  Every producer orders its family by ``_order_key``, so
the chain path and the walk give one family in one order.

``brute_force_candidates`` enumerates subsets literally and exists as an
independent cross-check for small graphs; it must stay separate from the
fast path.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import ContractError, IntegrityError, MultipartiteGraph, bit_indices

MODES = ("weak", "factor", "clean")

# brute-force subset enumeration is exponential; cap its use
BRUTE_FORCE_LIMIT = 16


class Candidate(NamedTuple):
    """One admissible pair: ``upper`` above the cut, ``lower`` below it.

    Each part is an ascending tuple of vertex ids, as every producer
    builds it; the family order relies on that.
    """

    upper: tuple[int, ...]
    lower: tuple[int, ...]


def _order_key(c: Candidate) -> tuple[int, tuple[int, ...]]:
    """Families are ordered by size (descending) then vertex list."""
    u, l = c
    if not u or not l or l[-1] < u[0]:
        merged = l + u
    else:  # level ids interleave: a graph built by hand
        merged = tuple(sorted(u + l))
    return (-len(merged), merged)


def _check_target(mode: str, k: int) -> None:
    """A ``mode`` family for level k needs k existing levels: two, or three if clean."""
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    need = 3 if mode == "clean" else 2
    if k < need:
        raise ContractError(f"{mode} candidates need at least {need} existing levels")


def _ordered(members: Iterable[Candidate]) -> tuple[Candidate, ...]:
    """A family: the members in ``_order_key`` order, as a step spends them."""
    return tuple(sorted(members, key=_order_key))


def _closed_intents(
    objects: Iterable[int], keep: int = -1, meet: int = -1, also: int = -1
) -> set[int]:
    """Intersections of two or more of the listed objects, pruned.

    Equal objects count as two, so an object's own intent is kept exactly
    when a second object contains it.  Only intents with at least two bits
    inside every mask given, ``keep``, ``meet`` and ``also``, are kept; -1
    waives a mask.  The prune is exhaustive-safe because intersections only
    shrink and every condition is monotone: every prefix of a surviving
    intent is a superset of it and so survives too, and an object that
    fails can never join a survivor.

    Each surviving object and each kept intent is filed in an index under
    every one of its kept bits, and an arriving object meets only what is
    filed under one of its own.  That loses nothing: a kept intersection
    has two bits inside ``keep`` and each of its parts contains both.
    """
    intents: set[int] = set()
    by_bit: dict[int, set[int]] = {}
    for om in objects:
        kept = om & keep
        if kept.bit_count() < 2 or (om & meet).bit_count() < 2 or (om & also).bit_count() < 2:
            continue
        near = set().union(*[by_bit.get(b, ()) for b in bit_indices(kept)])
        cuts = {f & om for f in near}
        cuts -= intents
        fresh = [
            c
            for c in cuts
            if (c & keep).bit_count() >= 2
            and (c & meet).bit_count() >= 2
            and (c & also).bit_count() >= 2
        ]
        intents.update(fresh)
        fresh.append(om)
        for c in fresh:
            for b in bit_indices(c & keep):
                at = by_bit.get(b)
                if at is None:
                    by_bit[b] = {c}
                else:
                    at.add(c)
    return intents


def _concept_candidates(
    g: MultipartiteGraph, uppers: list[int], lowers: list[int], within: tuple[frozenset[int], ...]
) -> list[Candidate]:
    """Closed pairs over the given top-level/lower vertex lists.

    Only pairs whose lower part meets every level in ``within`` twice
    survive; the first keys the walk's index.  Both lists must be
    ascending.  The walk enumerates closed lower parts, where these
    constraints are monotone, instead of closed upper parts, whose closure
    system can dwarf the surviving family on dense graphs.
    """
    adj = g._adj
    lpos = {w: j for j, w in enumerate(lowers)}

    attr = [0] * len(lowers)
    objects: list[int] = []
    for i, x in enumerate(uppers):
        m = 0
        for w in adj[x]:
            j = lpos[w]
            m |= 1 << j
            attr[j] |= 1 << i
        objects.append(m)

    masks = [sum(1 << j for j, w in enumerate(lowers) if w in lv) for lv in within]
    out: list[Candidate] = []
    # every kept intent lies in two or more objects, so its extent has two
    for intent in _closed_intents(objects, *masks):
        bits = bit_indices(intent)
        extent = -1
        for j in bits:
            extent &= attr[j]
        out.append(
            Candidate(
                tuple(map(uppers.__getitem__, bit_indices(extent))),
                tuple(map(lowers.__getitem__, bits)),
            )
        )
    return out


def _family(
    g: MultipartiteGraph, classes: list[list[int]], *within: frozenset[int]
) -> tuple[Candidate, ...]:
    """Walk each ascending class of two or more top vertices over its own
    neighbourhood; a lower vertex no member touches lies in no intent."""
    adj = g._adj
    members: list[Candidate] = []
    for cls in classes:
        if len(cls) > 1:
            seen = set().union(*[adj[x] for x in cls])
            members.extend(_concept_candidates(g, cls, sorted(seen), within))
    return _ordered(members)


def weak_candidates(g: MultipartiteGraph) -> tuple[Candidate, ...]:
    """Maximal candidates with no mode constraint, for the next level."""
    _check_target("weak", g.top + 1)
    return _family(g, [sorted(g.levels[g.top])])


def factor_candidates(g: MultipartiteGraph) -> tuple[Candidate, ...]:
    """Maximal candidates whose lower part meets the level below the top twice."""
    _check_target("factor", g.top + 1)
    return _family(g, [sorted(g.levels[g.top])], g.levels[g.top - 1])


def _clean_classes(g: MultipartiteGraph) -> list[list[int]]:
    """Group top-level vertices by neighbourhoods at level 0 and 2..top-2.

    At level 2 the whole top level is one class: grouped by their level-0
    neighbourhoods, the level-2 vertices would each be alone.  Levels are
    disjoint, so one set, the neighbourhood without levels 1 and top-1,
    carries the same information as the per-level tuple.  A top vertex is
    grouped in the step right after its creation, so its live
    neighbourhoods still equal its creation snapshots; the key reads the
    live ones, which also serves graphs built by hand without snapshots.
    """
    top = g.top
    if top < 3:
        return [sorted(g.levels[top])]
    adj = g._adj
    drop = g.levels[1] | g.levels[top - 1]
    groups: dict[frozenset[int], list[int]] = {}
    for x in g.levels[top]:
        groups.setdefault(adj[x] - drop, []).append(x)
    return [sorted(v) for v in groups.values()]


class ChainIndex:
    """The element order of a clean run, read once off its level 2.

    Elements are the level-2 vertices, numbered by size, so a strict
    superset has a larger number.  ``_ext[m]`` lists for each element e
    strictly above element m the interval [m, e] as ascending numbers, so
    it starts at m and ends at e, ``_sup[e]`` is e's level-1 part, the
    sorted supports, and ``_elem`` maps each element's support set to its
    number.  Nothing of a later top level is kept: by (b) of the
    chain-extension lemma its clean classes are the sibling groups, and by
    (S1) a vertex's level-1 snapshot names its last element.
    """

    __slots__ = ("_ext", "_sup", "_elem")

    def _start(self, g: MultipartiteGraph) -> None:
        snaps = g.snapshots
        elems = sorted(g.levels[2], key=lambda v: (len(snaps[v][0]), v))
        # the elements through each level-0 vertex; an element's up-set is
        # the AND over its members, itself included
        through: dict[int, int] = {}
        for i, v in enumerate(elems):
            for w in snaps[v][0]:
                through[w] = through.get(w, 0) | 1 << i
        ups = []
        for v in elems:
            up = (1 << len(elems)) - 1
            for w in snaps[v][0]:
                up &= through[w]
            ups.append(up)
        downs = [0] * len(elems)
        for i, up in enumerate(ups):
            for j in bit_indices(up):
                downs[j] |= 1 << i
        self._ext = [
            [tuple(bit_indices(up & downs[e])) for e in bit_indices(up ^ (1 << m))]
            for m, up in enumerate(ups)
        ]
        self._sup = [tuple(sorted(snaps[v][1])) for v in elems]
        self._elem = {snaps[v][1]: i for i, v in enumerate(elems)}

    def family(self, g: MultipartiteGraph) -> tuple[Candidate, ...]:
        """The clean family of g, a stage of the run this index started on.

        The index reads its tables at the stage that tops out at level 2.
        Each clean class of g is one sibling group (b), and each member's
        level-1 snapshot is the support set of its last element m (S1).
        One candidate per top vertex t and element e strictly above m:
        the siblings of t ending in [m, e] above, and t's creation
        neighbourhood at levels 0 and 2..top-1 with e's supports below.
        Levels occupy ascending id blocks, so the lower part is sorted as
        concatenated.
        """
        top = g.top
        if top == 2:
            self._start(g)
        elif not hasattr(self, "_elem"):
            raise ContractError("a chain index starts at the stage that tops out at level 2")
        snaps = g.snapshots
        ext, sup, elem = self._ext, self._sup, self._elem
        members: list[Candidate] = []
        for cls in _clean_classes(g):
            sib: dict[int, int] = {}
            for x in cls:
                m = elem.get(snaps[x][1])
                if m is None:
                    raise IntegrityError(
                        f"{g.labels[x]}: level-1 snapshot supports no chain element"
                    )
                sib[m] = x
            for m, x in sib.items():
                ivs = ext[m]
                if not ivs:
                    continue
                s = snaps[x]
                head = tuple(sorted(s[0]))
                tail = tuple(sorted([y for j in range(2, top) for y in s[j]]))
                for iv in ivs:
                    try:
                        upper = [sib[o] for o in iv]
                    except KeyError as missing:
                        raise IntegrityError(
                            f"{g.labels[x]}: no sibling ends in chain element {missing.args[0]}"
                        ) from None
                    upper.sort()
                    members.append(Candidate(tuple(upper), head + sup[iv[-1]] + tail))
        return _ordered(members)


def clean_candidates(
    g: MultipartiteGraph, chains: ChainIndex | None = None
) -> tuple[Candidate, ...]:
    """Factor candidates meeting levels 1 and 0 twice, one class at a time.

    Given the ``chains`` of the run g is a stage of, the family is read off
    them instead of walked (the chain-extension lemma in the module
    docstring).
    """
    top = g.top
    _check_target("clean", top + 1)
    if chains is not None:
        return chains.family(g)
    # the level below the top first, as it keys the index; at level 3 it is level 1
    within = [g.levels[p] for p in sorted({top - 1, 1, 0}, reverse=True)]
    return _family(g, _clean_classes(g), *within)


def candidate_family(g: MultipartiteGraph, mode: str) -> tuple[Candidate, ...]:
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
        if len(lower & g.levels[1]) < 2 or len(lower & g.levels[0]) < 2:
            return False
        if top < 3:
            return True  # level 3 is built from the whole top level
        ps = (0, *range(2, top - 1))
        keys = {
            tuple(g.level_neighbours(x, p) for p in ps)
            for x in upper
        }
        if len(keys) > 1:
            return False
    return True


def brute_force_candidates(g: MultipartiteGraph, mode: str) -> tuple[Candidate, ...]:
    """Literal subset enumeration of the definition.  Small graphs only.

    Walks every upper subset; for a fixed upper part only the full common
    neighbourhood can be part of a maximal candidate set, and a valid
    smaller lower part exists exactly when the full one is valid.
    Independent of the fast path on purpose: tests compare the two routes.
    """
    from itertools import combinations

    _check_target(mode, g.top + 1)
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
                by_set.setdefault(us | common, Candidate(upper, tuple(sorted(common))))

    maximal = [
        c
        for s, c in by_set.items()
        if not any(s < t for t in by_set if t != s)
    ]
    return _ordered(maximal)
