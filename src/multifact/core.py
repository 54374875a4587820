"""Levelled graph model: simple graphs, multipartite graphs, creation snapshots.

Vertices are dense integer ids paired with a label table.  Ids stay stable
across decomposition steps; each step only appends fresh ids for its new
top level, so in pipeline-built graphs every level occupies a contiguous
id block.  Decompositions of moderately dense graphs run to tens of
thousands of vertices, so construction keeps adjacency as shared frozensets
and nothing else: edge counts and flat edge sets are computed from the
adjacency each time they are read.  A ``Graph`` also keeps its maximal
cliques once ``cliques.maximal_cliques`` has enumerated them, so every
layer that reads them shares one enumeration.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class ContractError(ValueError):
    """An operation was invoked outside its documented contract."""


class IntegrityError(RuntimeError):
    """A guarantee that should hold by construction was violated."""


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        b = mask.bit_length() - 1
        out.append(b)
        mask ^= 1 << b
    out.reverse()
    return out


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ContractError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph on dense integer vertices 0..n-1."""

    __slots__ = ("labels", "_adj", "_cliques")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[int, int]]):
        self.labels: tuple[str, ...] = tuple(map(str, labels))
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ContractError("vertex labels must be unique")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ContractError(f"edge ({u}, {v}) references an unknown vertex")
            u, v = canonical_edge(u, v)
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(a) for a in adj)
        # filled by cliques.maximal_cliques on first use
        self._cliques: tuple[frozenset[int], ...] | None = None

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[tuple[str, str]],
        extra_vertices: Iterable[str] = (),
    ) -> "Graph":
        """Build a graph from labelled edges.  Ids follow sorted label order."""
        edges = list(edges)
        labels = sorted({x for e in edges for x in e} | set(extra_vertices))
        index = {lab: i for i, lab in enumerate(labels)}
        return cls(labels, [(index[a], index[b]) for a, b in edges])

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def vertices(self) -> range:
        return range(len(self.labels))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Flat canonical edge set, computed from adjacency."""
        return frozenset((x, y) for x, nbrs in enumerate(self._adj) for y in nbrs if x < y)

    def neighbours(self, x: int) -> frozenset[int]:
        if not (0 <= x < len(self.labels)):
            raise KeyError(x)
        return self._adj[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.labels, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={len(self.labels)}, m={sum(map(len, self._adj)) // 2})"


class MultipartiteGraph:
    """Levelled graph whose edges connect distinct levels only.

    ``snapshots[x][j]`` records the level-j neighbourhood a vertex ``x``
    (level >= 1) had when its level was created.  Later steps may remove
    edges incident to ``x`` but never rewrite the snapshot.  Graphs built by
    ``factorise`` or parsed from mgraph text share one set object among the
    equal snapshots of a level, so code must not rely on their identity.
    """

    __slots__ = ("levels", "labels", "snapshots", "_adj", "_level_of")

    def __init__(
        self,
        levels: Iterable[Iterable[int]],
        labels: Mapping[int, str],
        edges: Iterable[tuple[int, int]],
        snapshots: Mapping[int, Mapping[int, Iterable[int]]] | None = None,
    ):
        self.levels: tuple[frozenset[int], ...] = tuple(frozenset(lv) for lv in levels)
        if not self.levels:
            raise ContractError("a multipartite graph needs at least one level")
        level_of: dict[int, int] = {}
        for i, lv in enumerate(self.levels):
            for x in lv:
                if x in level_of:
                    raise ContractError(f"vertex {x} appears in more than one level")
                level_of[x] = i
        self._level_of = level_of
        self.labels: dict[int, str] = {x: str(labels[x]) for x in level_of}
        if len(set(self.labels.values())) != len(self.labels):
            raise ContractError("vertex labels must be unique")

        adj: dict[int, set[int]] = {x: set() for x in level_of}
        for u, v in edges:
            if u not in level_of or v not in level_of:
                raise ContractError(f"edge ({u}, {v}) references an unknown vertex")
            # a self-loop joins a vertex to its own level and fails here too
            if level_of[u] == level_of[v]:
                raise ContractError(f"edge ({u}, {v}) joins two level-{level_of[u]} vertices")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[int, frozenset[int]] = {x: frozenset(s) for x, s in adj.items()}

        snaps: dict[int, dict[int, frozenset[int]]] = {}
        for x, per_level in (snapshots or {}).items():
            if x not in level_of:
                raise ContractError(f"snapshot for unknown vertex {x}")
            lx = level_of[x]
            if lx == 0:
                raise ContractError(f"vertex {x} is at level 0 and cannot carry snapshots")
            entry: dict[int, frozenset[int]] = {}
            for j, members in per_level.items():
                if not isinstance(j, int):
                    raise ContractError(f"snapshot level {j!r} of vertex {x} is not an integer")
                if not 0 <= j < lx:
                    raise ContractError(
                        f"snapshot level {j} out of range for vertex {x} at level {lx}"
                    )
                ms = frozenset(members)
                if not ms <= self.levels[j]:
                    raise ContractError(f"snapshot of vertex {x} at level {j} leaves that level")
                entry[j] = ms
            snaps[x] = entry
        self.snapshots: dict[int, dict[int, frozenset[int]]] = snaps

    @classmethod
    def _assemble(
        cls,
        levels: tuple[frozenset[int], ...],
        labels: dict[int, str],
        adj: dict[int, frozenset[int]],
        snapshots: dict[int, dict[int, frozenset[int]]],
    ) -> "MultipartiteGraph":
        # trusted constructor for pipeline-internal callers; skips validation
        g = object.__new__(cls)
        g.levels = levels
        g.labels = labels
        g._adj = adj
        g.snapshots = snapshots
        level_of: dict[int, int] = {}
        for i, lv in enumerate(levels):
            for x in lv:
                level_of[x] = i
        g._level_of = level_of
        return g

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    @property
    def vertex_count(self) -> int:
        return sum(len(lv) for lv in self.levels)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Flat canonical edge set, computed from adjacency."""
        return frozenset((x, y) for x, nbrs in self._adj.items() for y in nbrs if x < y)

    def vertices(self) -> Iterator[int]:
        return iter(sorted(self._level_of))

    def level_of(self, x: int) -> int:
        return self._level_of[x]

    def neighbours(self, x: int) -> frozenset[int]:
        return self._adj[x]

    def level_neighbours(self, x: int, i: int) -> frozenset[int]:
        if not 0 <= i <= self.top:
            raise IndexError(f"level {i} out of range 0..{self.top}")
        return self.neighbours(x) & self.levels[i]

    def snapshot(self, x: int, j: int) -> frozenset[int]:
        """Creation-time level-j neighbourhood of x.  KeyError when unrecorded."""
        return self.snapshots[x][j]

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultipartiteGraph):
            return NotImplemented
        return (
            self.levels == other.levels
            and self.labels == other.labels
            and self._adj == other._adj
            and self.snapshots == other.snapshots
        )

    def __repr__(self) -> str:
        return f"MultipartiteGraph(levels={self.level_sizes()}, m={self.edge_count})"

