import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from multifact import (
    ContractError,
    Graph,
    MultipartiteGraph,
    clique_incidence,
    collapse_bipartite,
    maximal_cliques,
    random_graph,
    serialise_multipartite,
)


def brute_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """Every subset scan; fine up to a dozen vertices."""
    n = g.vertex_count
    is_clique = {}
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            s = frozenset(sub)
            is_clique[s] = all(v in g.neighbours(u) for u, v in combinations(sub, 2))
    cliques = {s for s, ok in is_clique.items() if ok}
    return {
        s
        for s in cliques
        if not any(s < t for t in cliques)
    }


def old_incidence(g: Graph) -> MultipartiteGraph:
    """The incidence built through the validating constructor.

    Kept as the reference the direct build is compared with: edges in,
    then each clique vertex's snapshot read back off the built graph.
    """
    n = g.vertex_count
    labels = dict(enumerate(g.labels))
    level1, edges = [], []
    for i, c in enumerate(maximal_cliques(g)):
        level1.append(n + i)
        labels[n + i] = f"L1#{i}"
        edges.extend((v, n + i) for v in c)
    b = MultipartiteGraph([range(n), level1], labels, edges)
    snaps = {y: {0: b.level_neighbours(y, 0)} for y in level1}
    return MultipartiteGraph(b.levels, b.labels, b.edges, snaps)


def test_diamond_cliques(diamond):
    ks = maximal_cliques(diamond)
    assert set(ks) == {frozenset({0, 1, 2}), frozenset({1, 2, 3})}
    assert tuple(i for i, c in enumerate(ks) if 1 in c) == (0, 1)
    assert len(ks) == 2


def test_named_small_graphs(k3):
    assert set(maximal_cliques(k3)) == {frozenset({0, 1, 2})}
    # C5: five edges, five maximal cliques
    c5 = Graph(["v%d" % i for i in range(5)], [(i, (i + 1) % 5) for i in range(5)])
    assert set(maximal_cliques(c5)) == {frozenset(e) for e in c5.edges}
    # isolated vertices come out as singleton cliques
    iso = Graph.from_edge_list([("a", "b")], extra_vertices=["z"])
    assert set(maximal_cliques(iso)) == {frozenset({0, 1}), frozenset({2})}
    assert len(maximal_cliques(Graph([], []))) == 0


def test_cliques_are_canonically_sorted():
    g = Graph.from_edge_list([("d", "c"), ("b", "a")])
    ks = maximal_cliques(g)
    assert [sorted(c) for c in ks] == sorted([sorted(c) for c in ks])


def test_clique_past_the_recursion_limit():
    # one branch per clique vertex; the branches wait on a stack, not in frames
    n = sys.getrecursionlimit() + 100
    k_n = Graph([f"x{i}" for i in range(n)], [(u, v) for u in range(n) for v in range(u + 1, n)])
    assert maximal_cliques(k_n) == (frozenset(range(n)),)


@pytest.mark.parametrize("n,p,seed", [(6, 0.4, 1), (8, 0.5, 2), (10, 0.6, 3), (12, 0.5, 4), (12, 0.8, 5)])
def test_against_subset_oracle(n, p, seed):
    g = random_graph(n, p, seed)
    ks = maximal_cliques(g)
    # the graph keeps its cliques: a second call returns the same tuple
    assert maximal_cliques(g) is ks
    fast = set(ks)
    assert fast == brute_maximal_cliques(g)
    # antichain property
    assert not any(a < b for a in fast for b in fast)


class TestCliqueIncidence:
    def test_diamond_shape(self, diamond):
        b = clique_incidence(diamond)
        assert b.level_sizes() == (4, 2)
        c0, c1 = sorted(b.levels[1])
        assert b.labels[c0] == "L1#0" and b.labels[c1] == "L1#1"
        assert b.neighbours(c0) == (0, 1, 2)
        assert b.neighbours(c1) == (1, 2, 3)
        # clique vertices carry their creation-time membership snapshot
        assert b.snapshot(c0, 0) == (0, 1, 2)

    def test_original_labels_preserved(self, diamond):
        b = clique_incidence(diamond)
        assert [b.labels[x] for x in sorted(b.levels[0])] == ["a", "b", "c", "d"]

    def test_collapse_rejects_wrong_shapes(self, diamond):
        from multifact import run_clean

        # a 3-level graph is not collapsible
        with pytest.raises(ContractError):
            collapse_bipartite(run_clean(diamond).final)
        assert collapse_bipartite(clique_incidence(diamond)) == diamond
        # degenerate but legal: the empty graph collapses to itself
        assert collapse_bipartite(clique_incidence(Graph([], []))) == Graph([], [])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.builds(
            random_graph,
            st.integers(min_value=0, max_value=14),
            st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]),
            st.integers(min_value=0, max_value=10**6),
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_matches_the_validating_build(self, g, isolated):
        # extra vertices with no edges are singleton cliques
        g = Graph(g.labels + tuple(f"z{i}" for i in range(isolated)), g.edges)
        assert_same_incidence(clique_incidence(g), old_incidence(g))

    def test_matches_the_validating_build_on_large_cliques(self):
        n = sys.getrecursionlimit() + 100
        k_n = Graph([f"x{i}" for i in range(n)], [(u, v) for u in range(n) for v in range(u + 1, n)])
        for g in (Graph([], []), Graph(["a"], []), k_n):
            assert_same_incidence(clique_incidence(g), old_incidence(g))

    @pytest.mark.parametrize("label", ["L1#0", "L2#0", "L13#207"])
    def test_generated_labels_are_reserved(self, label):
        g = Graph.from_edge_list([("a", "b"), ("b", label)])
        with pytest.raises(ContractError, match=f"'{label}' is reserved"):
            clique_incidence(g)

    @pytest.mark.parametrize("label", ["L0#1", "L1#01", "L01#0", "L1#", "l1#0", "L1#0x"])
    def test_lookalike_labels_are_kept(self, label):
        g = Graph.from_edge_list([("a", "b"), ("b", label)])
        assert_same_incidence(clique_incidence(g), old_incidence(g))

    @pytest.mark.parametrize("seed", range(8))
    def test_collapse_inverts_incidence(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(0, 9), rng.choice([0.2, 0.5, 0.8]), seed * 11 + 1)
        assert collapse_bipartite(clique_incidence(g)) == g


def assert_same_incidence(b: MultipartiteGraph, ref: MultipartiteGraph) -> None:
    assert b == ref
    assert b.edge_count == ref.edge_count == len(ref.edges)
    assert b.edges == ref.edges
    assert [b.level_of(x) for x in b.vertices()] == [ref.level_of(x) for x in ref.vertices()]
    assert serialise_multipartite(b) == serialise_multipartite(ref)
