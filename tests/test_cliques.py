import random
import sys
from itertools import combinations

import pytest

from multifact import (
    ContractError,
    Graph,
    clique_incidence,
    collapse_bipartite,
    maximal_cliques,
    random_graph,
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
    fast = set(maximal_cliques(g))
    assert fast == brute_maximal_cliques(g)
    # antichain property
    assert not any(a < b for a in fast for b in fast)


class TestCliqueIncidence:
    def test_diamond_shape(self, diamond):
        b = clique_incidence(diamond)
        assert b.level_sizes() == (4, 2)
        c0, c1 = sorted(b.levels[1])
        assert b.labels[c0] == "L1#0" and b.labels[c1] == "L1#1"
        assert b.neighbours(c0) == {0, 1, 2}
        assert b.neighbours(c1) == {1, 2, 3}
        # clique vertices carry their creation-time membership snapshot
        assert b.snapshot(c0, 0) == {0, 1, 2}

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

    @pytest.mark.parametrize("seed", range(8))
    def test_collapse_inverts_incidence(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(0, 9), rng.choice([0.2, 0.5, 0.8]), seed * 11 + 1)
        assert collapse_bipartite(clique_incidence(g)) == g
