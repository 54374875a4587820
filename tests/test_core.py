import pytest

from multifact import (
    ContractError,
    Graph,
    MultipartiteGraph,
    run_clean,
    serialise_edge_list,
)
from multifact.core import canonical_edge


class TestGraph:
    def test_edges_are_canonical(self):
        g = Graph(["a", "b", "c"], [(2, 0), (0, 1), (1, 0)])
        assert g.edges == {(0, 2), (0, 1)}

    def test_self_loop_rejected(self):
        with pytest.raises(ContractError):
            Graph(["a", "b"], [(0, 0)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ContractError):
            Graph(["a", "b"], [(0, 2)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ContractError):
            Graph(["a", "a"], [])

    def test_labels_are_strings(self):
        # a label that is not a string is converted, as the multipartite
        # graph converts its own, so the text formats can write it
        g = Graph([1, 2, 3], [(0, 1), (1, 2)])
        assert g.labels == ("1", "2", "3")
        assert serialise_edge_list(g) == serialise_edge_list(Graph(["1", "2", "3"], g.edges))
        assert run_clean(g).status.describe() == "terminated rank=1"
        with pytest.raises(ContractError, match="labels must be unique"):
            Graph(["1", 1], [])

    def test_from_edge_list_ids_follow_sorted_labels(self):
        g = Graph.from_edge_list([("z", "m"), ("m", "a")], extra_vertices=["q"])
        assert g.labels == ("a", "m", "q", "z")
        assert g.edges == {(0, 1), (1, 3)}
        assert g.neighbours(1) == {0, 3}
        assert g.neighbours(2) == frozenset()

    def test_neighbours_unknown_vertex(self):
        g = Graph(["a"], [])
        with pytest.raises(KeyError):
            g.neighbours(3)

    def test_equality_and_hash(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph(["a", "b"], [(1, 0)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != Graph(["a", "b"], [])

    def test_canonical_edge(self):
        assert canonical_edge(4, 1) == (1, 4)
        with pytest.raises(ContractError):
            canonical_edge(2, 2)


def tripartite() -> MultipartiteGraph:
    return MultipartiteGraph(
        [{0, 1}, {2, 3}, {4}],
        {0: "a", 1: "b", 2: "c", 3: "d", 4: "e"},
        [(0, 2), (1, 2), (2, 4), (0, 4)],
        {4: {0: [0], 1: [2]}, 2: {0: [0, 1]}},
    )


class TestMultipartiteGraph:
    def test_partition_and_levels(self):
        m = tripartite()
        assert m.top == 2
        assert m.level_sizes() == (2, 2, 1)
        assert m.vertex_count == 5
        assert sum(m.level_sizes()) == m.vertex_count
        assert m.level_of(3) == 1
        assert list(m.vertices()) == [0, 1, 2, 3, 4]

    def test_vertex_in_two_levels_rejected(self):
        with pytest.raises(ContractError):
            MultipartiteGraph([{0}, {0}], {0: "a"}, [])

    def test_same_level_edge_rejected(self):
        with pytest.raises(ContractError):
            MultipartiteGraph([{0, 1}], {0: "a", 1: "b"}, [(0, 1)])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ContractError):
            MultipartiteGraph([{0}], {0: "a"}, [(0, 9)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ContractError):
            MultipartiteGraph([{0}, {1}], {0: "a", 1: "a"}, [])

    def test_needs_a_level(self):
        with pytest.raises(ContractError):
            MultipartiteGraph([], {}, [])

    def test_adjacency_and_level_neighbours(self):
        m = tripartite()
        assert m.neighbours(2) == {0, 1, 4}
        assert m.level_neighbours(2, 0) == {0, 1}
        assert m.level_neighbours(2, 2) == {4}
        assert m.level_neighbours(4, 0) == {0}
        assert m.neighbours(4) == {0, 2}
        with pytest.raises(IndexError):
            m.level_neighbours(2, 9)

    def test_edge_count_and_lazy_edges(self):
        m = tripartite()
        assert m.edge_count == 4
        assert m.edges == {(0, 2), (1, 2), (2, 4), (0, 4)}

    def test_snapshot_validation(self):
        with pytest.raises(ContractError, match="unknown vertex"):
            MultipartiteGraph([{0}, {1}], {0: "a", 1: "b"}, [], {9: {0: []}})
        with pytest.raises(ContractError, match="level 0"):
            MultipartiteGraph([{0}, {1}], {0: "a", 1: "b"}, [], {0: {0: []}})
        with pytest.raises(ContractError, match="out of range"):
            MultipartiteGraph([{0}, {1}], {0: "a", 1: "b"}, [], {1: {1: []}})
        with pytest.raises(ContractError, match="leaves that level"):
            MultipartiteGraph([{0}, {1}], {0: "a", 1: "b"}, [], {1: {0: [1]}})

    @pytest.mark.parametrize(
        "snaps", [{2: {0.9: [0, 1]}}, {2: {0: [0], 0.5: [1]}}, {2: {"0": [0]}}]
    )
    def test_snapshot_level_must_be_an_int(self, snaps):
        # no key is rounded to a level: 0.9 would store the snapshot at
        # level 0, and 0.5 would overwrite the level-0 one
        with pytest.raises(ContractError, match="is not an integer"):
            MultipartiteGraph([{0, 1}, {2}], {0: "a", 1: "b", 2: "c"}, [], snaps)

    def test_snapshot_access(self):
        m = tripartite()
        assert m.snapshot(4, 0) == {0}
        assert 4 in m.snapshots and 3 not in m.snapshots
        with pytest.raises(KeyError):
            m.snapshot(4, 5)
        with pytest.raises(KeyError):
            m.snapshot(3, 0)

    def test_equality(self):
        assert tripartite() == tripartite()
        other = MultipartiteGraph(
            [{0, 1}, {2, 3}, {4}],
            {0: "a", 1: "b", 2: "c", 3: "d", 4: "e"},
            [(0, 2), (1, 2), (2, 4), (0, 4)],
        )
        assert tripartite() != other  # snapshots differ
