"""Property tests: the declared invariants, driven by generated graphs."""

import random

from hypothesis import example, given, settings, strategies as st

from multifact import (
    Graph,
    MultipartiteGraph,
    brute_force_candidates,
    chains,
    clique_incidence,
    collapse_bipartite,
    factor_candidates,
    intersection_family,
    maximal_cliques,
    parse_edge_list,
    parse_multipartite,
    project,
    random_graph,
    run_clean,
    run_factor,
    run_weak,
    serialise_edge_list,
    serialise_multipartite,
    verify_charseq_theorem,
    verify_v2_bijection,
    weak_candidates,
)
from multifact.candidates import candidate_family
from multifact.lattice import characterising_sequence
from tests.conftest import DATA
from tests.test_cliques import brute_maximal_cliques

# generated instances stay small: the oracles are exponential and weak-mode
# level growth is explosive, so caps and sizes here are deliberate
gnp = st.builds(
    random_graph,
    st.sampled_from(range(3, 11)),  # flatter over n than integers, which favour 3
    st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)

# the graphs ``gnp`` leaves out: no vertex, one, two apart and two joined
TINY = (Graph([], []), Graph(["a"], []), Graph(["a", "b"], []), Graph(["a", "b"], [(0, 1)]))


def tiny_examples(*graphs: str, **rest):
    """Run the test on each graph of TINY as every one of ``graphs`` (``g``
    if none is named), beside ``rest``, as explicit examples."""

    def add(test):
        for g in TINY:
            test = example(**dict.fromkeys(graphs or ("g",), g), **rest)(test)
        return test

    return add

COMMON = dict(deadline=None, derandomize=True)


@settings(max_examples=60, **COMMON)
@given(gnp)
@tiny_examples()
def test_every_stage_is_a_partition_without_intra_level_edges(g):
    run = run_clean(g)
    for m in run.graphs:
        assert sum(m.level_sizes()) == m.vertex_count
        for u, v in m.edges:
            assert m.level_of(u) != m.level_of(v)


@settings(max_examples=40, **COMMON)
@given(gnp, st.integers(min_value=1, max_value=3))
@tiny_examples(cap=1)
def test_top_vertices_still_match_their_snapshots(g, cap):
    # the clean classes key on live neighbourhoods, which is sound because
    # a top level is grouped right after its creation, before anything
    # could cut its edges
    for run in (run_weak(g, cap=cap), run_factor(g, cap=cap), run_clean(g)):
        for m in run.graphs:
            for x in m.levels[m.top]:
                for j in range(m.top):
                    assert m.level_neighbours(x, j) == m.snapshot(x, j)


@settings(max_examples=60, **COMMON)
@given(gnp)
@tiny_examples()
def test_snapshots_never_change_once_recorded(g):
    run = run_clean(g)
    for earlier, later in zip(run.graphs, run.graphs[1:]):
        for x, per_level in earlier.snapshots.items():
            assert later.snapshots[x] == per_level


@settings(max_examples=60, **COMMON)
@given(gnp)
@tiny_examples()
def test_projection_inverts_every_effective_step(g):
    run = run_clean(g)
    for before, after in zip(run.graphs, run.graphs[1:]):
        assert project(after) == before


@settings(max_examples=30, **COMMON)
@given(gnp, st.integers(min_value=1, max_value=3))
@tiny_examples(cap=1)
def test_projection_inverts_weak_steps_too(g, cap):
    run = run_weak(g, cap=cap)
    for before, after in zip(run.graphs, run.graphs[1:]):
        assert project(after) == before


@settings(max_examples=30, **COMMON)
@given(gnp, st.integers(min_value=1, max_value=3))
@tiny_examples(cap=1)
def test_step_records_match_the_stages_they_join(g, cap):
    # every figure of a step record, recounted from the two stages it joins
    for run in (run_weak(g, cap=cap), run_factor(g, cap=cap), run_clean(g)):
        for s, before, after in zip(run.stats, run.graphs, run.graphs[1:]):
            assert s.edges == len(after.edges)
            assert s.removed_edges == len(before.edges - after.edges)
            assert s.added_edges == len(after.edges - before.edges)
            assert s.level_sizes == list(after.level_sizes())
            k = s.step + 1  # the level the step creates
            assert s.rule == ("factor" if run.mode == "clean" and k < 3 else run.mode)
        if run.status.terminated:
            last = run.stats[-1]
            assert (last.removed_edges, last.added_edges) == (0, 0)
            assert last.edges == len(run.final.edges)


@settings(max_examples=80, **COMMON)
@given(gnp)
@tiny_examples()
def test_clean_series_terminates_within_the_vertex_count(g):
    run = run_clean(g)
    assert run.status.kind == "terminated"
    assert run.status.rank <= max(g.vertex_count, 1)


@settings(max_examples=40, **COMMON)
@given(gnp)
@tiny_examples()
def test_all_modes_agree_on_stage_two(g):
    clean = run_clean(g).graphs
    if len(clean) < 2:
        return
    assert run_weak(g, cap=1).graphs[1] == clean[1] == run_factor(g, cap=1).graphs[1]


@settings(max_examples=40, **COMMON)
@given(gnp)
@tiny_examples()
def test_candidate_effectiveness_nests_across_modes(g):
    for m in run_clean(g).graphs:
        if m.top + 1 >= 3 and candidate_family(m, "clean"):
            assert factor_candidates(m)
        if factor_candidates(m):
            assert weak_candidates(m)


@settings(max_examples=60, **COMMON)
@given(gnp)
@tiny_examples()
def test_clique_enumeration_matches_subset_scan(g):
    fast = set(maximal_cliques(g))
    assert fast == brute_maximal_cliques(g)
    assert not any(a < b for a in fast for b in fast)


@settings(max_examples=60, **COMMON)
@given(gnp)
@tiny_examples()
def test_collapse_inverts_incidence(g):
    assert collapse_bipartite(clique_incidence(g)) == g


@settings(max_examples=25, **COMMON)
@given(gnp)
@tiny_examples()
def test_fast_candidates_match_brute_force_on_every_stage(g):
    for mode in ("weak", "factor", "clean"):
        run = run_weak(g, cap=2) if mode == "weak" else (
            run_factor(g, cap=4) if mode == "factor" else run_clean(g)
        )
        for m in run.graphs:
            if mode == "clean" and m.top + 1 < 3:
                continue
            if len(m.levels[m.top]) > 12:
                continue
            fast = {(c.upper, c.lower) for c in candidate_family(m, mode)}
            brute = {(c.upper, c.lower) for c in brute_force_candidates(m, mode)}
            assert fast == brute


@settings(max_examples=40, **COMMON)
@given(gnp)
@tiny_examples()
def test_intersection_family_is_a_fixpoint(g):
    fam = intersection_family(g)
    for a in fam.supports:
        for c in fam.cliques:
            assert a & c in fam.supports


@settings(max_examples=40, **COMMON)
@given(gnp)
@tiny_examples()
def test_level2_maps_onto_the_nontrivial_elements(g):
    run = run_clean(g)
    assert verify_v2_bijection(run)["pass"]


@settings(max_examples=40, **COMMON)
@given(gnp)
@tiny_examples()
def test_sequences_have_full_length_and_grow_strictly(g):
    run = run_clean(g)
    fam = intersection_family(g)
    m = run.final
    for k in range(2, m.top + 1):
        for x in m.levels[k]:
            s = characterising_sequence(run, x, fam)
            assert len(s) == k - 1
            assert all(a < b for a, b in zip(s, s[1:]))


@settings(max_examples=40, **COMMON)
@given(
    st.builds(
        random_graph,
        st.sampled_from(range(3, 12)),  # as in gnp, n <= 2 comes from TINY
        st.sampled_from([0.4, 0.6, 0.7, 0.8]),
        st.integers(min_value=0, max_value=10**6),
    )
)
@tiny_examples()
def test_clean_levels_are_as_large_as_their_chain_sets(g):
    # level k >= 2 is in bijection with the chains of length k-1, so it
    # has exactly as many vertices, and the run stops one past the height
    run = run_clean(g)
    fam = intersection_family(g)
    m = run.final
    assert run.status.rank == fam.height + 1
    report = verify_charseq_theorem(run, fam)["levels"]
    for k in range(2, max(m.top, fam.height + 1) + 1):
        built = len(m.levels[k]) if k <= m.top else 0
        count = len(chains(fam, k - 1))
        assert built == count, k
        # the report counts the chains it does not list
        assert report[k - 2]["chains"] == count, k


def creation_lemma_violations(m: MultipartiteGraph) -> list[tuple[int, int, int]]:
    """Triples (x, j, y) with y in snap[x][j] whose level-1 snapshot misses one of x's."""
    snaps = m.snapshots
    return [
        (x, j, y)
        for k in range(3, m.top + 1)
        for x in m.levels[k]
        for j in range(2, k)
        for y in snaps[x][j]
        if not snaps[y][1] >= snaps[x][1]
    ]


small_gnp = st.builds(
    random_graph,
    st.sampled_from(range(3, 8)),  # as in gnp, n <= 2 comes from TINY
    st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=100, **COMMON)
@given(small_gnp, st.integers(min_value=1, max_value=3), gnp, st.integers(min_value=1, max_value=4))
@tiny_examples("weak_g", "g", weak_cap=1, factor_cap=1)
def test_creation_lemma_on_every_stage(weak_g, weak_cap, g, factor_cap):
    # the lemma of the lattice module: whatever the rule, a vertex's level-j
    # neighbours carry at least its own cliques
    runs = (run_weak(weak_g, cap=weak_cap), run_factor(g, cap=factor_cap), run_clean(g))
    for run in runs:
        for m in run.graphs:
            assert creation_lemma_violations(m) == []
    # a clean vertex of level >= 3 carries two or more cliques itself, so
    # the cliques its neighbours share are never none
    for m in runs[-1].graphs:
        for k in range(3, m.top + 1):
            for x in m.levels[k]:
                assert len(m.snapshot(x, 1)) >= 2


@settings(max_examples=60, **COMMON)
@given(gnp)
@tiny_examples()
def test_edge_list_text_roundtrip(g):
    text = serialise_edge_list(g)
    parsed = parse_edge_list(text)
    assert parsed.edges == {
        tuple(sorted((parsed.labels.index(g.labels[u]), parsed.labels.index(g.labels[v]))))
        for u, v in g.edges
    }
    assert serialise_edge_list(parsed) == text


@settings(max_examples=40, **COMMON)
@given(gnp)
@tiny_examples()
def test_multipartite_roundtrip_on_pipeline_stages(g):
    for m in run_clean(g).graphs:
        text = serialise_multipartite(m)
        again = parse_multipartite(text)
        assert again == m
        assert serialise_multipartite(again) == text


@st.composite
def hand_built_multipartite(draw):
    """Sparse-id, partially-snapshotted graphs the pipeline would never emit."""
    n = draw(st.integers(min_value=1, max_value=7))
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n, unique=True)
    )
    level_count = draw(st.integers(min_value=1, max_value=4))
    level_of = {x: draw(st.integers(min_value=0, max_value=level_count - 1)) for x in ids}
    levels = [ {x for x in ids if level_of[x] == i} for i in range(level_count) ]
    labels = {x: f"n{x}" for x in ids}
    pairs = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if level_of[a] != level_of[b]
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    snaps = {}
    for x in ids:
        if level_of[x] == 0 or not draw(st.booleans()):
            continue
        per = {}
        for j in range(level_of[x]):
            if draw(st.booleans()):
                per[j] = draw(st.sets(st.sampled_from(sorted(levels[j]))) if levels[j] else st.just(set()))
        if per:
            snaps[x] = per
    return MultipartiteGraph(levels, labels, edges, snaps)


@settings(max_examples=60, **COMMON)
@given(hand_built_multipartite())
def test_multipartite_roundtrip_on_hand_built_graphs(m):
    text = serialise_multipartite(m)
    again = parse_multipartite(text)
    assert again == m
    assert serialise_multipartite(again) == text


@settings(max_examples=30, **COMMON)
@given(gnp)
@tiny_examples()
def test_runs_are_deterministic(g):
    a, b = run_clean(g), run_clean(g)
    assert a.final == b.final
    assert a.status == b.status
    assert serialise_multipartite(a.final) == serialise_multipartite(b.final)


def shape(m: MultipartiteGraph, source_name: dict[str, str], table: dict) -> set:
    """m as (name, neighbour names) pairs, free of vertex ids and labels.

    A level-0 vertex is named by ``source_name`` of its label; any other
    vertex by its level and the names of its creation snapshot members,
    interned in ``table`` so that runs sharing the table share names.
    """
    names: dict[int, object] = {x: source_name[m.labels[x]] for x in m.levels[0]}
    for k in range(1, m.top + 1):
        for x in sorted(m.levels[k]):
            snap = m.snapshots[x].items()
            key = (k, frozenset((j, frozenset(map(names.__getitem__, ys))) for j, ys in snap))
            names[x] = table.setdefault(key, len(table))
    # two members of one family have distinct full sets
    assert len(set(names.values())) == m.vertex_count
    return {(names[x], frozenset(map(names.__getitem__, m.neighbours(x)))) for x in m.vertices()}


@settings(max_examples=150, **COMMON)
@given(
    st.builds(
        random_graph,
        st.integers(min_value=4, max_value=10),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(min_value=0, max_value=10**6),
    ),
    st.integers(min_value=0, max_value=10**6),
)
@example(parse_edge_list((DATA / "apex_witness.edges").read_text()), 0)
def test_the_series_commutes_with_relabelling(g, seed):
    # a relabelling changes the vertex ids every tie is broken by, so any
    # tie-break that leaked into the output would show as a different shape
    new = dict(zip(g.labels, random.Random(seed).sample(g.labels, len(g.labels))))
    h = Graph.from_edge_list(
        [(new[g.labels[u]], new[g.labels[v]]) for u, v in g.edges], extra_vertices=new.values()
    )
    old = {b: a for a, b in new.items()}
    for series in (run_clean, lambda g: run_weak(g, cap=3), lambda g: run_factor(g, cap=3)):
        a, b = series(g), series(h)
        assert a.status == b.status
        table: dict = {}
        assert shape(a.final, {x: x for x in g.labels}, table) == shape(b.final, old, table)
