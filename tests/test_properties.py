"""Property tests: the declared invariants, driven by generated graphs."""

from hypothesis import given, settings, strategies as st

from multifact import (
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
    verify_v2_bijection,
    weak_candidates,
)
from multifact.candidates import candidate_family
from multifact.lattice import characterising_sequence
from tests.test_cliques import brute_maximal_cliques

# generated instances stay small: the oracles are exponential and weak-mode
# level growth is explosive, so caps and sizes here are deliberate
gnp = st.builds(
    random_graph,
    st.integers(min_value=0, max_value=10),
    st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)

COMMON = dict(deadline=None, derandomize=True)


@settings(max_examples=60, **COMMON)
@given(gnp)
def test_every_stage_is_a_partition_without_intra_level_edges(g):
    run = run_clean(g)
    for m in run.graphs:
        assert sum(m.level_sizes()) == m.vertex_count
        for u, v in m.edges:
            assert m.level_of(u) != m.level_of(v)


@settings(max_examples=40, **COMMON)
@given(gnp, st.integers(min_value=1, max_value=3))
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
def test_snapshots_never_change_once_recorded(g):
    run = run_clean(g)
    for earlier, later in zip(run.graphs, run.graphs[1:]):
        for x, per_level in earlier.snapshots.items():
            assert later.snapshots[x] == per_level


@settings(max_examples=60, **COMMON)
@given(gnp)
def test_projection_inverts_every_effective_step(g):
    run = run_clean(g)
    for before, after in zip(run.graphs, run.graphs[1:]):
        assert project(after) == before


@settings(max_examples=30, **COMMON)
@given(gnp, st.integers(min_value=1, max_value=3))
def test_projection_inverts_weak_steps_too(g, cap):
    run = run_weak(g, cap=cap)
    for before, after in zip(run.graphs, run.graphs[1:]):
        assert project(after) == before


@settings(max_examples=30, **COMMON)
@given(gnp, st.integers(min_value=1, max_value=3))
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
def test_clean_series_terminates_within_the_vertex_count(g):
    run = run_clean(g)
    assert run.status.kind == "terminated"
    assert run.status.rank <= max(g.vertex_count, 1)


@settings(max_examples=40, **COMMON)
@given(gnp)
def test_all_modes_agree_on_stage_two(g):
    clean = run_clean(g).graphs
    if len(clean) < 2:
        return
    assert run_weak(g, cap=1).graphs[1] == clean[1] == run_factor(g, cap=1).graphs[1]


@settings(max_examples=40, **COMMON)
@given(gnp)
def test_candidate_effectiveness_nests_across_modes(g):
    for m in run_clean(g).graphs:
        if m.top + 1 >= 3 and candidate_family(m, "clean").effective:
            assert factor_candidates(m).effective
        if factor_candidates(m).effective:
            assert weak_candidates(m).effective


@settings(max_examples=60, **COMMON)
@given(gnp)
def test_clique_enumeration_matches_subset_scan(g):
    fast = set(maximal_cliques(g))
    assert fast == brute_maximal_cliques(g)
    assert not any(a < b for a in fast for b in fast)


@settings(max_examples=60, **COMMON)
@given(gnp)
def test_collapse_inverts_incidence(g):
    assert collapse_bipartite(clique_incidence(g)) == g


@settings(max_examples=25, **COMMON)
@given(gnp)
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
def test_intersection_family_is_a_fixpoint(g):
    fam = intersection_family(g)
    for a in fam.supports:
        for c in fam.cliques:
            assert a & c in fam.supports


@settings(max_examples=40, **COMMON)
@given(gnp)
def test_level2_maps_onto_the_nontrivial_elements(g):
    run = run_clean(g)
    assert verify_v2_bijection(run)["pass"]


@settings(max_examples=40, **COMMON)
@given(gnp)
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
        st.integers(min_value=0, max_value=11),
        st.sampled_from([0.4, 0.6, 0.7, 0.8]),
        st.integers(min_value=0, max_value=10**6),
    )
)
def test_clean_levels_are_as_large_as_their_chain_sets(g):
    # level k >= 2 is in bijection with the chains of length k-1, so it
    # has exactly as many vertices, and the run stops one past the height
    run = run_clean(g)
    fam = intersection_family(g)
    m = run.final
    assert run.status.rank == fam.height + 1
    for k in range(2, max(m.top, fam.height + 1) + 1):
        built = len(m.levels[k]) if k <= m.top else 0
        assert built == len(chains(fam, k - 1)), k


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
    st.integers(min_value=0, max_value=7),
    st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=100, **COMMON)
@given(small_gnp, st.integers(min_value=1, max_value=3), gnp, st.integers(min_value=1, max_value=4))
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
def test_runs_are_deterministic(g):
    a, b = run_clean(g), run_clean(g)
    assert a.final == b.final
    assert a.status == b.status
    assert serialise_multipartite(a.final) == serialise_multipartite(b.final)
