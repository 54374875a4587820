import dataclasses

import pytest

from multifact import (
    ContractError,
    Graph,
    MultipartiteGraph,
    apex_graph,
    clique_incidence,
    random_graph,
    roundtrip_report,
    run_clean,
    run_factor,
    run_weak,
    series_stats,
)
from multifact import series


def test_diamond_clean(diamond):
    run = run_clean(diamond)
    assert run.status.kind == "terminated"
    assert run.status.rank == 2
    assert run.status.describe() == "terminated rank=2"
    assert run.final.level_sizes() == (4, 2, 1)
    assert len(run.graphs) == 2  # incidence stage plus one effective step
    assert run.graphs[0] == clique_incidence(diamond)


def test_bowtie_stalls_immediately_in_all_modes(bowtie):
    # the two triangles share a single vertex, so no admissible pair exists
    b = clique_incidence(bowtie)
    for run in (run_weak(bowtie), run_factor(bowtie), run_clean(bowtie)):
        assert run.status.kind == "terminated" and run.status.rank == 1
        assert run.final == b


def test_fix_chain_clean(fix_chain):
    run = run_clean(fix_chain)
    assert run.status.rank == 3
    assert run.final.level_sizes() == (6, 3, 2, 1)
    m = run.final
    # the two level-2 vertices were created on the nontrivial intersections
    images = {m.snapshot(x, 0) for x in m.levels[2]}
    assert images == {
        frozenset({0, 1}),            # {a, b}
        frozenset({0, 1, 2}),         # {a, b, c}
    }
    # and some level-3 vertex chains them together
    (x,) = m.levels[3]
    assert m.snapshot(x, 0) == {0, 1}


def test_empty_and_tiny_graphs():
    empty = run_clean(Graph([], []))
    assert empty.status.rank == 1 and empty.final.level_sizes() == (0, 0)
    single = run_clean(Graph(["a"], []))
    assert single.status.kind == "terminated"
    assert single.final.level_sizes() == (1, 1)
    k3 = run_clean(Graph.from_edge_list([("a", "b"), ("a", "c"), ("b", "c")]))
    assert k3.status.rank == 1 and k3.final.level_sizes() == (3, 1)


def test_mode_coincidence_at_step_one(diamond, fix_chain):
    for g in (diamond, fix_chain):
        stage2 = {
            mode: run.graphs[1]
            for mode, run in (
                ("weak", run_weak(g, cap=1)),
                ("factor", run_factor(g, cap=1)),
                ("clean", run_clean(g)),
            )
        }
        assert stage2["weak"] == stage2["factor"] == stage2["clean"]


def test_cap_semantics():
    wheel = apex_graph(4, 30)  # weak series never stalls on this one
    run = run_weak(wheel, cap=7)
    assert run.status.kind == "cap-reached" and run.status.cap == 7
    assert run.status.describe() == "cap-reached cap=7"
    # the incidence stage tops out at level 1; seven effective steps follow
    assert run.final.top == 8
    with pytest.raises(ContractError):
        run_weak(wheel, cap=0)
    # terminating before the cap reports terminated, not cap-reached
    tame = run_weak(Graph.from_edge_list([("a", "b")]), cap=5)
    assert tame.status.kind == "terminated"


def test_clean_rank_is_bounded_by_vertex_count():
    for seed in range(10):
        g = random_graph(9, 0.6, 5000 + seed)
        run = run_clean(g)
        assert run.status.kind == "terminated"
        assert run.status.rank <= g.vertex_count


def test_low_memory_keeps_only_the_final_stage(fix_chain):
    full = run_clean(fix_chain)
    lean = run_clean(fix_chain, low_memory=True)
    assert lean.final == full.final
    assert lean.status == full.status
    assert len(lean.graphs) == 1
    with pytest.raises(ContractError):
        roundtrip_report(lean)


def test_unknown_mode_is_a_contract_error(diamond):
    with pytest.raises(ContractError, match="unknown mode 'bogus'"):
        series._run(diamond, "bogus", None, False)


def test_roundtrip_report(fix_chain):
    rep = roundtrip_report(run_clean(fix_chain))
    assert rep == {"pass": True, "checked": 2, "failures": []}


def test_roundtrip_report_names_a_stage_with_a_moved_edge(fix_chain):
    run = run_clean(fix_chain)
    stage = run.graphs[1]
    # c's edge to the level-2 vertex of {a,b,c} moves to d
    ids = {label: x for x, label in stage.labels.items()}
    c, d = ids["c"], ids["d"]
    (y,) = [y for y in stage.levels[2] if c in stage.neighbours(y)]
    edges = (stage.edges - {(c, y)}) | {(d, y)}
    moved = MultipartiteGraph(stage.levels, stage.labels, edges, stage.snapshots)
    rep = roundtrip_report(dataclasses.replace(run, graphs=[run.graphs[0], moved, run.graphs[2]]))
    assert rep == {
        "pass": False,
        "checked": 2,
        "failures": [
            "stage with top level 2 does not project back",
            "stage with top level 3 does not project back",
        ],
    }


def test_series_stats_shape(diamond):
    run = run_clean(diamond)
    stats = series_stats(run)
    assert stats["mode"] == "clean"
    assert stats["status"] == {"kind": "terminated", "rank": 2, "cap": None}
    assert [s["step"] for s in stats["steps"]] == [1, 2]
    # clean mode applies the factor rule only while building level 2
    assert [s["rule"] for s in stats["steps"]] == ["factor", "clean"]
    assert [s["effective"] for s in stats["steps"]] == [True, False]
    assert stats["final"]["level_sizes"] == [4, 2, 1]
    assert stats["final"]["vertices"] == 7
    for s in stats["steps"]:
        assert s["candidates_ms"] >= 0 and s["factorise_ms"] >= 0
        assert s["elapsed_ms"] == s["candidates_ms"] + s["factorise_ms"]


def test_every_stage_respects_the_partition_and_level_rules(fix_chain):
    run = run_clean(fix_chain)
    for m in run.graphs:
        assert sum(m.level_sizes()) == m.vertex_count
        for u, v in m.edges:
            assert m.level_of(u) != m.level_of(v)


def test_snapshot_immutability(fix_chain):
    run = run_clean(fix_chain)
    # level-2 snapshots recorded at stage 2 never change in later stages
    stage2 = next(m for m in run.graphs if m.top == 2)
    for later in run.graphs:
        if later.top < 2:
            continue
        for x in stage2.levels[2]:
            assert later.snapshots[x] == stage2.snapshots[x]
