import pytest

from multifact import (
    Candidate,
    ContractError,
    IntegrityError,
    MultipartiteGraph,
    clean_candidates,
    clique_incidence,
    factor_candidates,
    factorise,
    project,
    random_graph,
    run_clean,
    run_factor,
    run_weak,
    weak_candidates,
)
from multifact.candidates import candidate_family


def test_diamond_step_two_exact(diamond):
    b = clique_incidence(diamond)
    step = factorise(b, factor_candidates(b))
    after = step.after
    assert after.level_sizes() == (4, 2, 1)
    (x,) = after.levels[2]
    assert after.labels[x] == "L2#0"
    # the new vertex joins exactly its candidate set: both cliques plus {b, c}
    assert after.neighbours(x) == {1, 2, 4, 5}
    # the cut removes the former clique-to-{b,c} incidences
    assert step.removed_edges == {(1, 4), (2, 4), (1, 5), (2, 5)}
    assert step.added_edges == {(1, x), (2, x), (4, x), (5, x)}
    assert step.removed_count == 4 and step.added_count == 4
    # snapshots record the creation-time neighbourhoods per level
    assert after.snapshot(x, 0) == {1, 2}
    assert after.snapshot(x, 1) == {4, 5}


def test_non_effective_step_returns_same_graph(diamond):
    final = run_clean(diamond).final
    fam = weak_candidates(final)
    assert fam == ()
    step = factorise(final, fam)
    assert step.after is final
    assert step.removed_count == 0 and step.added_count == 0


def test_family_level_mismatch_rejected(fix_chain):
    # a family of another stage has its upper parts off this top level,
    # whichever way the levels differ
    one, two = run_clean(fix_chain).graphs[:2]
    for stage, fam in ((two, factor_candidates(one)), (one, clean_candidates(two))):
        assert fam
        with pytest.raises(ContractError, match="leaves the top level"):
            factorise(stage, fam)
    # an empty family leaves any stage alone
    for stage in (one, two):
        step = factorise(stage, ())
        assert step.after is stage and not step.effective


@pytest.mark.parametrize(
    "upper, lower, error, fragment",
    [
        ("b c", "a d", ContractError, "leaves the top level"),
        ("L1#0 L1#1", "a d", IntegrityError, "removes edges absent"),
        ("L1#0 99", "b c", ContractError, "leaves the top level"),
        ("L1#0 L1#1", "b 99", ContractError, "names an unknown vertex 99"),
        ("L1#0 L1#0", "b c", ContractError, "repeats a vertex"),
        ("L1#0 L1#1", "b b", ContractError, "repeats a vertex"),
        ("L1#0 L1#1", "b L1#0", ContractError, "repeats a vertex"),
        ("L1#0", "b c", ContractError, "part of fewer than two"),
        ("L1#0 L1#1", "b", ContractError, "part of fewer than two"),
    ],
    ids=[
        "upper-below-the-top",
        "absent-edge",
        "unknown-upper",
        "unknown-lower",
        "repeated-upper",
        "repeated-lower",
        "upper-in-lower",
        "one-upper",
        "one-lower",
    ],
)
def test_malformed_family_rejected(diamond, upper, lower, error, fragment):
    # level 1 holds the cliques {a,b,c} and {b,c,d}; a and d lie in one each
    b = clique_incidence(diamond)
    ids = {label: x for x, label in b.labels.items()}

    def part(names: str) -> tuple[int, ...]:
        # a number names an id, present or not
        return tuple(sorted(ids[v] if v in ids else int(v) for v in names.split()))

    c = Candidate(part(upper), part(lower))
    with pytest.raises(error, match=fragment):
        factorise(b, (c,))


def test_level_discipline(diamond):
    b = clique_incidence(diamond)
    step = factorise(b, factor_candidates(b))
    k = step.after.top
    for u, v in step.added_edges:
        assert {step.after.level_of(u), step.after.level_of(v)} & {k}
    for u, v in step.removed_edges:
        levels = {b.level_of(u), b.level_of(v)}
        assert k - 1 in levels and min(levels) < k - 1 or levels == {k - 1, k - 2}


def test_project_requires_three_levels(diamond):
    b = clique_incidence(diamond)
    with pytest.raises(ContractError):
        project(b)


def test_project_inverts_each_step(diamond, bowtie, fix_chain):
    for g in (diamond, bowtie, fix_chain):
        run = run_clean(g)
        for before, after in zip(run.graphs, run.graphs[1:]):
            assert project(after) == before


def test_project_empty_top_just_drops_the_level(fix_chain):
    run = run_clean(fix_chain)
    m = run.final
    padded = MultipartiteGraph(
        list(m.levels) + [set()],
        dict(m.labels),
        m.edges,
        m.snapshots,
    )
    assert project(padded) == m


def test_projection_is_mode_agnostic(diamond):
    b = clique_incidence(diamond)
    for mode in ("weak", "factor"):
        step = factorise(b, candidate_family(b, mode))
        assert project(step.after) == b


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", ["weak", "factor", "clean"])
def test_random_roundtrips(seed, mode):
    g = random_graph(9, 0.5, 100 + seed)
    if mode == "weak":
        # weak levels can grow by orders of magnitude per step; stay low
        r = run_weak(g, cap=4)
    elif mode == "factor":
        r = run_factor(g, cap=10)
    else:
        r = run_clean(g)
    assert len(r.graphs) >= 1
    for before, after in zip(r.graphs, r.graphs[1:]):
        assert project(after) == before


def test_conservation(diamond):
    b = clique_incidence(diamond)
    step = factorise(b, factor_candidates(b))
    before_edges = set(b.edges)
    after_edges = set(step.after.edges)
    assert after_edges == (before_edges - step.removed_edges) | step.added_edges
    assert step.removed_edges <= before_edges
    assert not step.added_edges & before_edges


def test_snapshots_split_by_level_without_id_blocks():
    # ids interleave across levels and level 1 is empty, a layout the
    # pipeline never builds; snapshots still split by level
    m = MultipartiteGraph(
        [{0, 5}, set(), {2, 7}],
        {0: "a", 5: "b", 2: "c", 7: "d"},
        [(2, 0), (2, 5), (7, 0), (7, 5)],
    )
    step = factorise(m, weak_candidates(m))
    assert step.after.levels[3] == {8}
    assert step.after.snapshots[8] == {0: {0, 5}, 1: set(), 2: {2, 7}}
    assert project(step.after) == m


@pytest.mark.parametrize(
    "run, empty",
    [
        (run_clean, False),
        (lambda g: run_factor(g, cap=3), True),
        (lambda g: run_weak(g, cap=3), True),
    ],
    ids=["clean", "factor", "weak"],
)
def test_equal_snapshot_sets_of_a_new_level_are_one_object(run, empty):
    # a graph whose weak and factor series record empty snapshots
    m = run(random_graph(9, 0.7, 3)).final
    levels_with_empty = 0
    for k in range(2, m.top + 1):
        sets = [ms for x in m.levels[k] for ms in m.snapshots[x].values()]
        assert len({id(ms) for ms in sets}) == len(set(sets))
        levels_with_empty += frozenset() in sets
    if empty:
        # so on those levels the empty set is one object
        assert levels_with_empty >= 1
    else:
        # a clean lower part meets levels 0, 1 and top-1 twice, and each
        # level-j snapshot between resolves to an entry of the vertex's
        # chain, so no clean snapshot is empty
        assert levels_with_empty == 0
