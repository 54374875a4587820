import importlib.util
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from multifact import (
    BRUTE_FORCE_LIMIT,
    Candidate,
    CandidateFamily,
    ContractError,
    Graph,
    IntegrityError,
    MultipartiteGraph,
    brute_force_candidates,
    clean_candidates,
    clique_incidence,
    factor_candidates,
    random_graph,
    run_clean,
    run_factor,
    run_weak,
    serialise_edge_list,
    weak_candidates,
)
from multifact import series
from multifact.candidates import ChainIndex, _closed_intents, candidate_family
from multifact.cli import main


def pairs(fam: CandidateFamily) -> set[tuple[frozenset[int], frozenset[int]]]:
    return {(c.upper, c.lower) for c in fam}


def test_candidate_normalises_input():
    c = Candidate([3, 1, 1], [7, 2])
    assert c.upper == {1, 3} and c.lower == {2, 7}
    assert c.full_set == {1, 2, 3, 7}


def test_family_contracts(diamond):
    with pytest.raises(ContractError):
        CandidateFamily("bogus", 2, [])
    b = clique_incidence(diamond)
    for build in (candidate_family, brute_force_candidates):
        with pytest.raises(ContractError, match="unknown mode 'bogus'"):
            build(b, "bogus")
    with pytest.raises(ContractError):
        CandidateFamily("weak", 1, [])
    with pytest.raises(ContractError):
        CandidateFamily("clean", 2, [])
    assert not CandidateFamily("weak", 2, []).effective
    assert not CandidateFamily("clean", 3, []).effective


def test_diamond_incidence_single_candidate(diamond):
    b = clique_incidence(diamond)
    weak = weak_candidates(b)
    factor = factor_candidates(b)
    # at k=2 every lower neighbour is at level 0, so the two families agree
    assert pairs(weak) == pairs(factor) == pairs(brute_force_candidates(b, "weak"))
    assert len(weak) == 1
    (c,) = weak
    assert c.upper == frozenset(b.levels[1])
    assert c.lower == {1, 2}  # b and c, the shared pair of the two triangles


def test_singleton_top_level_gives_nothing(diamond):
    final = run_clean(diamond).final  # top level has one vertex
    assert not weak_candidates(final).effective
    assert not factor_candidates(final).effective


def test_clean_needs_three_levels(diamond, fix_chain):
    b = clique_incidence(diamond)
    with pytest.raises(ContractError, match="at least 3 existing levels"):
        clean_candidates(b)
    with pytest.raises(ContractError, match="at least 3 existing levels"):
        brute_force_candidates(b, "clean")
    three = run_clean(fix_chain).graphs[1]
    assert three.top == 2
    fam = clean_candidates(three)
    assert fam.effective
    assert pairs(fam) == pairs(brute_force_candidates(three, "clean"))


def test_tripartite_in_weak_but_not_factor():
    # two top vertices share two level-0 neighbours but only one level-1
    # neighbour: admissible for the weak rule, dropped by the depth filter
    g = MultipartiteGraph(
        [{0, 1}, {5, 6, 7}, {10, 11}],
        {0: "a", 1: "b", 5: "p", 6: "q", 7: "r", 10: "x", 11: "y"},
        [(10, 0), (10, 1), (11, 0), (11, 1), (10, 5), (11, 5), (10, 6), (11, 7)],
    )
    weak = weak_candidates(g)
    assert pairs(weak) == {(frozenset({10, 11}), frozenset({0, 1, 5}))}
    assert not factor_candidates(g).effective
    assert pairs(weak) == pairs(brute_force_candidates(g, "weak"))
    assert not brute_force_candidates(g, "factor").effective


def test_fix_chain_clean_step_four_is_empty(fix_chain):
    run = run_clean(fix_chain)
    stage = next(m for m in run.graphs if m.top == 3)
    assert not clean_candidates(stage).effective
    assert not brute_force_candidates(stage, "clean").effective


def test_brute_force_guard():
    g = random_graph(3, 0.0, 1)
    wide = MultipartiteGraph(
        [{0}, set(range(1, BRUTE_FORCE_LIMIT + 2))],
        {i: f"v{i}" for i in range(BRUTE_FORCE_LIMIT + 2)},
        [],
    )
    assert g is not None
    with pytest.raises(ContractError):
        brute_force_candidates(wide, "weak")


def _stages(seed: int):
    """All (stage, mode) pairs of three runs of one small random graph."""
    g = random_graph(8, 0.45, seed)
    for mode, run in (
        ("weak", run_weak(g, cap=8)),
        ("factor", run_factor(g, cap=8)),
        ("clean", run_clean(g)),
    ):
        for m in run.graphs:
            if mode == "clean" and m.top + 1 < 3:
                continue
            if len(m.levels[m.top]) <= BRUTE_FORCE_LIMIT:
                yield m, mode


@pytest.mark.parametrize("seed", range(6))
def test_fast_path_equals_brute_force(seed):
    checked = 0
    for m, mode in _stages(seed):
        assert pairs(candidate_family(m, mode)) == pairs(brute_force_candidates(m, mode))
        checked += 1
    assert checked


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_family_invariants(seed):
    for m, mode in _stages(seed):
        fam = candidate_family(m, mode)
        fulls = fam.full_sets()
        # antichain
        assert not any(a < b for a in fulls for b in fulls)
        top = m.top
        lowers = frozenset(x for lv in m.levels[:top] for x in lv)
        for c in fam:
            # biclique closure: lower is the exact common neighbourhood...
            common = lowers
            for y in c.upper:
                common &= m.neighbours(y)
            assert c.lower == common
            # ...and upper is closed within its admissible pool
            pool = {
                x for x in m.levels[top] if c.lower <= m.neighbours(x)
            }
            if mode == "clean" and top >= 3:  # level 3 is one class
                ps = (0, *range(2, top - 1))
                key = tuple(m.level_neighbours(next(iter(c.upper)), p) for p in ps)
                pool = {
                    x
                    for x in pool
                    if tuple(m.level_neighbours(x, p) for p in ps) == key
                }
            assert c.upper == pool


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_depth_filter_commutes_with_maximalisation(seed):
    for m, mode in _stages(seed):
        if mode != "weak":
            continue
        weak = weak_candidates(m)
        deep = {
            (c.upper, c.lower)
            for c in weak
            if len(c.lower & m.levels[m.top - 1]) >= 2
        }
        assert deep == pairs(factor_candidates(m))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_effectiveness_nesting(seed):
    for m, mode in _stages(seed):
        if mode != "clean":
            continue
        if clean_candidates(m).effective:
            assert factor_candidates(m).effective
        if factor_candidates(m).effective:
            assert weak_candidates(m).effective


def _all_pairs_closure(objects, keep_mask, meet_mask):
    """The concept walk before it was indexed: every object meets every intent.

    Kept as the reference the indexed walk is compared with.  It prunes by
    ``keep_mask`` only and applies ``meet_mask`` to the finished closure,
    as the clean rule once filtered its candidates.  The closure holds each
    object's own intent too; only the intents contained in two or more of
    the listed objects, equal objects counted apart, are intersections of
    two or more objects.
    """
    intents = set()
    for om in objects:
        if (om & keep_mask).bit_count() < 2:
            continue
        cuts = {om}
        cuts.update(f & om for f in intents)
        cuts -= intents
        if cuts:
            intents.update(c for c in cuts if (c & keep_mask).bit_count() >= 2)
    return {
        c
        for c in intents
        if (c & meet_mask).bit_count() >= 2 and sum(c & o == c for o in objects) >= 2
    }


def _masks(width: int, bits: st.SearchStrategy[int]) -> st.SearchStrategy[int]:
    """Masks over ``width`` attributes with a drawn number of set bits."""
    return bits.flatmap(
        lambda k: st.sets(st.integers(0, width - 1), min_size=k, max_size=k).map(
            lambda bs: sum(1 << b for b in bs)
        )
    )


def _context(width: int, bits: st.SearchStrategy[int], max_objects: int):
    objects = st.lists(_masks(width, bits), max_size=max_objects)
    # duplicates and the empty object are in on purpose
    objects = st.tuples(objects, st.integers(0, 3)).map(
        lambda t: t[0] + t[0][: t[1]] + [0] * (t[1] % 2)
    )
    mask = st.one_of(st.just((1 << width) - 1), st.integers(0, (1 << width) - 1))
    return st.tuples(objects, mask, mask)


CONTEXTS = st.one_of(
    _context(40, st.integers(0, 3), 160),  # sparse: 0-3 bits over 40 attributes
    _context(12, st.integers(5, 12), 40),  # dense
    _context(20, st.integers(0, 20), 60),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CONTEXTS)
def test_closed_intents_match_the_all_pairs_closure(context):
    objects, keep_mask, meet_mask = context
    want = _all_pairs_closure(objects, keep_mask, meet_mask)
    unique = sorted(set(objects))
    want_unique = _all_pairs_closure(unique, keep_mask, meet_mask)
    assert _closed_intents(objects, keep_mask, meet_mask) == want
    assert _closed_intents(unique, keep_mask, meet_mask) == want_unique


def test_closed_intents_match_the_all_pairs_closure_on_a_dense_context():
    # near-complete objects whose kept intents number over a thousand
    objects = [((1 << 12) - 1) ^ (1 << i) ^ (1 << (i + 3) % 12) for i in range(12)]
    objects += [m & ~(1 << j) for m in objects for j in (0, 5)]
    keep_mask = ((1 << 12) - 1) ^ 0b11
    meet_mask = (1 << 12) - 1
    got = _closed_intents(objects, keep_mask, meet_mask)
    assert got == _all_pairs_closure(objects, keep_mask, meet_mask)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CONTEXTS, st.integers(0, (1 << 40) - 1))
def test_a_third_mask_prunes_like_a_filter_after_the_walk(context, also):
    # the clean walk prunes by three levels; the third condition is
    # monotone too, so pruning by it equals filtering the finished closure
    objects, keep_mask, meet_mask = context
    want = {
        c
        for c in _all_pairs_closure(objects, keep_mask, meet_mask)
        if (c & also).bit_count() >= 2
    }
    assert _closed_intents(objects, keep_mask, meet_mask, also) == want


def clean_steps(g) -> list[tuple[MultipartiteGraph, CandidateFamily]]:
    """Each clean step of ``run_clean(g)``: the stage and the family it spent.

    The series calls its clean rule through ``series.clean_candidates``
    with the run's chain index, so a recorder put there sees every family
    built by chain extension.
    """
    steps = []
    real = series.clean_candidates

    def record(stage, chains=None):
        assert chains is not None
        fam = real(stage, chains)
        steps.append((stage, fam))
        return fam

    series.clean_candidates = record
    try:
        run_clean(g)
    finally:
        series.clean_candidates = real
    return steps


def assert_chain_families_are_the_rule(g) -> None:
    """Chain extension against the walk and, on small tops, the brute force."""
    for stage, fam in clean_steps(g):
        assert fam.members == clean_candidates(stage).members, stage.top
        if len(stage.levels[stage.top]) <= 13:
            assert fam.members == brute_force_candidates(stage, "clean").members, stage.top


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.builds(
        random_graph,
        st.integers(min_value=5, max_value=13),
        st.sampled_from([0.5, 0.7, 0.9]),  # sparser graphs seldom have chains
        st.integers(min_value=0, max_value=10**6),
    )
)
def test_chain_extension_gives_the_clean_family(g):
    assert_chain_families_are_the_rule(g)


def _bench_graphs() -> list[tuple[str, Graph]]:
    """Every edge list of the benchmark's workloads, under its own names."""
    path = pathlib.Path(__file__).parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    instances = [inputs.WARM_UP, *(i for w in inputs.WORKLOADS.values() for i in w)]
    return [(i.name, Graph(i.labels(0), i.edges)) for i in instances]


BENCH_GRAPHS = _bench_graphs()


@pytest.mark.parametrize("g", [g for _, g in BENCH_GRAPHS], ids=[n for n, _ in BENCH_GRAPHS])
def test_chain_extension_on_the_bench_graphs(g):
    assert_chain_families_are_the_rule(g)


def test_a_chain_index_follows_one_run_level_by_level(fix_chain):
    stages = run_clean(fix_chain).graphs
    assert [m.top for m in stages] == [1, 2, 3]
    chains = ChainIndex()
    with pytest.raises(ContractError, match="stands at level 0, not 2"):
        chains.family(stages[2])
    for m in stages[1:]:
        assert chains.family(m).members == clean_candidates(m).members
    with pytest.raises(ContractError, match="stands at level 3, not 2"):
        chains.family(stages[2])


def _lose(slot: str):
    """A ``ChainIndex._start`` that drops the largest key of one of its maps."""
    start = ChainIndex._start

    def start_and_lose(self, g):
        start(self, g)
        state = getattr(self, slot)
        if slot == "_kids":
            (state,) = state.values()  # level 2 is one sibling group
        del state[max(state)]

    return start_and_lose


@pytest.mark.parametrize(
    "slot, message",
    [
        ("_kids", "no sibling ends in chain element"),
        ("_last", "is not in the chain index"),
    ],
)
def test_a_failed_chain_lookup_is_one_integrity_error_line(
    slot, message, fix_chain, monkeypatch, tmp_path, capsys
):
    # fix-chain has elements {a,b} < {a,b,c}: the level-3 step needs both
    # level-2 vertices as siblings, and the level-4 step reads both again
    monkeypatch.setattr(ChainIndex, "_start", _lose(slot))
    with pytest.raises(IntegrityError, match=message):
        run_clean(fix_chain)
    path = tmp_path / "fix-chain.edges"
    path.write_text(serialise_edge_list(fix_chain))
    assert main(["decompose", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
