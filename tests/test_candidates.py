import sys

import pytest
from hypothesis import given, settings, strategies as st

from multifact import (
    BRUTE_FORCE_LIMIT,
    Candidate,
    CandidateFamily,
    ContractError,
    MultipartiteGraph,
    brute_force_candidates,
    clean_candidates,
    clique_incidence,
    factor_candidates,
    random_graph,
    run_clean,
    run_factor,
    run_weak,
    weak_candidates,
)
from multifact import candidates
from multifact.candidates import _closed_intents, candidate_family


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
        CandidateFamily("clean", 3, [])
    assert not CandidateFamily("weak", 2, []).effective


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


def test_clean_needs_four_levels(diamond):
    b = clique_incidence(diamond)
    with pytest.raises(ContractError):
        clean_candidates(b)
    with pytest.raises(ContractError):
        brute_force_candidates(b, "clean")


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
            if mode == "clean" and m.top + 1 < 4:
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
            if mode == "clean":
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
    saved = candidates._SCAN_LIMIT
    try:
        # the full scan, the index from the first intent on, and the default
        for limit in (sys.maxsize, 0, saved):
            candidates._SCAN_LIMIT = limit
            assert _closed_intents(objects, keep_mask, meet_mask) == want
            assert _closed_intents(unique, keep_mask, meet_mask) == want_unique
    finally:
        candidates._SCAN_LIMIT = saved


def test_closed_intents_index_is_exercised():
    # a dense context whose kept intents outgrow the full scan
    objects = [((1 << 12) - 1) ^ (1 << i) ^ (1 << (i + 3) % 12) for i in range(12)]
    objects += [m & ~(1 << j) for m in objects for j in (0, 5)]
    keep_mask = ((1 << 12) - 1) ^ 0b11
    meet_mask = (1 << 12) - 1
    got = _closed_intents(objects, keep_mask, meet_mask)
    assert len(got) > candidates._SCAN_LIMIT
    assert got == _all_pairs_closure(objects, keep_mask, meet_mask)
