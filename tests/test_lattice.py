import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from multifact import (
    ContractError,
    Graph,
    IntegrityError,
    MultipartiteGraph,
    brute_force_candidates,
    chains,
    characterising_sequence,
    intersection_family,
    maximal_cliques,
    parse_edge_list,
    random_graph,
    run_clean,
    run_weak,
    size_bound,
    verify_charseq_theorem,
    verify_v2_bijection,
)
from multifact import lattice
from multifact.candidates import clean_candidates
from multifact.lattice import _WITNESS_CAP, _Resolver
from tests.conftest import DATA


def brute_elements(g: Graph) -> set[frozenset[int]]:
    """Intersections of every subfamily of >= 2 maximal cliques."""
    ks = list(maximal_cliques(g))
    assert len(ks) <= 15, "oracle scan too large"
    out: set[frozenset[int]] = set()
    for r in range(2, len(ks) + 1):
        for combo in combinations(ks, r):
            s = combo[0]
            for c in combo[1:]:
                s = s & c
            out.add(s)
    return out


def closed_elements(g: Graph) -> set[frozenset[int]]:
    """``brute_elements`` for graphs with too many cliques to scan subsets:
    each intersection of two or more cliques is one of pairwise ones."""
    out = {a & b for a, b in combinations(maximal_cliques(g), 2)}
    fresh = out
    while fresh:
        fresh = {a & b for a in fresh for b in out} - out
        out |= fresh
    return out


def brute_chains(fam, length: int) -> set[tuple[frozenset[int], ...]]:
    out = {(o,) for o in fam.nontrivial}
    for _ in range(length - 1):
        out = {c + (p,) for c in out for p in fam.nontrivial if c[-1] < p}
    return out


def dfs_chains(fam, length: int) -> list[tuple[frozenset[int], ...]]:
    """The chains as the recursive enumeration listed them before ``chains``
    grew them level by level; kept as the reference for their order."""
    out: list[tuple[frozenset[int], ...]] = []

    def extend(chain: tuple[frozenset[int], ...]) -> None:
        if len(chain) == length:
            out.append(chain)
            return
        for p in fam.supersets[chain[-1]]:
            extend(chain + (p,))

    for o in fam.nontrivial:
        extend((o,))
    return out


class TestIntersectionFamily:
    def test_diamond(self, diamond):
        fam = intersection_family(diamond)
        assert fam.nontrivial == (frozenset({1, 2}),)
        assert fam.supports.keys() == {frozenset({1, 2})}
        assert fam.supports[frozenset({1, 2})] == {0, 1}
        assert fam.height == 1

    def test_fix_chain(self, fix_chain):
        fam = intersection_family(fix_chain)
        ab, abc = frozenset({0, 1}), frozenset({0, 1, 2})
        assert fam.nontrivial == (ab, abc)
        assert fam.supports[ab] == {0, 1, 2}  # {a,b} sits in all three cliques
        assert fam.supports[abc] == {0, 1}
        assert fam.height == 2
        assert fam.supersets[ab] == (abc,)
        assert fam.supersets[abc] == ()

    def test_bowtie_has_no_nontrivial_elements(self, bowtie):
        fam = intersection_family(bowtie)
        assert fam.nontrivial == ()
        assert fam.height == 0
        assert fam.supports.keys() == {frozenset({2})}  # the cut vertex

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_subset_oracle(self, seed):
        g = random_graph(9, 0.5, 700 + seed)
        fam = intersection_family(g)
        want = brute_elements(g)
        assert fam.supports.keys() == want
        assert set(fam.nontrivial) == {o for o in want if len(o) >= 2}
        for o, sup in fam.supports.items():
            assert sup == {i for i, c in enumerate(fam.cliques) if o <= c}

    @pytest.mark.parametrize("seed", [900, 901, 902])
    def test_fixpoint_under_pairwise_intersection(self, seed):
        fam = intersection_family(random_graph(9, 0.6, seed))
        for a in fam.supports:
            for b in fam.supports:
                assert a & b in fam.supports
            for c in fam.cliques:
                assert a & c in fam.supports


def old_family(g: Graph):
    """The family before it was vertex-indexed: every clique meets every element.

    Returns (elements, supports, supersets, height), computed by the
    all-pairs fold and a scan of every element against every clique; kept
    as the reference the indexed fold is compared with.
    """
    cliques = maximal_cliques(g)
    masks = [sum(1 << v for v in c) for c in cliques]
    seen = {masks[i] & masks[j] for i in range(len(masks)) for j in range(i + 1, len(masks))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for cm in masks:
                if a & cm not in seen:
                    seen.add(a & cm)
                    fresh.append(a & cm)
        frontier = fresh
    elements = {frozenset(v for v in range(g.vertex_count) if m >> v & 1) for m in seen}
    supports = {o: {i for i, c in enumerate(cliques) if o <= c} for o in elements}
    nontrivial = [o for o in elements if len(o) >= 2]
    supersets = {o: {p for p in nontrivial if o < p} for o in nontrivial}
    tallest: dict[frozenset[int], int] = {}
    for o in sorted(nontrivial, key=len):
        tallest[o] = 1 + max((tallest[p] for p in nontrivial if p < o), default=0)
    return elements, supports, supersets, max(tallest.values(), default=0)


def band_graph(blocks: int, width: int, step: int) -> Graph:
    """Overlapping cliques: block i spans vertices step*i .. step*i+width-1."""
    edges = {
        (f"v{u:03d}", f"v{v:03d}")
        for i in range(blocks)
        for u in range(step * i, step * i + width)
        for v in range(u + 1, step * i + width)
    }
    return Graph.from_edge_list(sorted(edges))


class TestIndexedFamily:
    """The vertex-indexed fold against literal scans and the old fold."""

    def test_supports_match_a_literal_scan(self):
        for g in (random_graph(30, 0.2, 5), random_graph(40, 0.1, 6), band_graph(10, 6, 2)):
            fam = intersection_family(g)
            for o, sup in fam.supports.items():
                assert sup == {i for i, c in enumerate(fam.cliques) if o <= c}

    def test_empty_set_only_through_a_triple(self):
        # triangle abc with a triangle on each side: the side triangles meet
        # pairwise (in a, b or c) but no vertex lies in all three
        g = Graph.from_edge_list(
            [("a", "b"), ("b", "c"), ("a", "c"), ("a", "x"), ("b", "x"),
             ("b", "y"), ("c", "y"), ("a", "z"), ("c", "z")]
        )
        fam = intersection_family(g)
        assert len(fam.cliques) == 4
        assert all(p & q for p in fam.cliques for q in fam.cliques)
        assert frozenset() in fam.supports
        assert fam.supports[frozenset()] == frozenset(range(4))
        assert fam.supports.keys() == brute_elements(g)

    @pytest.mark.parametrize("n, p, seed", [(8, 0.7, 399), (8, 0.6, 443), (8, 0.5, 1751)])
    def test_deep_elements_need_every_fold(self, n, p, seed):
        # the smallest graphs found (n <= 8, 3000 seeds per n and p) with an
        # element that folding each element into only its first touching
        # clique misses
        g = random_graph(n, p, seed)
        assert intersection_family(g).supports.keys() == brute_elements(g)

    def test_star_has_no_empty_element(self):
        star = Graph.from_edge_list([("s", leaf) for leaf in "abcd"])
        fam = intersection_family(star)
        assert fam.supports.keys() == {frozenset({star.labels.index("s")})}
        assert fam.supports[frozenset({star.labels.index("s")})] == frozenset(range(4))
        assert frozenset() not in fam.supports

    def test_single_clique_has_no_elements(self, k3):
        fam = intersection_family(k3)
        assert fam.supports == {}
        assert fam.height == 0

    def test_isolated_vertices(self):
        g = Graph(["a", "b", "c"], [(0, 1)])
        fam = intersection_family(g)
        assert fam.cliques == (frozenset({0, 1}), frozenset({2}))
        assert fam.supports.keys() == {frozenset()} == brute_elements(g)
        assert fam.supports[frozenset()] == frozenset({0, 1})
        lone = intersection_family(Graph(["a"], []))
        assert lone.supports == {}

    @pytest.mark.parametrize(
        "g",
        [
            band_graph(24, 8, 4),
            band_graph(40, 9, 3),
            band_graph(60, 6, 2),
            random_graph(300, 12 / 299, 1),
            random_graph(16, 0.7, 16 * 7919 + 7 * 104729),
        ],
        ids=["band-24-8-4", "band-40-9-3", "band-60-6-2", "gnp-300", "gnp-16-dense"],
    )
    def test_matches_the_old_fold(self, g):
        fam = intersection_family(g)
        elements, supports, supersets, height = old_family(g)
        assert fam.supports.keys() == elements
        assert fam.supports == supports
        # the fold's own table against one built from the scanned supports
        table = {sum(1 << i for i in sup): o for o, sup in supports.items()}
        table.update((1 << i, c) for i, c in enumerate(fam.cliques))
        assert fam.by_support == table
        assert {o: set(fam.supersets[o]) for o in fam.nontrivial} == supersets
        assert fam.height == height


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.builds(
            random_graph,
            st.integers(min_value=0, max_value=12),
            st.sampled_from([0.3, 0.5, 0.7, 0.9]),
            st.integers(min_value=0, max_value=10**6),
        )
    )
    def test_height_matches_the_tallest_fold(self, g):
        # the height read off the superset table against the fold over
        # every pair of nontrivial elements
        assert intersection_family(g).height == old_family(g)[3]


class TestChains:
    def test_fix_chain_chains(self, fix_chain):
        fam = intersection_family(fix_chain)
        ab, abc = frozenset({0, 1}), frozenset({0, 1, 2})
        assert chains(fam, 1) == [(ab,), (abc,)]
        assert chains(fam, 2) == [(ab, abc)]
        assert chains(fam, 3) == []

    def test_length_must_be_positive(self, diamond):
        with pytest.raises(ContractError):
            chains(intersection_family(diamond), 0)

    @pytest.mark.parametrize("seed", [910, 911, 912, 913])
    def test_matches_brute_enumeration(self, seed):
        fam = intersection_family(random_graph(9, 0.55, seed))
        # chains() and dfs_chains both take their order from the superset
        # table, so the table itself must be in canonical order
        for ps in (fam.nontrivial, *fam.supersets.values()):
            assert list(ps) == sorted(ps, key=lambda s: (len(s), sorted(s)))
        for length in (1, 2, 3):
            assert set(chains(fam, length)) == brute_chains(fam, length)
        # the order too: the verify report lists missing chains in it
        for length in range(1, fam.height + 2):
            assert chains(fam, length) == dfs_chains(fam, length)

    @pytest.mark.parametrize("seed", [920, 921])
    def test_height_is_the_longest_chain(self, seed):
        fam = intersection_family(random_graph(10, 0.6, seed))
        if fam.height:
            assert chains(fam, fam.height)
        assert not chains(fam, fam.height + 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.builds(
        random_graph,
        st.integers(min_value=4, max_value=12),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(min_value=0, max_value=10**6),
    )
)
def test_hall_identity_on_the_clean_level_sizes(g):
    # level k >= 2 holds one vertex per chain of k-1 nontrivial elements, so
    # by Philip Hall's theorem the alternating sum of the level sizes is the
    # Moebius number of the nontrivial elements with a bottom and a top added
    nontrivial = sorted((o for o in closed_elements(g) if len(o) >= 2), key=len)
    mu: dict[frozenset[int], int] = {}
    for y in nontrivial:  # by size, so every z < y is done
        mu[y] = -1 - sum(m for z, m in mu.items() if z < y)
    sizes = run_clean(g).final.level_sizes()
    alternating = -1 + sum((-1) ** k * n for k, n in enumerate(sizes) if k >= 2)
    assert alternating == -1 - sum(mu.values())  # mu(0, 1) by the same recursion


class TestCharacterisingSequence:
    def test_fix_chain_level3_vertex(self, fix_chain):
        run = run_clean(fix_chain)
        (x,) = run.final.levels[3]
        assert characterising_sequence(run, x) == (frozenset({0, 1}), frozenset({0, 1, 2}))

    def test_level2_sequences_are_their_images(self, fix_chain):
        run = run_clean(fix_chain)
        m = run.final
        for x in m.levels[2]:
            assert characterising_sequence(run, x) == (m.snapshot(x, 0),)

    def test_sequence_lengths_and_strictness(self):
        g = random_graph(10, 0.5, 930)
        run = run_clean(g)
        fam = intersection_family(g)
        m = run.final
        for k in range(2, m.top + 1):
            for x in m.levels[k]:
                s = characterising_sequence(run, x, fam)
                assert len(s) == k - 1
                assert all(a < b for a, b in zip(s, s[1:]))

    def test_contract_guards(self, fix_chain):
        weak = run_weak(fix_chain, cap=3)
        with pytest.raises(ContractError):
            characterising_sequence(weak, next(iter(weak.final.levels[2])))
        run = run_clean(fix_chain)
        with pytest.raises(ContractError):
            characterising_sequence(run, next(iter(run.final.levels[0])))


def old_sequence(m: MultipartiteGraph, fam, x: int):
    """The resolver before it worked on clique masks: frozenset intersections.

    Returns the entries and raises as that resolver did, except that no
    shared clique is an error too; kept as the reference the mask resolver
    is compared with.  Its level-1 map need not be injective.
    """
    index = {c: i for i, c in enumerate(fam.cliques)}
    to_clique = {y: index[m.snapshot(y, 0)] for y in m.levels[1]}
    through: dict[int, int] = {}
    for i, c in enumerate(fam.cliques):
        for v in c:
            through[v] = through.get(v, 0) | 1 << i
    snaps = m.snapshots
    entries = [snaps[x][0]]
    for j in range(2, m.level_of(x)):
        ys = snaps[x][j]
        if not ys:
            raise IntegrityError(f"vertex {x} has an empty creation level-{j} neighbourhood")
        common = frozenset.intersection(*(snaps[y][1] for y in ys))
        if not common:
            raise IntegrityError(
                f"vertex {x}: no set is carried by exactly the shared cliques at level {j}"
            )
        fmask = sum(1 << to_clique[c] for c in common)
        element = frozenset.intersection(*(fam.cliques[to_clique[c]] for c in common))
        kmask = (1 << len(fam.cliques)) - 1
        for v in element:
            kmask &= through[v]
        if kmask != fmask:
            raise IntegrityError(
                f"vertex {x}: no set is carried by exactly the shared cliques at level {j}"
            )
        entries.append(element)
    return tuple(entries)


def outcome(resolve, *args):
    try:
        return resolve(*args)
    except IntegrityError as e:
        return str(e)


def with_snapshots(m: MultipartiteGraph, changes: dict) -> MultipartiteGraph:
    """A copy of m whose snapshots ``changes[x][j]`` are replaced."""
    snaps = {x: dict(per) for x, per in m.snapshots.items()}
    for x, per in changes.items():
        snaps[x].update(per)
    return MultipartiteGraph(m.levels, m.labels, m.edges, snaps)


def scrambled(m: MultipartiteGraph, seed: int) -> MultipartiteGraph:
    """m with random level-1 snapshots on about half its vertices of level >= 2.

    The shared cliques then also come out empty or without an element they
    support, both errors, which the creation lemma rules out for a clean
    run.
    """
    rnd = random.Random(seed)
    ones = sorted(m.levels[1])
    changes = {
        x: {1: rnd.sample(ones, rnd.randint(0, len(ones)))}
        for k in range(2, m.top + 1)
        for x in sorted(m.levels[k])
        if rnd.random() < 0.5
    }
    return with_snapshots(m, changes)


class TestResolver:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.builds(
            random_graph,
            st.integers(min_value=0, max_value=11),
            st.sampled_from([0.3, 0.5, 0.7]),
            st.integers(min_value=0, max_value=10**6),
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_the_frozenset_resolver(self, g, seed):
        run = run_clean(g)
        fam = intersection_family(g)
        for stage in run.graphs:
            if stage.top < 2:
                continue
            for m in (stage, scrambled(stage, seed)):
                resolver = _Resolver(m, fam)
                for k in range(2, m.top + 1):
                    for x in sorted(m.levels[k]):
                        got = outcome(resolver.sequence, x)
                        assert got == outcome(old_sequence, m, fam, x)
                        # a clean run resolves every sequence
                        assert m is not stage or isinstance(got, tuple)

    def test_scrambling_reaches_every_outcome(self):
        g = random_graph(9, 0.7, 4)
        run = run_clean(g)
        fam = intersection_family(g)
        got, unshared = [], []
        for seed in range(5):
            m = scrambled(run.final, seed)
            resolver = _Resolver(m, fam)
            snaps = m.snapshots
            for k in range(3, m.top + 1):
                for x in m.levels[k]:
                    got.append(outcome(resolver.sequence, x))
                    if any(
                        not frozenset.intersection(*(snaps[y][1] for y in snaps[x][j]))
                        for j in range(2, k)
                    ):
                        unshared.append(got[-1])
        assert any(isinstance(o, str) for o in got)
        assert any(isinstance(o, tuple) for o in got)
        # level-j neighbours that share no clique resolve to no entry
        assert unshared
        assert all(isinstance(o, str) for o in unshared)

    def test_unclosed_clique_set_is_an_integrity_error(self, fix_chain):
        # the level-2 vertex of {a,b,c} claims cliques {a,b,c,d} and {a,b,f}:
        # they meet in {a,b}, which the third clique carries too
        run = run_clean(fix_chain)
        m = run.final
        ones = sorted(m.levels[1])
        (y,) = [y for y in m.levels[2] if m.snapshot(y, 0) == {0, 1, 2}]
        bad = with_snapshots(m, {y: {1: {ones[0], ones[2]}}})
        (x,) = bad.levels[3]
        fam = intersection_family(fix_chain)
        message = f"vertex {x}: no set is carried by exactly the shared cliques at level 2"
        assert outcome(old_sequence, bad, fam, x) == message
        assert outcome(_Resolver(bad, fam).sequence, x) == message
        with pytest.raises(IntegrityError, match="exactly the shared cliques"):
            verify_charseq_theorem(dataclasses.replace(run, graphs=[bad]), fam)

    def test_two_level1_vertices_on_one_clique(self, fix_chain):
        run = run_clean(fix_chain)
        m = run.final
        a, b, _ = sorted(m.levels[1])
        bad = with_snapshots(m, {b: {0: m.snapshot(a, 0)}})
        bad_run = dataclasses.replace(run, graphs=[bad])
        for check in (verify_charseq_theorem, verify_v2_bijection):
            with pytest.raises(IntegrityError, match=f"{a} and {b} carry the same clique"):
                check(bad_run, intersection_family(fix_chain))


class TestVerifyTheorem:
    def test_fixtures_pass(self, diamond, bowtie, fix_chain, k3):
        for g in (diamond, bowtie, fix_chain, k3):
            rep = verify_charseq_theorem(run_clean(g))
            assert rep["pass"], rep

    def test_fix_chain_details(self, fix_chain):
        rep = verify_charseq_theorem(run_clean(fix_chain))
        by_level = {lv["level"]: lv for lv in rep["levels"]}
        assert by_level[2]["vertices"] == 2 and by_level[2]["chains"] == 2
        assert by_level[3]["vertices"] == 1 and by_level[3]["chains"] == 1
        # no length-3 chain exists, so level 4 carries no obligation
        assert 4 not in by_level or by_level[4]["chains"] == 0

    def test_mode_guard(self, fix_chain):
        with pytest.raises(ContractError):
            verify_charseq_theorem(run_weak(fix_chain, cap=2))

    @pytest.mark.parametrize("seed", range(12))
    def test_sparse_random_instances_pass(self, seed):
        g = random_graph(11, 0.3, 940 + seed)
        run = run_clean(g)
        assert verify_charseq_theorem(run)["pass"]
        assert verify_v2_bijection(run)["pass"]

    def test_dense_membership_gap_regression(self):
        # dense graph whose clean series once built vertices with sequences
        # through lone-clique sets outside the family, from level 5 up, and
        # ran two levels past the lattice height
        g = random_graph(12, 0.7, 828131)
        run = run_clean(g)
        fam = intersection_family(g)
        assert run.status.rank == fam.height + 1 == 5
        rep = verify_charseq_theorem(run, fam)
        assert rep["pass"], rep
        for lv in rep["levels"]:
            assert lv["strict_chains"]["pass"]
            assert lv["membership"]["pass"]
            assert lv["injective"]["pass"]
            assert lv["chains_realised"]["pass"]
            # each level is a bijection onto its chains: no surplus vertex
            assert lv["vertices"] == lv["chains"]
        assert [lv["vertices"] for lv in rep["levels"]] == [56, 168, 112, 2]
        assert verify_v2_bijection(run, fam)["pass"]
        assert size_bound(g, run.final)["pass"]

    def test_membership_witness(self):
        # smallest known graph (8 vertices, 23 edges) on which clean
        # candidates sharing fewer than two cliques gave level-4 sequences a
        # lone-clique top entry that became an interior entry at level 5
        g = parse_edge_list((DATA / "membership_witness.edges").read_text())
        assert g == random_graph(8, 0.7, 796461)
        run = run_clean(g)
        fam = intersection_family(g)
        assert run.status.rank == fam.height + 1 == 4
        rep = verify_charseq_theorem(run, fam)
        assert rep["pass"], rep
        clean_steps = [m for m in run.graphs if m.top >= 3]
        assert clean_steps
        for m in clean_steps:
            fast = clean_candidates(m)
            brute = brute_force_candidates(m, "clean")
            assert set(fast) == set(brute)

    def test_report_is_deterministic(self, fix_chain):
        a = verify_charseq_theorem(run_clean(fix_chain))
        b = verify_charseq_theorem(run_clean(fix_chain))
        assert a == b

    def test_only_a_failing_level_lists_chains(self, monkeypatch, diamond, fix_chain, k3):
        # a passing level checks property 3 by count; the chains are listed
        # only to name the ones a failing level misses, as the witnesses of
        # test_dropped_level3_vertex
        runs = [run_clean(g) for g in (diamond, fix_chain, k3, random_graph(12, 0.7, 828131))]
        want = [verify_charseq_theorem(run) for run in runs]
        run, fam, m, ids = fix_chain_final(fix_chain)
        bad = dataclasses.replace(run, graphs=[without(m, ids["L3#0"])])

        def no_chains(fam, length):
            raise AssertionError(f"chains of length {length} listed")

        monkeypatch.setattr(lattice, "chains", no_chains)
        assert [verify_charseq_theorem(run) for run in runs] == want
        with pytest.raises(AssertionError, match="length 2 listed"):
            verify_charseq_theorem(bad, fam)


def fix_chain_final(fix_chain):
    """The clean run of fix_chain, its family, final stage and label -> id map."""
    run = run_clean(fix_chain)
    m = run.final
    return run, intersection_family(fix_chain), m, {lab: x for x, lab in m.labels.items()}


def without(m: MultipartiteGraph, x: int) -> MultipartiteGraph:
    """A copy of m without vertex x, which no snapshot may name."""
    return MultipartiteGraph(
        [lv - {x} for lv in m.levels],
        {y: lab for y, lab in m.labels.items() if y != x},
        [e for e in m.edges if x not in e],
        {y: per for y, per in m.snapshots.items() if y != x},
    )


class TestFailureWitnesses:
    """Clean fix_chain runs corrupted so that each verifier reports a witness.

    In the run, L2#0 has image {a,b,c} and carries cliques L1#0 {a,b,c,d}
    and L1#1 {a,b,c,e}; L2#1 has image {a,b}; L3#0 has sequence
    ({a,b}, {a,b,c}).
    """

    def test_repeated_level2_image(self, fix_chain):
        run, fam, m, ids = fix_chain_final(fix_chain)
        # L2#0 takes both snapshots of L2#1, so only the repetition is wrong
        bad = dataclasses.replace(
            run, graphs=[with_snapshots(m, {ids["L2#0"]: m.snapshots[ids["L2#1"]]})]
        )
        assert verify_v2_bijection(bad, fam) == {
            "pass": False,
            "level2": 2,
            "nontrivial": 2,
            "failures": [
                "L2#1 repeats the image of L2#0",
                "element {a, b, c} has no level-2 vertex",
            ],
        }
        level2 = verify_charseq_theorem(bad, fam)["levels"][0]
        assert not level2["pass"] and not level2["injective"]["pass"]
        assert level2["chains_realised"] == {"pass": False, "witnesses": [[["a", "b", "c"]]]}

    def test_level2_image_outside_the_family(self, fix_chain):
        run, fam, m, ids = fix_chain_final(fix_chain)
        bad = dataclasses.replace(
            run, graphs=[with_snapshots(m, {ids["L2#0"]: {0: {ids["a"], ids["d"]}}})]
        )
        rep = verify_v2_bijection(bad, fam)
        assert not rep["pass"]
        assert rep["failures"] == [
            "L2#0 maps outside the nontrivial elements",
            "element {a, b, c} has no level-2 vertex",
        ]

    def test_level1_snapshot_missing_a_clique(self, fix_chain):
        # L2#0 keeps only L1#0, so L3#0's level-2 neighbours share that one
        # clique: a lone-clique interior entry outside the nontrivial elements
        run, fam, m, ids = fix_chain_final(fix_chain)
        bad = dataclasses.replace(
            run, graphs=[with_snapshots(m, {ids["L2#0"]: {1: {ids["L1#0"]}}})]
        )
        rep = verify_v2_bijection(bad, fam)
        assert not rep["pass"]
        assert rep["failures"] == ["L2#0 does not carry the supporting cliques of its image"]
        charseq = verify_charseq_theorem(bad, fam)
        assert not charseq["pass"]
        level3 = charseq["levels"][1]
        assert level3["strict_chains"] == {"pass": True, "witnesses": []}
        assert level3["membership"] == {
            "pass": False,
            "witnesses": [{"vertex": "L3#0", "entry": ["a", "b", "c", "d"]}],
        }
        assert level3["chains_realised"] == {
            "pass": False,
            "witnesses": [[["a", "b"], ["a", "b", "c"]]],
        }

    def test_non_chain_sequence(self, fix_chain):
        run, fam, m, ids = fix_chain_final(fix_chain)
        bad = dataclasses.replace(
            run, graphs=[with_snapshots(m, {ids["L3#0"]: {0: m.snapshot(ids["L2#0"], 0)}})]
        )
        rep = verify_charseq_theorem(bad, fam)
        assert not rep["pass"]
        level3 = rep["levels"][1]
        assert level3["strict_chains"] == {
            "pass": False,
            "witnesses": [{"vertex": "L3#0", "entries": [["a", "b", "c"], ["a", "b", "c"]]}],
        }
        assert level3["membership"]["pass"] and level3["injective"]["pass"]

    def test_dropped_level3_vertex(self, fix_chain):
        run, fam, m, ids = fix_chain_final(fix_chain)
        bad = dataclasses.replace(run, graphs=[without(m, ids["L3#0"])])
        rep = verify_charseq_theorem(bad, fam)
        assert not rep["pass"] and [lv["pass"] for lv in rep["levels"]] == [True, False]
        level3 = rep["levels"][1]
        assert level3["vertices"] == 0 and level3["chains"] == 1
        assert level3["chains_realised"]["witnesses"] == [[["a", "b"], ["a", "b", "c"]]]

    def test_witnesses_stop_at_the_cap(self):
        # every level-2 vertex of a dense run takes one image, so every other
        # nontrivial element lacks a vertex: more failures than the cap shows
        g = random_graph(12, 0.7, 828131)
        run = run_clean(g)
        m = run.final
        image = m.snapshot(min(m.levels[2]), 0)
        bad = dataclasses.replace(
            run, graphs=[with_snapshots(m, {x: {0: image} for x in m.levels[2]})]
        )
        fam = intersection_family(g)
        rep = verify_v2_bijection(bad, fam)
        assert not rep["pass"] and len(rep["failures"]) == _WITNESS_CAP
        level2 = verify_charseq_theorem(bad, fam)["levels"][0]
        assert len(level2["chains_realised"]["witnesses"]) == _WITNESS_CAP


class TestV2Bijection:
    def test_diamond(self, diamond):
        rep = verify_v2_bijection(run_clean(diamond))
        assert rep == {"pass": True, "level2": 1, "nontrivial": 1, "failures": []}

    def test_fix_chain(self, fix_chain):
        rep = verify_v2_bijection(run_clean(fix_chain))
        assert rep["pass"] and rep["level2"] == 2 and rep["nontrivial"] == 2

    def test_vacuous_on_rank_one(self, bowtie):
        rep = verify_v2_bijection(run_clean(bowtie))
        assert rep["pass"] and rep["level2"] == 0 and rep["nontrivial"] == 0


class TestSizeBound:
    def test_k3_exact_bound(self, k3):
        rep = size_bound(k3, run_clean(k3).final)
        assert rep["cliques_per_vertex"] == 1 and rep["clique_size"] == 3
        assert rep["bound"] == 24  # 4 * min(1*8*6, 2*1) * 3
        assert rep["vertices"] == 4 and rep["pass"]

    def test_diamond(self, diamond):
        rep = size_bound(diamond, run_clean(diamond).final)
        assert rep["cliques_per_vertex"] == 2 and rep["clique_size"] == 3
        assert rep["bound"] == 4 * min(2 * 8 * 6, 4 * 2) * 4
        assert rep["pass"]

    def test_degenerate_graphs(self):
        empty = Graph([], [])
        rep = size_bound(empty, run_clean(empty).final)
        assert rep["bound"] == 0 and rep["vertices"] == 0 and rep["pass"]
        single = Graph(["a"], [])
        rep = size_bound(single, run_clean(single).final)
        assert rep["pass"]

    @pytest.mark.parametrize("seed", [950, 951, 952, 953])
    def test_random_instances_within_bound(self, seed):
        g = random_graph(10, 0.6, seed)
        assert size_bound(g, run_clean(g).final)["pass"]
