"""Acceptance gate: one test and one printed verdict line per criterion.

The random sweep shared by criteria 4, 5, 6 and 8 walks the full
(n, p, seed) grid under a wall-clock budget taken from
MULTIFACT_ACCEPT_BUDGET (seconds; unset = 600, 0 = unbounded).  Criteria
whose demands exceed what this hardware can deliver inside the budget
fail with measured figures rather than being skipped or watered down.
"""

import math
import os
import sys
import time
from dataclasses import dataclass, field

import pytest

from multifact import (
    Graph,
    MultipartiteGraph,
    brute_force_candidates,
    clique_incidence,
    factorise,
    find_apex_witness,
    intersection_family,
    parse_edge_list,
    project,
    random_graph,
    roundtrip_report,
    run_clean,
    run_factor,
    run_weak,
    serialise_edge_list,
    size_bound,
    suite_seed,
    verify_charseq_theorem,
    verify_v2_bijection,
)
from multifact.candidates import candidate_family
from multifact.cli import main
from multifact.lattice import characterising_sequence
from tests.conftest import BOWTIE, DATA, DIAMOND, FIX_CHAIN
from tests.test_lattice import brute_chains, brute_elements

GRID_N = range(4, 21)
GRID_P = (0.3, 0.5, 0.7)
PER_CELL = 100
TOTAL_INSTANCES = len(GRID_N) * len(GRID_P) * PER_CELL

_raw_budget = float(os.environ.get("MULTIFACT_ACCEPT_BUDGET", "600"))
BUDGET = math.inf if _raw_budget == 0 else _raw_budget


_CAPMAN = None


@pytest.fixture(scope="module", autouse=True)
def _capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPMAN = None


def _verdict(number: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)  # attached to the test's captured output
    if _CAPMAN is not None:  # and once on the real stderr, past fd capture
        with _CAPMAN.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    return line


@dataclass
class SweepResult:
    instances: int = 0
    decomp_seconds: float = 0.0
    total_seconds: float = 0.0
    complete: bool = False
    stopped_at: tuple | None = None
    max_vertices: int = 0
    rank_violations: list = field(default_factory=list)
    theorem_failures: list = field(default_factory=list)
    failed_properties: set = field(default_factory=set)
    bijection_failures: list = field(default_factory=list)
    size_violations: list = field(default_factory=list)
    roundtrip_steps: int = 0
    roundtrip_failures: list = field(default_factory=list)

    def coverage(self) -> str:
        if self.complete:
            return f"all {self.instances} grid instances"
        n, p, i = self.stopped_at
        return (
            f"{self.instances}/{TOTAL_INSTANCES} grid instances "
            f"(budget {BUDGET:.0f}s spent, stopped before n={n} p={p} i={i})"
        )


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    res = SweepResult()
    started = time.perf_counter()
    for n in GRID_N:
        for p in GRID_P:
            for i in range(PER_CELL):
                if time.perf_counter() - started > BUDGET:
                    res.stopped_at = (n, p, i)
                    res.total_seconds = time.perf_counter() - started
                    return res
                seed = suite_seed(n, p, i)
                g = random_graph(n, p, seed)
                t0 = time.perf_counter()
                run = run_clean(g)
                res.decomp_seconds += time.perf_counter() - t0
                res.instances += 1
                res.max_vertices = max(res.max_vertices, run.final.vertex_count)
                if run.status.kind != "terminated" or run.status.rank > max(n, 1):
                    res.rank_violations.append((n, p, seed, run.status))
                fam = intersection_family(g)
                rep = verify_charseq_theorem(run, fam)
                if not rep["pass"]:
                    bad = [
                        (lv["level"], prop)
                        for lv in rep["levels"]
                        for prop in ("strict_chains", "membership", "injective", "chains_realised")
                        if not lv[prop]["pass"]
                    ]
                    res.theorem_failures.append((n, p, seed, bad))
                    res.failed_properties.update(prop for _, prop in bad)
                if not verify_v2_bijection(run, fam)["pass"]:
                    res.bijection_failures.append((n, p, seed))
                if not size_bound(g, run.final)["pass"]:
                    res.size_violations.append((n, p, seed))
                rt = roundtrip_report(run)
                res.roundtrip_steps += rt["checked"]
                if not rt["pass"]:
                    res.roundtrip_failures.append((n, p, seed, rt["failures"]))
    res.complete = True
    res.total_seconds = time.perf_counter() - started
    return res


def test_criterion_1_diamond(tmp_path, capsys):
    t0 = time.perf_counter()
    g = Graph.from_edge_list(DIAMOND)
    run = run_clean(g)
    ok = run.status.kind == "terminated" and run.status.rank == 2
    ok = ok and run.final.level_sizes() == (4, 2, 1)
    stage2 = run.graphs[1]
    ok = ok and project(stage2) == clique_incidence(g) == run.graphs[0]
    path = tmp_path / "diamond.edges"
    path.write_text(serialise_edge_list(g))
    exit_code = main(["verify", str(path)])
    capsys.readouterr()
    ok = ok and exit_code == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    line = _verdict(
        1,
        ok,
        f"diamond rank={run.status.rank} sizes={run.final.level_sizes()} "
        f"projection exact, verify exit {exit_code}, {elapsed:.3f}s",
    )
    assert ok, line


def test_criterion_2_bowtie():
    g = Graph.from_edge_list(BOWTIE)
    b = clique_incidence(g)
    runs = {"weak": run_weak(g), "factor": run_factor(g), "clean": run_clean(g)}
    stalled = all(
        r.status.kind == "terminated" and r.status.rank == 1 for r in runs.values()
    )
    equal = all(r.final == b for r in runs.values())
    ok = stalled and equal
    line = _verdict(
        2,
        ok,
        "bowtie first step non-effective in weak/factor/clean, final = clique incidence",
    )
    assert ok, line


def test_criterion_3_fix_chain():
    g = Graph.from_edge_list(FIX_CHAIN)
    run = run_clean(g)
    m = run.final
    fam = intersection_family(g)
    ab, abc = frozenset({0, 1}), frozenset({0, 1, 2})
    images = {m.snapshot(x, 0) for x in m.levels[2]}
    ok = len(m.levels[2]) == 2 and images == {ab, abc}
    seqs = [characterising_sequence(run, x, fam) for x in sorted(m.levels[3])]
    ok = ok and (ab, abc) in seqs
    rep = verify_charseq_theorem(run, fam)
    ok = ok and rep["pass"]
    # confirmed against the brute-force lattice oracle
    ok = ok and brute_elements(g) == fam.supports.keys()
    ok = ok and brute_chains(fam, 2) == {(ab, abc)}
    line = _verdict(
        3,
        ok,
        f"fix-chain |V_2|={len(m.levels[2])} images {{{{a,b}},{{a,b,c}}}}, "
        f"level-3 sequence realised, oracle-confirmed",
    )
    assert ok, line


def test_criterion_4_termination_at_desk_scale(sweep):
    ok = (
        sweep.complete
        and not sweep.rank_violations
        and sweep.decomp_seconds < 60.0
    )
    if sweep.rank_violations:
        detail = f"rank violations: {sweep.rank_violations[:3]}"
    elif not sweep.complete:
        detail = (
            f"rank <= n held on {sweep.coverage()}, but the grid is unfinished: "
            f"decomposition alone took {sweep.decomp_seconds:.0f}s "
            f"(largest output {sweep.max_vertices} vertices); "
            f"the 60s full-grid target is out of reach on this hardware"
        )
    else:
        detail = (
            f"every run terminated with rank <= n; decomposition took "
            f"{sweep.decomp_seconds:.1f}s for {sweep.instances} runs "
            f"(criterion demands < 60s)"
        )
    line = _verdict(4, ok, detail)
    assert ok, line


def test_criterion_5_sequence_theorem_on_the_suite(sweep):
    ok = not sweep.theorem_failures and not sweep.bijection_failures
    if ok:
        detail = f"sequence properties and bijection held on {sweep.coverage()}"
    else:
        first = sweep.theorem_failures[0] if sweep.theorem_failures else None
        detail = (
            f"{len(sweep.theorem_failures)} of {sweep.instances} instances fail; "
            f"failing properties {sorted(sweep.failed_properties)} "
            f"(first: n={first[0]} p={first[1]} seed={first[2]} at {first[3][:4]}); "
            f"bijection failures: {len(sweep.bijection_failures)}"
        )
    line = _verdict(5, ok, detail)
    assert ok, line


def test_criterion_6_size_bound_on_the_suite(sweep):
    ok = not sweep.size_violations
    detail = (
        f"|V(M)| <= 4*min(k*2^c*c!, 2^k*k!)*n on {sweep.coverage()}, "
        f"largest output {sweep.max_vertices} vertices"
        if ok
        else f"violations: {sweep.size_violations[:3]}"
    )
    line = _verdict(6, ok, detail)
    assert ok, line


def _random_multipartite(seed: int) -> MultipartiteGraph:
    import random as _random

    rng = _random.Random(seed)
    level_count = rng.randint(2, 4)
    sizes = [rng.randint(2, 6) for _ in range(level_count - 1)]
    sizes.append(rng.randint(2, 10))  # the upper level the candidates read
    ids = iter(range(sum(sizes)))
    levels = [{next(ids) for _ in range(s)} for s in sizes]
    labels = {x: f"m{x}" for lv in levels for x in lv}
    p = rng.choice((0.35, 0.5, 0.65))
    edges = [
        (u, v)
        for li, lv in enumerate(levels)
        for lj in range(li + 1, level_count)
        for u in sorted(lv)
        for v in sorted(levels[lj])
        if rng.random() < p
    ]
    return MultipartiteGraph(levels, labels, edges)


def test_criterion_7_oracle_equivalence():
    instances = 0
    comparisons = 0
    truncated = 0
    mismatches = []
    for seed in range(100):
        m0 = _random_multipartite(9000 + seed)
        instances += 1
        for mode in ("weak", "factor", "clean"):
            m = m0
            for _ in range(12):
                k = m.top + 1
                rule = mode
                if mode == "clean" and k < 3:
                    rule = "factor"  # the clean series builds level 2 by the factor rule
                if len(m.levels[m.top]) > 13:
                    truncated += 1  # top outgrew the brute oracle's practical range
                    break
                fast = candidate_family(m, rule)
                brute = brute_force_candidates(m, rule)
                comparisons += 1
                if {(c.upper, c.lower) for c in fast} != {
                    (c.upper, c.lower) for c in brute
                }:
                    mismatches.append((seed, mode, k))
                step = factorise(m, fast)
                if not step.effective:
                    break
                m = step.after
    ok = not mismatches and instances == 100
    detail = (
        f"fast = brute on {comparisons} series steps over {instances} instances, "
        f"all modes ({truncated} series left the oracle's range and stopped early)"
        if ok
        else f"mismatches at {mismatches[:5]}"
    )
    line = _verdict(7, ok, detail)
    assert ok, line


def test_criterion_8_projection_roundtrips(sweep):
    fixture_steps = 0
    failures = list(sweep.roundtrip_failures)
    for edges in (DIAMOND, BOWTIE, FIX_CHAIN):
        rep = roundtrip_report(run_clean(Graph.from_edge_list(edges)))
        fixture_steps += rep["checked"]
        if not rep["pass"]:
            failures.append(("fixture", edges, rep["failures"]))
    ok = not failures
    detail = (
        f"project(G_i+1) = G_i for {sweep.roundtrip_steps + fixture_steps} effective steps "
        f"({sweep.coverage()} plus fixtures)"
        if ok
        else f"failures: {failures[:3]}"
    )
    line = _verdict(8, ok, detail)
    assert ok, line


def test_criterion_9_non_termination_witness():
    fixture = DATA / "apex_witness.edges"
    ok = fixture.exists()
    detail = "fixture missing"
    if ok:
        g = parse_edge_list(fixture.read_text())
        weak = run_weak(g, cap=50)
        clean = run_clean(g)
        ok = (
            g.vertex_count <= 12
            and weak.status.kind == "cap-reached"
            and weak.status.cap == 50
            and clean.status.kind == "terminated"
            and clean.status.rank <= g.vertex_count
        )
        rediscovered = find_apex_witness(max_base=4)
        ok = ok and rediscovered is not None
        ok = ok and serialise_edge_list(rediscovered.graph) == fixture.read_text()
        detail = (
            f"frozen apex graph ({g.vertex_count} vertices): weak cap-reached(50), "
            f"clean rank={clean.status.rank}; search rediscovers it at "
            f"base={rediscovered.base_size} mask={rediscovered.mask}"
        )
    line = _verdict(9, ok, detail)
    assert ok, line


def test_criterion_10_hundred_vertex_performance():
    edges = set()
    for i in range(24):
        block = range(4 * i, 4 * i + 8)
        edges.update(
            (f"v{u:03d}", f"v{v:03d}") for u in block for v in block if u < v
        )
    g = Graph.from_edge_list(sorted(edges))
    t0 = time.perf_counter()
    run = run_clean(g)
    fam = intersection_family(g)
    checks = [
        verify_charseq_theorem(run, fam)["pass"],
        verify_v2_bijection(run, fam)["pass"],
        size_bound(g, run.final)["pass"],
        roundtrip_report(run)["pass"],
    ]
    elapsed = time.perf_counter() - t0
    sz = size_bound(g, run.final)
    ok = (
        g.vertex_count == 100
        and sz["cliques_per_vertex"] <= 10
        and sz["clique_size"] <= 10
        and all(checks)
        and elapsed < 10.0
    )
    line = _verdict(
        10,
        ok,
        f"100 vertices, k={sz['cliques_per_vertex']}, c={sz['clique_size']}: "
        f"decompose + full verification in {elapsed:.2f}s (< 10s)",
    )
    assert ok, line
