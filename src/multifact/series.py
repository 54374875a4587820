"""Iterated factorisation series: weak, factor, and clean drivers."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .candidates import (
    CandidateFamily,
    ChainIndex,
    clean_candidates,
    factor_candidates,
    weak_candidates,
)
from .cliques import clique_incidence
from .core import ContractError, Graph, IntegrityError, MultipartiteGraph
from .transform import factorise, project

DEFAULT_CAP = 100


@dataclass(frozen=True)
class RunStatus:
    """Either terminated at a rank or stopped at the step cap."""

    kind: str  # "terminated" | "cap-reached"
    rank: int | None = None
    cap: int | None = None

    @property
    def terminated(self) -> bool:
        return self.kind == "terminated"

    def describe(self) -> str:
        if self.terminated:
            return f"terminated rank={self.rank}"
        return f"cap-reached cap={self.cap}"


@dataclass(frozen=True)
class StepStats:
    """One attempted step; its fields are the keys of its ``series_stats`` record."""

    step: int  # 1-based attempted step; the step creates level step + 1
    rule: str  # candidate rule applied ("weak" | "factor" | "clean")
    effective: bool
    candidates: int
    removed_edges: int
    added_edges: int
    level_sizes: list[int]
    edges: int
    candidates_ms: float  # building the candidate family
    factorise_ms: float  # spending it


@dataclass
class SeriesRun:
    """A full series: the source graph, every retained stage, and step records.

    ``graphs[i]`` is stage i+1; stage 1 is the clique incidence of ``source``.
    With ``low_memory`` only the final stage is retained (snapshots travel
    with it).
    """

    mode: str
    source: Graph
    graphs: list[MultipartiteGraph]
    status: RunStatus
    stats: list[StepStats] = field(default_factory=list)

    @property
    def final(self) -> MultipartiteGraph:
        return self.graphs[-1]


def _rule_for(mode: str, k: int, chains: ChainIndex):
    if mode == "weak":
        return weak_candidates
    # level 2 of a clean run is built with the factor rule; the clean rule
    # needs three levels to speak about
    if mode == "factor" or (mode == "clean" and k < 3):
        return factor_candidates
    if mode == "clean":
        # the module attribute is looked up at each call, so a wrapper
        # installed on it sees every clean step
        return lambda g: clean_candidates(g, chains)
    raise ContractError(f"unknown mode {mode!r}")


def _run(g: Graph, mode: str, cap: int | None, low_memory: bool) -> SeriesRun:
    if cap is not None and cap < 1:
        raise ContractError(f"cap must be positive, got {cap}")
    current = clique_incidence(g)
    graphs = [current]
    stats: list[StepStats] = []
    chains = ChainIndex()
    index = 0
    while True:
        index += 1
        pick = _rule_for(mode, current.top + 1, chains)
        t0 = time.perf_counter()
        fam: CandidateFamily = pick(current)
        t1 = time.perf_counter()
        step = factorise(current, fam)
        t2 = time.perf_counter()
        cand_ms, fact_ms = (t1 - t0) * 1000.0, (t2 - t1) * 1000.0
        stats.append(
            StepStats(
                step=index,
                rule=fam.mode,
                effective=step.effective,
                candidates=len(fam),
                removed_edges=step.removed_count,
                added_edges=step.added_count,
                level_sizes=list(step.after.level_sizes()),
                edges=step.after.edge_count,
                candidates_ms=cand_ms,
                factorise_ms=fact_ms,
            )
        )
        if not step.effective:
            status = RunStatus("terminated", rank=index)
            break
        current = step.after
        if low_memory:
            graphs = [current]
        else:
            graphs.append(current)
        if cap is not None and index == cap:
            status = RunStatus("cap-reached", cap=cap)
            break
    return SeriesRun(mode, g, graphs, status, stats)


def run_weak(g: Graph, cap: int = DEFAULT_CAP, low_memory: bool = False) -> SeriesRun:
    """Iterate the weak factorisation until it stalls or the cap is hit.

    The weak series need not terminate, hence the mandatory cap.
    """
    return _run(g, "weak", cap, low_memory)


def run_factor(g: Graph, cap: int = DEFAULT_CAP, low_memory: bool = False) -> SeriesRun:
    """Iterate the factor-mode series under a step cap."""
    return _run(g, "factor", cap, low_memory)


def run_clean(g: Graph, low_memory: bool = False) -> SeriesRun:
    """Run the clean series to termination.

    Level 2 is produced by the factor rule, every later level by the clean
    rule (not levels 2 and 3 by the factor rule: see ``candidates``), so
    level k is in bijection with the chains of length k-1 that
    ``lattice.verify_charseq_theorem`` checks.  The clean families are not
    walked: a ``ChainIndex`` follows the run, and each family extends every
    top vertex's chain by each element above its last one (the
    chain-extension lemma in ``candidates``).  The run must terminate
    with rank at most the vertex count (at least 1 for the empty graph);
    anything else is a pipeline bug.  That bound is the run's step cap, so
    a broken family stops there instead of running on.
    """
    bound = max(g.vertex_count, 1)
    run = _run(g, "clean", bound, low_memory)
    if not run.status.terminated:
        raise IntegrityError(
            f"clean series did not stop within rank {bound}: {run.status.describe()}"
        )
    return run


def roundtrip_report(run: SeriesRun) -> dict:
    """Project every effective stage back and compare with its predecessor.

    Requires a run that retained all stages (not low-memory).
    """
    effective = sum(1 for s in run.stats if s.effective)
    if len(run.graphs) < effective + 1:
        raise ContractError("roundtrip check needs a run with every stage retained")
    failures = []
    checked = 0
    for before, after in zip(run.graphs, run.graphs[1:]):
        checked += 1
        if project(after) != before:
            failures.append(f"stage with top level {after.top} does not project back")
    return {"pass": not failures, "checked": checked, "failures": failures}


def series_stats(run: SeriesRun) -> dict:
    """JSON-ready run record: the status, each step's fields, final-stage figures."""
    return {
        "mode": run.mode,
        "status": asdict(run.status),
        "steps": [asdict(s) for s in run.stats],
        "final": {
            "level_sizes": list(run.final.level_sizes()),
            "vertices": run.final.vertex_count,
            "edges": run.final.edge_count,
        },
    }
