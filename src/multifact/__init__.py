"""Multipartite factorisation series of simple graphs, with verification."""

from .candidates import (
    BRUTE_FORCE_LIMIT,
    Candidate,
    brute_force_candidates,
    clean_candidates,
    factor_candidates,
    weak_candidates,
)
from .cliques import clique_incidence, collapse_bipartite, maximal_cliques
from .core import ContractError, Graph, IntegrityError, MultipartiteGraph
from .fileio import (
    FormatError,
    parse_edge_list,
    parse_multipartite,
    serialise_edge_list,
    serialise_multipartite,
)
from .lattice import (
    IntersectionFamily,
    chains,
    characterising_sequence,
    intersection_family,
    size_bound,
    verify_charseq_theorem,
    verify_v2_bijection,
)
from .series import (
    DEFAULT_CAP,
    RunStatus,
    SeriesRun,
    StepStats,
    roundtrip_report,
    run_clean,
    run_factor,
    run_weak,
    series_stats,
)
from .transform import FactorStep, factorise, project
from .witness import ApexWitness, apex_graph, find_apex_witness, random_graph, suite_seed

__version__ = "0.1.0"

__all__ = [
    "ApexWitness",
    "BRUTE_FORCE_LIMIT",
    "Candidate",
    "ContractError",
    "DEFAULT_CAP",
    "FactorStep",
    "FormatError",
    "Graph",
    "IntegrityError",
    "IntersectionFamily",
    "MultipartiteGraph",
    "RunStatus",
    "SeriesRun",
    "StepStats",
    "apex_graph",
    "brute_force_candidates",
    "chains",
    "characterising_sequence",
    "clean_candidates",
    "clique_incidence",
    "collapse_bipartite",
    "factor_candidates",
    "factorise",
    "find_apex_witness",
    "intersection_family",
    "maximal_cliques",
    "parse_edge_list",
    "parse_multipartite",
    "project",
    "random_graph",
    "roundtrip_report",
    "run_clean",
    "run_factor",
    "run_weak",
    "serialise_edge_list",
    "serialise_multipartite",
    "series_stats",
    "size_bound",
    "suite_seed",
    "verify_charseq_theorem",
    "verify_v2_bijection",
    "weak_candidates",
]
