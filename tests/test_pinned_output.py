"""The mgraph bytes of a few runs, pinned by their sha256.

A change meant to keep behaviour must keep these hashes; a change to a
rule changes them on purpose and says so.  The weak hash has stood since
the clean rule last changed, which did not touch weak mode.
"""

import hashlib

import pytest

from multifact import (
    Graph,
    parse_edge_list,
    random_graph,
    run_clean,
    run_weak,
    serialise_multipartite,
    suite_seed,
)
from tests.conftest import DATA, DIAMOND, FIX_CHAIN


def digest(run) -> str:
    return hashlib.sha256(serialise_multipartite(run.final).encode()).hexdigest()


def edges(name: str) -> Graph:
    return parse_edge_list((DATA / name).read_text())


@pytest.mark.parametrize(
    "graph, want",
    [
        (lambda: Graph.from_edge_list(DIAMOND),
         "3cc05451b2cfb4b9e50956e289c7e4363b9b2a34a737e87819db280f3ca132a0"),
        (lambda: Graph.from_edge_list(FIX_CHAIN),
         "b7b441e4eaaa3fc11d3c3016f27ca05fc5066397975b187f6e3d8a056cd6bb35"),
        (lambda: edges("membership_witness.edges"),
         "2407de3e7f78ba44821443d556bfb6a5f62cc25523e60f05971e1692ccb0eb24"),
        (lambda: random_graph(12, 0.7, 828131),
         "9d486e9e5ba004362e1ca44ca8895f7d74e311518bca56a4ae9c8176b487da0d"),
        # the largest clean-dense bench graph, and a six-step sweep instance
        (lambda: random_graph(17, 0.7, suite_seed(17, 0.7, 1)),
         "3ffb05ee55940df3fdae1d1eed20278a42f736565a6f9ae630d38cb1fd055910"),
        (lambda: random_graph(19, 0.7, suite_seed(19, 0.7, 1)),
         "4c4ac021f96e1dba4878719e354aca8eb3678550f3068dfc4ebb7da16d40c624"),
    ],
    ids=["diamond", "fix-chain", "membership-witness", "dense-828131", "dense-867727",
         "dense-883565"],
)
def test_clean_bytes(graph, want):
    assert digest(run_clean(graph(), low_memory=True)) == want


def test_weak_bytes_of_the_apex_witness():
    run = run_weak(edges("apex_witness.edges"), cap=3)
    assert digest(run) == "3cbfed5067f7266bbf58aac1567307d926bff0b6d779ff08b57b95b82a5da7f8"
