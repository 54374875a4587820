"""The mgraph bytes of a few runs, a few verify reports and a few stats
records, pinned by sha256.

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
    run_factor,
    run_weak,
    serialise_edge_list,
    serialise_multipartite,
    suite_seed,
)
from multifact.cli import main
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


def test_factor_bytes():
    run = run_factor(random_graph(9, 0.6, 5), cap=3)
    assert digest(run) == "386c088b0c6471d4e0ec6ffd095e9177fbc16ea664545044181b1db2ca0cf3ae"


@pytest.mark.parametrize(
    "name, text, args, code, want",
    [
        ("fix_chain.edges", lambda: serialise_edge_list(Graph.from_edge_list(FIX_CHAIN)),
         ["--mode", "clean"], 0,
         "2bee45523dbe0639f3b5e9e968d8644314537dcf216e44dc64d598e55e54880e"),
        ("fix_chain.edges", lambda: serialise_edge_list(Graph.from_edge_list(FIX_CHAIN)),
         ["--mode", "factor", "--cap", "3"], 0,
         "297e1b26c544bebb5296f96b4bffe95c5bcc4a7441d86e53db020a1081686d73"),
        ("fix_chain.edges", lambda: serialise_edge_list(Graph.from_edge_list(FIX_CHAIN)),
         ["--mode", "weak", "--cap", "3"], 0,
         "38ee5fec9790cdd99f628a80008ba32fc0e043af81385d8ee4cf5c34bbf5a406"),
        ("dense-9.edges", lambda: serialise_edge_list(random_graph(9, 0.6, 5)),
         ["--mode", "clean"], 0,
         "891b70260063928495178723f87d8a337d341325f6ac1ac74f8c4960d0f88561"),
        ("dense-9.edges", lambda: serialise_edge_list(random_graph(9, 0.6, 5)),
         ["--mode", "factor", "--cap", "3"], 0,
         "4be0a0ca126f870bcc306d3c0873a8f3362b050005d544d2f55dcb45f4673cd0"),
        ("dense-9.edges", lambda: serialise_edge_list(random_graph(9, 0.6, 5)),
         ["--mode", "weak", "--cap", "3"], 2,
         "518583055c354b020a217f01919456a147913e9a111084c8f1cc429d1c6a2207"),
    ],
    ids=["fix-chain-clean", "fix-chain-factor", "fix-chain-weak", "dense-9-clean",
         "dense-9-factor", "dense-9-weak"],
)
def test_stats_bytes(name, text, args, code, want, tmp_path, monkeypatch, capsys):
    # stats keeps its timings on stderr, so its stdout is fixed bytes
    (tmp_path / name).write_text(text())
    monkeypatch.chdir(tmp_path)
    assert main(["stats", name, *args]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "name, text, want",
    [
        ("apex_witness.edges", lambda: (DATA / "apex_witness.edges").read_text(),
         "a788eb0889a3dabb3555518a196bbc64ef2cf8760f76ecd527eddb23483df6f7"),
        ("membership_witness.edges", lambda: (DATA / "membership_witness.edges").read_text(),
         "1ab56c47998f1a26111ef6c01ef5d868cc2d5f5fd02a33580bb902eb0bcf893e"),
        ("diamond.edges", lambda: serialise_edge_list(Graph.from_edge_list(DIAMOND)),
         "5e43fe2cf3dc6735e898ae00d51f72c2bde5a068312d4a83573b2e22ce1c0a0e"),
        ("fix_chain.edges", lambda: serialise_edge_list(Graph.from_edge_list(FIX_CHAIN)),
         "cc773ac0b87ee0619ae6f5e380e3e66b1ccad6339347323dc8e8a7704e5a5603"),
        ("dense-828131.edges", lambda: serialise_edge_list(random_graph(12, 0.7, 828131)),
         "45515bf3823677e8a8cf2031da914f0ccbbf148aab2f0400e93d9785ddbd86c8"),
    ],
    ids=["apex-witness", "membership-witness", "diamond", "fix-chain", "dense-828131"],
)
def test_verify_report_bytes(name, text, want, tmp_path, monkeypatch, capsys):
    # the report names its input path, so each input is read by a fixed name
    (tmp_path / name).write_text(text())
    monkeypatch.chdir(tmp_path)
    assert main(["verify", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
