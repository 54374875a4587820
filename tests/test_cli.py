import contextlib
import io
import json
import re
import runpy
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from multifact import (
    Graph,
    IntegrityError,
    clique_incidence,
    parse_edge_list,
    random_graph,
    run_clean,
    serialise_edge_list,
    serialise_multipartite,
    size_bound,
)
from multifact import cli
from multifact.cli import main
from tests.conftest import BOWTIE, DATA, DIAMOND, FIX_CHAIN


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.edges"
    path.write_text(serialise_edge_list(Graph.from_edge_list(DIAMOND)))
    return path


@pytest.fixture
def fix_chain_file(tmp_path):
    path = tmp_path / "chain.edges"
    path.write_text(serialise_edge_list(Graph.from_edge_list(FIX_CHAIN)))
    return path


def count_clique_results(monkeypatch) -> list:
    """Record every tuple that a lookup of ``maximal_cliques`` returns."""
    from multifact import cliques, lattice

    results = []
    for module in (cliques, lattice):
        real = module.maximal_cliques

        def counting(g, real=real):
            results.append(real(g))
            return results[-1]

        monkeypatch.setattr(module, "maximal_cliques", counting)
    return results


def enumerations(results: list) -> int:
    # an enumeration builds a new tuple; a kept result is the same object
    return len({id(r) for r in results})


class TestDecompose:
    def test_diamond_to_file(self, diamond_file, tmp_path, capsys):
        out = tmp_path / "diamond.mg"
        assert main(["decompose", str(diamond_file), "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "terminated rank=2\n"
        assert out.read_text().startswith("mgraph 3\n")

    def test_diamond_to_stdout_moves_status_to_stderr(self, diamond_file, capsys):
        assert main(["decompose", str(diamond_file)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("mgraph 3\n")
        assert "terminated rank=2" in captured.err

    def test_empty_file_gives_the_empty_graph(self, tmp_path, capsys):
        empty = tmp_path / "empty.edges"
        empty.write_text("")
        assert main(["decompose", str(empty)]) == 0
        assert capsys.readouterr().out == "mgraph 2\n"

    def test_cap_reached_exits_2(self, capsys):
        rc = main(["decompose", str(DATA / "apex_witness.edges"), "--mode", "weak", "--cap", "50"])
        assert rc == 2
        assert "cap-reached cap=50" in capsys.readouterr().err

    def test_cap_ignored_for_clean_with_warning(self, diamond_file, capsys):
        assert main(["decompose", str(diamond_file), "--cap", "5"]) == 0
        assert "ignored" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path / "nope.edges")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_is_one_error_line(self, diamond_file, tmp_path, capsys):
        assert main(["decompose", str(diamond_file), "-o", str(tmp_path / "no" / "x.mg")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_unknown_flag_exits_1_not_2(self, diamond_file, capsys):
        # 2 belongs to cap-reached; usage errors count as input errors
        with pytest.raises(SystemExit) as e:
            main(["decompose", str(diamond_file), "-m", "weak"])
        assert e.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_mode_choice_exits_1(self, diamond_file, capsys):
        with pytest.raises(SystemExit) as e:
            main(["decompose", str(diamond_file), "--mode", "bogus"])
        assert e.value.code == 1
        capsys.readouterr()

    def test_malformed_input_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b\nc c\n")
        assert main(["decompose", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_a_lone_carriage_return_does_not_end_a_line(self, tmp_path, capsys):
        # the file is read as stored: "\r" inside a line stays in it
        bad = tmp_path / "cr.edges"
        bad.write_bytes(b"a b\rb c\n")
        assert main(["decompose", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "line 1" in captured.err
        assert captured.out == ""
        # the trailing "\r" of a CRLF line is stripped with the blanks
        lf, crlf = tmp_path / "lf.edges", tmp_path / "crlf.edges"
        lf.write_bytes(b"a b\nb c\na c\nc d\n")
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["decompose", str(lf)]) == 0
        want = capsys.readouterr()
        assert main(["decompose", str(crlf)]) == 0
        assert capsys.readouterr() == want

    def test_low_memory_same_output(self, diamond_file, capsys):
        # decompose keeps only the final stage; a run keeping every stage
        # serialises to the same bytes
        full = serialise_multipartite(run_clean(parse_edge_list(diamond_file.read_text())).final)
        assert main(["decompose", str(diamond_file)]) == 0
        assert capsys.readouterr().out == full

    def test_clique_past_the_recursion_limit(self, tmp_path, capsys):
        n = sys.getrecursionlimit() + 100
        big = tmp_path / "big.edges"
        big.write_text("".join(f"x{u} x{v}\n" for u in range(n) for v in range(u + 1, n)))
        assert main(["decompose", str(big), "-o", str(tmp_path / "big.mg")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "terminated rank=1\n"
        assert "Traceback" not in captured.err


class TestVerify:
    def test_diamond_passes(self, diamond_file, capsys):
        assert main(["verify", str(diamond_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["rank"] == 2
        assert report["final_level_sizes"] == [4, 2, 1]
        assert set(report["checks"]) == {
            "charseq_theorem",
            "v2_bijection",
            "size_bound",
            "projection_roundtrip",
        }

    def test_k3_vacuous_pass(self, tmp_path, capsys):
        f = tmp_path / "k3.edges"
        f.write_text("a b\na c\nb c\n")
        assert main(["verify", str(f)]) == 0

    def test_random_suite_passes(self, capsys):
        assert main(["verify", "--random", "n=9", "seeds=25"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["failed_instances"] == 0
        assert report["suite"] == {
            "n": 9,
            "p": 0.3,
            "seeds": 25,
            "base_seed": 9 * 7919 + 3 * 104729,
        }

    def test_dense_suite_fails_with_witnesses(self, capsys, monkeypatch):
        argv = ["verify", "--random", "n=12", "seeds=2", "p=0.7", "--seed", "828131"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"]

        # a verifier failure on the second instance must surface as exit 3
        # with that instance's seed and the failing report as its witness
        broken = random_graph(12, 0.7, 828132)
        failing = {"pass": False, "levels": [{"level": 2, "pass": False}]}
        real = cli.verify_charseq_theorem

        def verify(run, fam=None):
            return failing if run.source == broken else real(run, fam=fam)

        monkeypatch.setattr(cli, "verify_charseq_theorem", verify)
        assert main(argv) == 3
        report = json.loads(capsys.readouterr().out)
        assert not report["pass"] and report["failed_instances"] == 1
        first = report["failures"][0]
        assert first["seed"] == 828132
        assert first["failed"] == ["charseq_theorem"]
        assert first["checks"] == {"charseq_theorem": failing}

    def test_bad_suite_parameters(self, capsys):
        assert main(["verify", "--random", "m=3"]) == 1
        capsys.readouterr()
        assert main(["verify", "--random", "p=2.0"]) == 1

    @pytest.mark.parametrize("token", ["n=abc", "seeds=1.5", "p=x"])
    def test_non_numeric_suite_parameter_is_one_error_line(self, token, capsys):
        assert main(["verify", "--random", token]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_builds_the_intersection_family_once(self, fix_chain_file, capsys, monkeypatch):
        from multifact import lattice

        builds = []
        real = lattice.intersection_family

        def counting(g):
            builds.append(g)
            return real(g)

        monkeypatch.setattr(lattice, "intersection_family", counting)
        # the clean run, the family and the size bound each ask for the
        # cliques of the source graph, and one enumeration answers all three
        results = count_clique_results(monkeypatch)
        assert main(["verify", str(fix_chain_file)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
        assert len(builds) == 1
        assert len(results) == 3
        assert enumerations(results) == 1

    def test_stats_enumerates_cliques_once(self, fix_chain_file, capsys, monkeypatch):
        # the clean run and the size bound ask; one enumeration answers both
        results = count_clique_results(monkeypatch)
        assert main(["stats", str(fix_chain_file)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert len(results) == 2
        assert enumerations(results) == 1
        g = parse_edge_list(fix_chain_file.read_text())
        assert stats["final"]["bound"] == size_bound(g, run_clean(g).final)
        assert stats["final"]["bound"]["cliques_per_vertex"] == 3

    def test_seed_without_random_is_one_error_line(self, diamond_file, capsys):
        # a file has no suite, so a base seed would be ignored
        assert main(["verify", str(diamond_file), "--seed", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed applies to --random suites only\n"
        assert captured.out == ""

    def test_requires_an_input(self, capsys):
        assert main(["verify"]) == 1
        assert main(["verify", "x.edges", "--random", "n=4"]) == 1


class TestProject:
    def test_roundtrip_to_edge_list(self, diamond_file, tmp_path, capsys):
        mg = tmp_path / "diamond.mg"
        assert main(["decompose", str(diamond_file), "-o", str(mg)]) == 0
        capsys.readouterr()
        two = tmp_path / "two.mg"
        assert main(["project", str(mg), "-o", str(two)]) == 0
        assert two.read_text() == serialise_multipartite(
            clique_incidence(Graph.from_edge_list(DIAMOND))
        )
        assert main(["project", str(two), "--to-graph"]) == 0
        assert capsys.readouterr().out == diamond_file.read_text()

    def test_two_levels_without_flag_exits_1(self, tmp_path, capsys):
        b = tmp_path / "b.mg"
        b.write_text(serialise_multipartite(clique_incidence(Graph.from_edge_list(BOWTIE))))
        assert main(["project", str(b)]) == 1
        assert "at least 3 levels" in capsys.readouterr().err

    def test_to_graph_needs_two_levels(self, diamond_file, tmp_path, capsys):
        mg = tmp_path / "diamond.mg"
        main(["decompose", str(diamond_file), "-o", str(mg)])
        capsys.readouterr()
        assert main(["project", str(mg), "--to-graph"]) == 1

    def test_to_graph_needs_level0_ids_from_zero(self, tmp_path, capsys):
        b = tmp_path / "b.mg"
        b.write_text("mgraph 2\nv 0 1 a\nv 1 2 x\ne 1 2\n")
        assert main(["project", str(b), "--to-graph"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: level 0 must occupy ids 0..n-1 to collapse\n"
        assert captured.out == ""

    def test_crlf_multipartite_file_is_one_error_line(self, tmp_path, capsys):
        # the mgraph format is canonical byte for byte, line ends included
        text = serialise_multipartite(clique_incidence(Graph.from_edge_list(DIAMOND)))
        lf, crlf = tmp_path / "lf.mg", tmp_path / "crlf.mg"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert main(["project", str(lf), "--to-graph"]) == 0
        capsys.readouterr()
        assert main(["project", str(crlf), "--to-graph"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "line 1" in captured.err
        assert captured.out == ""

    def test_malformed_multipartite_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mg"
        bad.write_text("mgraph 2\nv 0 0 a\nv 0 0 b\n")
        assert main(["project", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err


class TestStats:
    def test_diamond(self, diamond_file, capsys):
        assert main(["stats", str(diamond_file)]) == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.out)
        assert len(stats["steps"]) == 2
        assert stats["final"]["level_sizes"] == [4, 2, 1]
        assert stats["final"]["bound"]["pass"]
        for key in ("elapsed_ms", "candidates_ms", "factorise_ms"):
            assert key not in captured.out
        assert "candidates" in captured.err and "factorise" in captured.err

    def test_edgeless_single_step(self, tmp_path, capsys):
        f = tmp_path / "none.edges"
        f.write_text("")
        assert main(["stats", str(f)]) == 0
        assert len(json.loads(capsys.readouterr().out)["steps"]) == 1

    def test_fix_chain_level2_size(self, fix_chain_file, capsys):
        assert main(["stats", str(fix_chain_file)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["final"]["level_sizes"][2] == 2

    def test_weak_mode_reports_no_bound(self, diamond_file, capsys):
        assert main(["stats", str(diamond_file), "--mode", "weak"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["final"]["bound"] is None


@pytest.mark.parametrize("command", ["decompose", "stats"])
@pytest.mark.parametrize("mode", ["weak", "factor"])
def test_zero_cap_is_one_error_line(diamond_file, command, mode, capsys):
    assert main([command, str(diamond_file), "--mode", mode, "--cap", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cap must be positive, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "{input}"],
        ["stats", "{input}"],
        ["verify", "{input}"],
        ["verify", "--random", "n=6", "seeds=3"],
    ],
    ids=["decompose", "stats", "verify-file", "verify-random"],
)
def test_integrity_error_exits_3_with_one_line(diamond_file, argv, capsys, monkeypatch):
    def broken(g, low_memory=False):
        raise IntegrityError("clean series did not stop within rank 4")

    monkeypatch.setattr(cli, "run_clean", broken)
    rc = main([a.format(input=diamond_file) for a in argv])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "did not stop within rank 4" in captured.err
    assert ("seed " in captured.err) == ("--random" in argv)
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["decompose", "stats", "verify"])
@pytest.mark.parametrize(
    "edges, label",
    [("a b\na c\nb c\nb d\nc d\nL2#0 a\n", "L2#0"), ("L1#0 b\nb c\n", "L1#0")],
    ids=["level-2-label", "level-1-label"],
)
def test_generated_label_in_the_input_is_one_error_line(tmp_path, command, edges, label, capsys):
    # a later level would repeat the label, and the mgraph could not be read back
    path = tmp_path / "reserved.edges"
    path.write_text(edges)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: label '{label}' is reserved for generated vertices\n"
    assert captured.out == ""


def test_one_parser_serves_every_call(diamond_file, capsys):
    # a rejected flag or a flag given before leaves no trace on the next call
    def call(argv):
        rc = main(argv)
        return rc, capsys.readouterr()

    first = call(["decompose", str(diamond_file)])
    verified = call(["verify", str(diamond_file)])
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(["decompose", str(diamond_file), "--mode", "bogus"])
        assert e.value.code == 1
        capsys.readouterr()
        assert call(["decompose", str(diamond_file)]) == first
        assert call(["stats", str(diamond_file), "--mode", "weak", "--cap", "1"])[0] == 2
        assert call(["decompose", str(diamond_file)]) == first
        assert call(["verify", str(diamond_file)]) == verified
    assert first[0] == 0 and first[1].out.startswith("mgraph 3\n")
    assert cli._parser() is cli._parser()


def test_stdout_is_byte_identical_across_runs(diamond_file):
    def snap(argv):
        return subprocess.run(
            [sys.executable, "-m", "multifact", *argv],
            capture_output=True,
            text=True,
        )

    for argv in (
        ["decompose", str(diamond_file)],
        ["verify", str(diamond_file)],
        ["stats", str(diamond_file)],
    ):
        first, second = snap(argv), snap(argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_console_entry_point_help(capsys, monkeypatch):
    r = subprocess.run(
        [sys.executable, "-m", "multifact", "--help"], capture_output=True, text=True
    )
    assert r.returncode == 0
    for sub in ("decompose", "verify", "project", "stats"):
        assert sub in r.stdout
    # the same entry point in this process
    monkeypatch.setattr(sys, "argv", ["multifact", "--help"])
    with pytest.raises(SystemExit) as e:
        runpy.run_module("multifact", run_name="__main__")
    assert e.value.code == 0
    assert capsys.readouterr().out == r.stdout


def test_import_leaves_the_cli_alone():
    code = (
        "import sys, multifact\n"
        "assert 'multifact.cli' not in sys.modules, 'multifact.cli was imported'\n"
        "missing = [n for n in multifact.__all__ if not hasattr(multifact, n)]\n"
        "assert not missing, missing\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_non_utf8_input_is_one_error_line(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_bytes(b"a b\n\xff\xfe c\n")
    mg = tmp_path / "bad.mg"
    mg.write_bytes(b"mgraph 2\nv 0 0 \xff\n")
    # past the first buffer of a read, the offset still counts from the start
    long = tmp_path / "long.edges"
    lines = b"".join(b"a%d b%d\n" % (i, i) for i in range(2000))
    long.write_bytes(lines + b"c \xe9\n")
    for argv, at in (
        (["decompose", str(long)], len(lines) + 2),
        (["decompose", str(edges)], 4),
        (["stats", str(edges)], 4),
        (["verify", str(edges)], 4),
        (["project", str(mg)], 15),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[1]}: byte {at} is not UTF-8\n"
        assert captured.out == ""


# byte edits of valid files: the pieces a hand-edited or mangled file holds
FUZZ_PIECES = [b"\xff", b"\r", b"\t", b"L1#0", b"#", b"-0", b"12345678901234567890", "é".encode()]


def _fuzz_inputs() -> dict[str, list[bytes]]:
    """The files each command reads, built from the fix-chain graph."""
    g = Graph.from_edge_list(FIX_CHAIN)
    edges = serialise_edge_list(g).encode()
    clean = serialise_multipartite(run_clean(g).final).encode()
    two = serialise_multipartite(clique_incidence(g)).encode()
    return {
        "decompose": [edges],
        "stats": [edges],
        "verify": [edges],
        "project": [clean],
        "project --to-graph": [two, clean],
    }


@st.composite
def fuzzed_file(draw, bases: list[bytes]) -> bytes:
    data = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if op == "insert":
            at = draw(st.integers(min_value=0, max_value=len(data)))
            data = data[:at] + draw(st.sampled_from(FUZZ_PIECES)) + data[at:]
        elif op == "delete" and data:
            at = draw(st.integers(min_value=0, max_value=len(data) - 1))
            data = data[:at] + data[at + draw(st.integers(min_value=1, max_value=40)) :]
        elif data:
            lines = data.splitlines(keepends=True)
            i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            data = b"".join(lines[: i + 1] + lines[i:])
    return data


@st.composite
def fuzzed_call(draw) -> tuple[str, bytes]:
    command, bases = draw(st.sampled_from(sorted(_fuzz_inputs().items())))
    return command, draw(fuzzed_file(bases))


def run_cli(argv: list[str]) -> tuple[int, str, bool]:
    """Exit code, stderr, and whether argparse rejected the flags."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue(), False
        except SystemExit as e:
            return e.code, err.getvalue(), True


def assert_clean_exit(argv: list[str]) -> None:
    rc, err, usage = run_cli(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if rc == 1 and not usage:
        assert len(errors) == 1, (argv, err)
    else:
        assert len(errors) <= 1, (argv, err)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    fuzzed_call(),
    st.sampled_from([[], ["--mode", "weak"], ["--mode", "factor"], ["--mode", "clean"]]),
    st.one_of(st.just([]), st.integers(min_value=-1, max_value=3).map(lambda c: ["--cap", str(c)])),
)
def test_fuzzed_files_exit_cleanly(tmp_path_factory, call, mode, cap):
    command, data = call
    head = re.match(rb"mgraph (\d+)", data)
    # a header's level count is not bounded yet, and a large one costs memory
    assume(command.startswith("verify") or head is None or int(head[1]) <= 999)
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    argv = [*command.split(), str(path)]
    if command in ("decompose", "stats"):
        argv += mode + cap
    assert_clean_exit(argv)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-1, max_value=8),
    st.integers(min_value=-1, max_value=2),
    st.sampled_from(["nan", "2", "abc", "0.5"]),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=3)),
)
def test_fuzzed_random_suites_exit_cleanly(n, seeds, p, seed):
    argv = ["verify", "--random", f"n={n}", f"seeds={seeds}", f"p={p}"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert_clean_exit(argv)
