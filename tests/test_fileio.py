import functools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from multifact import (
    ContractError,
    FormatError,
    Graph,
    MultipartiteGraph,
    parse_edge_list,
    parse_multipartite,
    random_graph,
    run_clean,
    run_factor,
    run_weak,
    serialise_edge_list,
    serialise_multipartite,
)
from multifact.fileio import _parse_by_line, _parse_sections
from tests.conftest import DIAMOND, FIX_CHAIN


class TestEdgeList:
    def test_parse_skips_comments_and_blanks(self):
        text = "# a comment\n\na b\n   \nb c\n"
        g = parse_edge_list(text)
        assert g.labels == ("a", "b", "c")
        assert g.edges == {(0, 1), (1, 2)}

    def test_parse_empty_text(self):
        assert parse_edge_list("") == Graph([], [])

    def test_serialise_is_sorted_and_newline_terminated(self):
        g = Graph.from_edge_list(DIAMOND)
        text = serialise_edge_list(g)
        assert text == "a b\na c\nb c\nb d\nc d\n"

    def test_object_roundtrip(self):
        for seed in range(5):
            g = random_graph(8, 0.5, 400 + seed)
            if any(len(g.neighbours(v)) == 0 for v in g.vertices()):
                g = Graph.from_edge_list(
                    [(g.labels[u], g.labels[v]) for u, v in g.edges]
                )
            assert parse_edge_list(serialise_edge_list(g)) == g

    def test_canonical_text_roundtrip(self):
        text = serialise_edge_list(Graph.from_edge_list(DIAMOND))
        assert serialise_edge_list(parse_edge_list(text)) == text

    def test_serialise_drops_isolated_vertices(self):
        g = Graph.from_edge_list([("a", "b")], extra_vertices=["z"])
        assert parse_edge_list(serialise_edge_list(g)).labels == ("a", "b")

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("a b c\n", 1, "two vertex labels"),
            ("a\n", 1, "two vertex labels"),
            ("a a\n", 1, "self-loop"),
            ("a b\nb a\n", 2, "repeats line 1"),
            ("a b\n\na b\n", 3, "repeats line 1"),
            ("a #b\n", 1, "'#'"),
        ],
    )
    def test_malformed_lines_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(FormatError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_unserialisable_labels_rejected(self):
        with pytest.raises(ContractError):
            serialise_edge_list(Graph(["a b", "c"], [(0, 1)]))
        with pytest.raises(ContractError):
            serialise_edge_list(Graph(["#a", "c"], [(0, 1)]))

    def test_reading_costs_little_more_than_the_graph_it_builds(self):
        # K_200: the graph keeps about 1.6 MB; a frozenset key per line and
        # a second pass over labelled edges once peaked at 4.4 times the graph
        text = "".join(f"v{i} v{j}\n" for i in range(200) for j in range(i + 1, 200))
        tracemalloc.start()
        try:
            g = parse_edge_list(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.edges) == 19900
        assert peak < 3 * kept
        # the adjacency sets alone: a frozenset of edge tuples kept beside
        # them once doubled the graph to 3.7 MB
        assert kept < 2 * 2**20


def pipeline_graph() -> MultipartiteGraph:
    return run_clean(Graph.from_edge_list(DIAMOND)).final


def sparse_graph() -> MultipartiteGraph:
    return MultipartiteGraph(
        [{10, 30}, {7}, set()],
        {10: "p", 30: "q", 7: "r"},
        [(7, 10)],
        {7: {0: [10]}},
    )


class TestMultipartiteFormat:
    def test_golden_serialisation(self):
        text = serialise_multipartite(pipeline_graph())
        assert text == (
            "mgraph 3\n"
            "v 0 0 a\nv 0 1 b\nv 0 2 c\nv 0 3 d\n"
            "v 1 4 L1#0\nv 1 5 L1#1\n"
            "v 2 6 L2#0\n"
            "e 0 4\ne 1 6\ne 2 6\ne 3 5\ne 4 6\ne 5 6\n"
            "s 4 0 0 1 2\ns 5 0 1 2 3\n"
            "s 6 0 1 2\ns 6 1 4 5\n"
        )

    @pytest.mark.parametrize("make", [pipeline_graph, sparse_graph])
    def test_bit_exact_roundtrip(self, make):
        m = make()
        text = serialise_multipartite(m)
        again = parse_multipartite(text)
        assert again == m
        assert serialise_multipartite(again) == text

    def test_every_stage_roundtrips(self, fix_chain):
        # the random graph reaches a clean-rule step and three factor and weak ones
        for g in (fix_chain, random_graph(9, 0.7, 1)):
            for run in (run_clean(g), run_factor(g, cap=3), run_weak(g, cap=3)):
                for stage in run.graphs:
                    text = serialise_multipartite(stage)
                    again = parse_multipartite(text)
                    assert again == stage
                    assert serialise_multipartite(again) == text

    def test_empty_snapshot_entries_survive(self):
        m = MultipartiteGraph(
            [{0}, {1}],
            {0: "a", 1: "b"},
            [(0, 1)],
            {1: {0: []}},
        )
        text = serialise_multipartite(m)
        assert "s 1 0\n" in text
        assert parse_multipartite(text) == m

    def test_empty_graph_is_just_a_header(self):
        m = MultipartiteGraph([set(), set()], {}, [])
        assert serialise_multipartite(m) == "mgraph 2\n"
        assert parse_multipartite("mgraph 2\n") == m

    @pytest.mark.parametrize(
        "mutate,line,fragment",
        [
            (lambda t: "", 1, "empty file"),
            (lambda t: t.rstrip("\n"), None, "missing final newline"),
            (lambda t: t.replace("mgraph 3", "graph 3"), 1, "header"),
            (lambda t: t.replace("mgraph 3", "mgraph 0"), 1, "at least 1"),
            (lambda t: t.replace("v 0 0 a", "v 0 00 a"), None, "canonical decimal"),
            (lambda t: t.replace("v 0 0 a", "v 9 0 a"), None, "out of range"),
            (lambda t: t.replace("v 0 1 b", "v 0 0 b"), None, "strictly increasing"),
            (lambda t: t.replace("v 0 1 b", "v 0 1 a"), None, "repeats"),
            (lambda t: t.replace("v 0 1 b", "v 0 1 #b"), None, "'#'"),
            (lambda t: t.replace("e 0 4", "e 4 0"), None, "lower id first"),
            (lambda t: t.replace("e 0 4", "e 0 0"), None, "self-loop"),
            (lambda t: t.replace("e 0 4", "e 0 99"), None, "undeclared"),
            (lambda t: t.replace("e 0 4", "e 0 1"), None, "joins two level-0"),
            (lambda t: t.replace("e 1 6\n", "e 1 6\ne 1 6\n"), None, "strictly increasing"),
            (lambda t: t.replace("s 4 0 0 1 2", "s 4 0 2 1 0"), None, "strictly increasing"),
            (lambda t: t.replace("s 4 0 0 1 2", "s 4 0 0 1 4"), None, "not at level"),
            (lambda t: t.replace("s 4 0 0 1 2", "s 4 2 0 1 2"), None, "out of range"),
            (lambda t: t.replace("s 4 0 0 1 2", "s 0 0 1 2"), None, "level 0"),
            (lambda t: t + "v 0 99 z\n", None, "later section"),
            (lambda t: t + "x 1 2\n", None, "unknown record"),
            (lambda t: t.replace("e 0 4", "e  0 4"), None, "irregular whitespace"),
            (lambda t: t.replace("e 0 4", "e 0"), None, "expected: e"),
            (lambda t: t.replace("v 0 0 a", "v 0 0"), None, "expected: v"),
            (lambda t: t + "s 4\n", None, "expected: s"),
            (lambda t: "mgraph 1\n\n", 2, "blank line"),
        ],
    )
    def test_rejections_carry_line_numbers(self, mutate, line, fragment):
        text = mutate(serialise_multipartite(pipeline_graph()))
        with pytest.raises(FormatError) as exc:
            parse_multipartite(text)
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line

    def test_snapshot_for_undeclared_vertex(self):
        with pytest.raises(FormatError, match="undeclared"):
            parse_multipartite("mgraph 2\nv 0 0 a\ns 9 0\n")

    def test_format_error_is_a_contract_error(self):
        assert issubclass(FormatError, ContractError)


@functools.cache
def differential_bases() -> tuple[str, ...]:
    """Serialised graphs from all three modes, plus one with negative ids."""
    negative = MultipartiteGraph(
        [{-9, -4, 0}, {-2, 3}, {5}],
        {-9: "p", -4: "q", 0: "r", -2: "s", 3: "t", 5: "u"},
        [(-9, -2), (-4, -2), (-4, 3), (0, 3), (-2, 5), (3, 5)],
        {-2: {0: [-9, -4]}, 3: {0: [-4, 0]}, 5: {0: [-4], 1: [-2, 3]}},
    )
    graphs = [
        run_clean(Graph.from_edge_list(FIX_CHAIN)).final,
        run_clean(random_graph(9, 0.7, 5)).final,
        run_factor(random_graph(9, 0.6, 5), cap=3).final,
        # the weak top level doubles per step; cap 3 already writes 49
        # snapshot lines with no members
        run_weak(random_graph(8, 0.5, 586998), cap=3).final,
        negative,
    ]
    return tuple(map(serialise_multipartite, graphs))


def _mutate(text: str, kind: str, i: int, k: int) -> str:
    lines = text.split("\n")[:-1]
    no = i % len(lines)
    line = lines[no]
    if kind == "none":
        return text
    if kind == "drop final newline":
        return text[:-1]
    if kind == "duplicate line":
        lines.insert(no, line)
    elif kind == "swap lines":
        other = k % len(lines)
        lines[no], lines[other] = lines[other], line
    elif kind == "delete line":
        del lines[no]
    elif kind == "borrow token":
        # a token from the same place in another record of the same kind:
        # repeated labels, edges within one level, members from the wrong level
        parts = line.split(" ")
        donors = [d for d in (x.split(" ") for x in lines) if d[0] == parts[0]]
        donor = donors[k % len(donors)]
        width = min(len(parts), len(donor))
        if width < 2:
            return text
        t = 1 + i % (width - 1)
        parts[t] = donor[t]
        lines[no] = " ".join(parts)
    elif kind in {"tab", "carriage return", "no-break space"}:
        spaces = [p for p, ch in enumerate(line) if ch == " "]
        if not spaces:
            return text
        p = spaces[k % len(spaces)]
        sub = {"tab": "\t", "carriage return": "\r", "no-break space": "\xa0"}[kind]
        lines[no] = line[:p] + sub + line[p + 1 :]
    else:
        parts = line.split(" ")
        ints = [i for i, tok in enumerate(parts) if tok.lstrip("-").isdigit()]
        if not ints:
            return text
        t = ints[k % len(ints)]
        tok = parts[t]
        parts[t] = {
            "plus sign": "+" + tok,
            "leading zero": "0" + tok,
            "minus zero": "-0",
            "arabic-indic digit": "\u0663",
            "bump up": str(int(tok) + 1),
            "bump down": str(int(tok) - 1),
            "negate": str(-int(tok)),
        }[kind]
        lines[no] = " ".join(parts)
    return "".join(line + "\n" for line in lines) if lines else ""


MUTATIONS = [
    "none",
    "drop final newline",
    "duplicate line",
    "swap lines",
    "delete line",
    "borrow token",
    "tab",
    "carriage return",
    "no-break space",
    "plus sign",
    "leading zero",
    "minus zero",
    "arabic-indic digit",
    "bump up",
    "bump down",
    "negate",
]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=1,
        max_size=3,
    ),
)
def test_bulk_parser_agrees_with_line_by_line_reading(base, mutations):
    text = differential_bases()[base]
    for kind, i, k in mutations:
        if text:
            text = _mutate(text, kind, i, k)
    try:
        g = parse_multipartite(text)
    except FormatError as e:
        assert e.line >= 1
        with pytest.raises(FormatError) as again:
            _parse_by_line(text)
        assert str(again.value) == str(e)
        return
    assert g == _parse_by_line(text)
    assert serialise_multipartite(g) == text


def test_parsed_graphs_share_equal_snapshot_sets():
    g = parse_multipartite(differential_bases()[3])
    records = [(j, ms) for per in g.snapshots.values() for j, ms in per.items()]
    shared = {(j, id(ms)) for j, ms in records}
    assert len(shared) == len(set(records)) < len(records)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda t: t.replace("e 5 6", "e 6 5"), "lower id first"),
        (lambda t: t + "s 6 2\n", "out of range"),
        (lambda t: t.replace("v 0 1 b", "v 0 1 a"), "repeats"),
        (lambda t: t.replace("v 0 0 a", "v 9 0 a"), "out of range"),
        (lambda t: t.replace("e 0 4", "e 0 1"), "joins two level-0"),
        (lambda t: t.replace("e 5 6", "e 5 99"), "undeclared"),
        (lambda t: t + "s 9 0\n", "undeclared"),
        (lambda t: t.replace("s 4 0 0 1 2", "s 4 0 0 1 4"), "not at level"),
        (lambda t: t.replace("s 5 0 1 2 3", "s 5 0 1 3 2"), "strictly increasing"),
    ],
)
def test_each_bulk_check_refuses_on_its_own(mutate, fragment):
    # each text breaks one rule and keeps every other one, so only the
    # bulk check for that rule stands between it and a wrong graph
    text = mutate(serialise_multipartite(pipeline_graph()))
    assert _parse_sections(text) is None
    with pytest.raises(FormatError, match=fragment):
        parse_multipartite(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("mgraph " + "1" * 5000 + "\n", 1),
        ("mgraph 2\nv 0 " + "7" * 5000 + " a\n", 2),
    ],
)
def test_decimals_past_the_digit_limit_are_format_errors(text, line):
    with pytest.raises(FormatError, match="must be an integer") as exc:
        parse_multipartite(text)
    assert exc.value.line == line
