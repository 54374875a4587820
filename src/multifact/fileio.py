"""Text formats: plain edge lists and the levelled ``mgraph`` format.

The edge-list reader is forgiving ('#' comments, blank lines); the mgraph
format is deliberately canonical.  A valid mgraph file is byte for byte
what :func:`serialise_multipartite` emits for its graph, so parsing and
serialising are mutually inverse and golden tests can compare raw bytes.

The mgraph parser validates once: one pattern per section checks the
syntax, bulk checks over whole columns of ids do the rest, and the graph
is built without validating again.  Rejected text is read a second time,
line by line, which reports the first faulty line with the same message
the format has always given.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import compress, repeat
from operator import add, lt, mul, ne

from .core import ContractError, Graph, MultipartiteGraph


class FormatError(ContractError):
    """A text file does not match its format.  ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _token(label: str) -> str:
    # labels travel as single whitespace-delimited tokens and must not be
    # mistakable for a comment marker
    if not label or label.split() != [label] or label.startswith("#"):
        raise ContractError(f"label {label!r} cannot be a file token")
    return label


def _int(no: int, token: str, what: str) -> int:
    # canonical decimal only: int() alone would admit "+3", "1_0", "03"
    try:
        value = int(token)
    except ValueError:
        raise FormatError(no, f"{what} must be an integer, got {token!r}") from None
    if str(value) != token:
        raise FormatError(no, f"{what} must be canonical decimal, got {token!r}")
    return value


def parse_edge_list(text: str) -> Graph:
    """Parse ``u v`` lines into a :class:`Graph`.

    Lines end at '\\n' only.  Blank lines and lines starting with '#' are
    skipped.  Labels are the tokens themselves.  Self-loops and repeated
    edges (either orientation) are rejected with their line number.  One
    pass reads the lines into provisional ids, numbered by first
    appearance, which are then renumbered in sorted label order.
    """
    ids: dict[str, int] = {}
    us, ws = [], []  # the edges' provisional end ids
    seen: dict[int, int] = {}
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(no, f"expected two vertex labels, got {len(parts)}")
        u, v = parts
        if u.startswith("#") or v.startswith("#"):
            raise FormatError(no, "labels must not start with '#'")
        if u == v:
            raise FormatError(no, f"self-loop at {u!r}")
        a = ids.setdefault(u, len(ids))
        b = ids.setdefault(v, len(ids))
        # the rank of the pair {a, b} among all pairs, ordered by larger id
        key = b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b
        if key in seen:
            raise FormatError(no, f"edge {u} {v} repeats line {seen[key]}")
        seen[key] = no
        us.append(a)
        ws.append(b)
    del seen
    labels = sorted(ids)
    final = dict(zip(labels, range(len(labels))))
    rank = list(map(final.__getitem__, ids))  # provisional id -> final id
    return Graph(labels, zip(map(rank.__getitem__, us), map(rank.__getitem__, ws)))


def serialise_edge_list(g: Graph) -> str:
    """Canonical edge-list text: one sorted ``u v`` line per edge.

    Isolated vertices have no line to live on and are dropped; graphs read
    by :func:`parse_edge_list` never contain any.
    """
    pairs = sorted(
        tuple(sorted((g.labels[u], g.labels[v]))) for u, v in g.edges
    )
    return "".join(f"{_token(a)} {_token(b)}\n" for a, b in pairs)


def serialise_multipartite(g: MultipartiteGraph) -> str:
    """Canonical mgraph text.

    Header ``mgraph <levels>``, then ``v <level> <id> <label>`` lines,
    ``e <id> <id>`` lines and ``s <id> <level> <members...>`` lines, each
    section sorted by id and every line '\\n'-terminated.  Snapshot lines
    keep empty member lists so that creation-time records survive the trip.
    """
    level_of = g._level_of
    labels = g.labels
    adj = g._adj
    xs = sorted(labels)
    out = [f"mgraph {len(g.levels)}\n"]
    out += [f"v {level_of[x]} {x} {_token(labels[x])}\n" for x in xs]
    for x in xs:
        ys = sorted(adj[x])
        ys = ys[bisect_right(ys, x):]
        if ys:  # the edges to higher ids, joined in one call
            out.append(f"e {x} " + f"\ne {x} ".join(map(str, ys)) + "\n")
    # equal member sets recur thousands of times (most graphs even share
    # the set object), so each distinct set is written out once
    member_text: dict[frozenset[int], str] = {}
    snaps = g.snapshots
    for x in sorted(snaps):
        per = snaps[x]
        for j in sorted(per):
            ms = per[j]
            if not ms:
                out.append(f"s {x} {j}\n")
                continue
            text = member_text.get(ms)
            if text is None:
                text = member_text[ms] = " ".join(map(str, sorted(ms)))
            out.append(f"s {x} {j} {text}\n")
    return "".join(out)


# Canonical decimals, as _int admits them; [0-9] keeps out the other
# Unicode digits that int() accepts.  Levels are never negative.
_ID = r"(?:0|-?[1-9][0-9]*)"
_LEVEL = r"(?:0|[1-9][0-9]*)"
# One pattern per section.  The possessive repeats (Python 3.11) never give
# back a matched line, so the engine keeps no backtracking state per line
# and memory stays flat however long the section is.
_HEADER = re.compile(r"mgraph ([1-9][0-9]*)\n")
_V_SECTION = re.compile(rf"(?:v {_LEVEL} {_ID} [^\s#]\S*\n)*+")
_E_SECTION = re.compile(rf"(?:e {_ID} {_ID}\n)*+")
_S_SECTION = re.compile(rf"(?:s {_ID} {_LEVEL}(?: {_ID})*+\n)*+")
# the id and the "<level> <members...>" rest of each line of a section
# that _S_SECTION has matched
_S_ID = re.compile(r"^s (\S+)", re.MULTILINE)
_S_REST = re.compile(r"^s \S+ (.*)$", re.MULTILINE)


def parse_multipartite(text: str) -> MultipartiteGraph:
    """Parse canonical mgraph text; the strict inverse of serialisation.

    Sections must appear in v, e, s order, each strictly increasing by id
    (edges by pair, snapshots by (id, level)); any deviation, duplicate or
    dangling reference is rejected with its line number.

    Valid text is checked once, section by section, and the graph is built
    without a second validation.  Text that fails any check is read again
    line by line, which names the first faulty line.  Equal snapshot member
    lists at one level share one set object (see ``MultipartiteGraph``).
    """
    g = _parse_sections(text)
    return g if g is not None else _parse_by_line(text)


def _strictly_increasing(xs: list) -> bool:
    return all(map(lt, xs, xs[1:]))


def _parse_sections(text: str) -> MultipartiteGraph | None:
    """The graph of valid mgraph text, or None when any check fails."""
    head = _HEADER.match(text)
    if head is None:
        return None
    v_end = _V_SECTION.match(text, head.end()).end()
    e_end = _E_SECTION.match(text, v_end).end()
    if _S_SECTION.match(text, e_end).end() != len(text):
        return None
    try:
        return _build(text, int(head[1]), head.end(), v_end, e_end)
    except ValueError:
        # int() refuses decimals longer than the interpreter's digit limit
        return None


def _build(
    text: str, level_count: int, v_start: int, v_end: int, e_end: int
) -> MultipartiteGraph | None:
    # pairs are compared as one int each, never as tuples: a tuple per
    # record would cost an allocation and garbage-collector work per line
    tokens = text[v_start:v_end].split()
    lvls = list(map(int, tokens[1::4]))
    ids = list(map(int, tokens[2::4]))
    names = tokens[3::4]
    if lvls and max(lvls) >= level_count:
        return None
    if not _strictly_increasing(ids) or len(set(names)) != len(names):
        return None
    level_of = dict(zip(ids, lvls))
    at_level: list[list[int]] = [[] for _ in range(level_count)]
    for x, i in zip(ids, lvls):
        at_level[i].append(x)
    levels = tuple(map(frozenset, at_level))

    tokens = text[v_end:e_end].split()
    us = list(map(int, tokens[1::3]))
    ws = list(map(int, tokens[2::3]))
    lus = list(map(level_of.get, us))
    lws = list(map(level_of.get, ws))
    if None in lus or None in lws or not all(map(ne, lus, lws)) or not all(map(lt, us, ws)):
        return None
    if us:
        # u * span + w orders declared ids exactly as the pair (u, w) does
        span = ids[-1] - ids[0] + 1
        if not _strictly_increasing(list(map(add, map(mul, us, repeat(span)), ws))):
            return None
    nbrs: dict[int, list[int]] = {x: [] for x in ids}
    for u, w in zip(us, ws):
        nbrs[u].append(w)
        nbrs[w].append(u)
    adj = {x: frozenset(ys) for x, ys in nbrs.items()}

    section = text[e_end:]
    xs = list(map(int, _S_ID.findall(section)))
    rests = _S_REST.findall(section)
    # intern member sets by their "<level> <members...>" text: records
    # repeat a few thousand distinct lists tens of thousands of times
    level_at: dict[str, int] = {}
    set_at: dict[str, frozenset[int]] = {}
    for rest in set(rests):
        j, *ys = map(int, rest.split())
        if not _strictly_increasing(ys) or any(level_of.get(y) != j for y in ys):
            return None
        level_at[rest] = j
        set_at[rest] = frozenset(ys)
    js = list(map(level_at.__getitem__, rests))
    lxs = list(map(level_of.get, xs))
    if None in lxs or not all(map(lt, js, lxs)):
        return None
    # x * level_count + j orders records exactly as (x, j) does
    if not _strictly_increasing(list(map(add, map(mul, xs, repeat(level_count)), js))):
        return None
    sets = list(map(set_at.__getitem__, rests))
    n = len(xs)
    # records of one vertex are contiguous; cut the lists where x changes
    cuts = [0, *compress(range(1, n), map(ne, xs, xs[1:])), n] if n else [0]
    snaps = {xs[a]: dict(zip(js[a:b], sets[a:b])) for a, b in zip(cuts, cuts[1:])}

    return MultipartiteGraph._assemble(levels, dict(zip(ids, names)), adj, snaps)


def _parse_by_line(text: str) -> MultipartiteGraph:
    # the diagnosing path: names the first faulty line of rejected text
    if not text:
        raise FormatError(1, "empty file")
    body = text.split("\n")
    if body[-1] != "":
        raise FormatError(len(body), "missing final newline")
    lines = body[:-1]

    head = lines[0].split()
    if len(head) != 2 or head[0] != "mgraph" or lines[0] != " ".join(head):
        raise FormatError(1, 'expected header "mgraph <levels>"')
    level_count = _int(1, head[1], "level count")
    if level_count < 1:
        raise FormatError(1, f"level count must be at least 1, got {level_count}")

    levels: list[set[int]] = [set() for _ in range(level_count)]
    labels: dict[int, str] = {}
    label_line: dict[str, int] = {}
    level_of: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    snaps: dict[int, dict[int, frozenset[int]]] = {}
    section = 0
    last_vertex: int | None = None
    last_edge: tuple[int, int] | None = None
    last_snap: tuple[int, int] | None = None

    for no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            raise FormatError(no, "blank line")
        if raw != " ".join(parts):
            raise FormatError(no, "irregular whitespace")
        tag = parts[0]
        rank = {"v": 0, "e": 1, "s": 2}.get(tag)
        if rank is None:
            raise FormatError(no, f"unknown record {tag!r}")
        if rank < section:
            raise FormatError(no, f"{tag!r} record after a later section")
        section = rank

        if tag == "v":
            if len(parts) != 4:
                raise FormatError(no, "expected: v <level> <id> <label>")
            lvl = _int(no, parts[1], "level")
            x = _int(no, parts[2], "vertex id")
            lab = parts[3]
            if lab.startswith("#"):
                raise FormatError(no, "labels must not start with '#'")
            if not 0 <= lvl < level_count:
                raise FormatError(no, f"level {lvl} out of range 0..{level_count - 1}")
            if last_vertex is not None and x <= last_vertex:
                raise FormatError(no, f"vertex ids must be strictly increasing, got {x}")
            last_vertex = x
            if lab in label_line:
                raise FormatError(no, f"label {lab!r} repeats line {label_line[lab]}")
            label_line[lab] = no
            levels[lvl].add(x)
            labels[x] = lab
            level_of[x] = lvl

        elif tag == "e":
            if len(parts) != 3:
                raise FormatError(no, "expected: e <id> <id>")
            u = _int(no, parts[1], "vertex id")
            w = _int(no, parts[2], "vertex id")
            for y in (u, w):
                if y not in level_of:
                    raise FormatError(no, f"edge references undeclared vertex {y}")
            if u == w:
                raise FormatError(no, f"self-loop at vertex {u}")
            if u > w:
                raise FormatError(no, f"edge ({u}, {w}) must list the lower id first")
            if level_of[u] == level_of[w]:
                raise FormatError(no, f"edge ({u}, {w}) joins two level-{level_of[u]} vertices")
            if last_edge is not None and (u, w) <= last_edge:
                raise FormatError(no, "edges must be strictly increasing")
            last_edge = (u, w)
            edges.append(last_edge)

        else:
            if len(parts) < 3:
                raise FormatError(no, "expected: s <id> <level> <members...>")
            x = _int(no, parts[1], "vertex id")
            j = _int(no, parts[2], "snapshot level")
            if x not in level_of:
                raise FormatError(no, f"snapshot for undeclared vertex {x}")
            if level_of[x] == 0:
                raise FormatError(no, f"vertex {x} is at level 0 and cannot carry snapshots")
            if not 0 <= j < level_of[x]:
                raise FormatError(
                    no, f"snapshot level {j} out of range for vertex {x} at level {level_of[x]}"
                )
            if last_snap is not None and (x, j) <= last_snap:
                raise FormatError(no, "snapshot records must be strictly increasing by (id, level)")
            last_snap = (x, j)
            members: set[int] = set()
            prev: int | None = None
            for tok in parts[3:]:
                y = _int(no, tok, "member id")
                if level_of.get(y) != j:
                    raise FormatError(no, f"snapshot member {y} is not at level {j}")
                if prev is not None and y <= prev:
                    raise FormatError(no, "snapshot members must be strictly increasing")
                prev = y
                members.add(y)
            snaps.setdefault(x, {})[j] = frozenset(members)

    return MultipartiteGraph(levels, labels, edges, snaps)
