"""Command-line frontend: decompose, verify, project, stats.

Reports and serialised graphs go to stdout and are byte-identical for
identical input and flags; anything timing- or warning-shaped goes to
stderr.  Exit codes: 0 success, 1 input error, 2 cap reached, 3
verification failure, a broken pipeline guarantee (``IntegrityError``)
included.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import lattice
from .cliques import collapse_bipartite
from .core import ContractError, Graph, IntegrityError
from .fileio import (
    parse_edge_list,
    parse_multipartite,
    serialise_edge_list,
    serialise_multipartite,
)
from .lattice import size_bound, verify_charseq_theorem, verify_v2_bijection
from .series import (
    DEFAULT_CAP,
    SeriesRun,
    roundtrip_report,
    run_clean,
    run_factor,
    run_weak,
    series_stats,
)
from .transform import project
from .witness import random_graph, suite_seed

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_FAILED = 3


def _load(path: str, parse):
    """Parse a file; a format error names the file, an ``OSError`` reaches main."""
    # no newline translation: the parsers break lines at "\n" only
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            # one read decodes the whole file, so the offset is the file's
            raise ContractError(f"{path}: byte {e.start} is not UTF-8") from None
    try:
        return parse(text)
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_series(g: Graph, mode: str, cap: int | None) -> SeriesRun:
    # decompose and stats read only the final stage
    if mode == "clean":
        if cap is not None:
            print("warning: --cap is ignored in clean mode", file=sys.stderr)
        return run_clean(g, low_memory=True)
    runner = run_weak if mode == "weak" else run_factor
    return runner(g, cap=DEFAULT_CAP if cap is None else cap, low_memory=True)


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load(args.input, parse_edge_list)
    run = _run_series(g, args.mode, args.cap)
    blob = serialise_multipartite(run.final)
    status = run.status.describe()
    if args.output is None:
        # graph on stdout, so the status line moves out of the way
        sys.stdout.write(blob)
        print(status, file=sys.stderr)
    else:
        _emit(blob, args.output)
        print(status)
    return EXIT_OK if run.status.kind == "terminated" else EXIT_CAP


def _lattice_checks(run: SeriesRun) -> tuple[dict, dict, dict]:
    # one family serves all three checks and is freed before the round
    # trip runs; it is looked up on the module, the one name every build
    # uses.  The family and the size bound read the cliques the clean run
    # enumerated, which the source graph keeps.
    fam = lattice.intersection_family(run.source)
    return (
        verify_charseq_theorem(run, fam=fam),
        verify_v2_bijection(run, fam=fam),
        size_bound(run.source, run.final),
    )


def _verify_report(g: Graph) -> dict:
    run = run_clean(g)
    charseq, v2, bound = _lattice_checks(run)
    checks = {
        "charseq_theorem": charseq,
        "v2_bijection": v2,
        "size_bound": bound,
        "projection_roundtrip": roundtrip_report(run),
    }
    return {
        "rank": run.status.rank,
        "final_level_sizes": list(run.final.level_sizes()),
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def _suite_params(tokens: list[str]) -> dict:
    params: dict = {"n": 12, "seeds": 100, "p": 0.3}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if key not in params or not sep or not val:
            raise ContractError(f"suite parameter must be n=, seeds= or p=, got {tok!r}")
        try:
            params[key] = float(val) if key == "p" else int(val)
        except ValueError:
            raise ContractError(f"suite parameter {key} must be a number, got {val!r}") from None
    if params["n"] < 0 or params["seeds"] < 1 or not 0 <= params["p"] <= 1:
        raise ContractError(f"suite parameters out of range: {params}")
    return params


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random is not None:
        if args.input is not None:
            return _fail("give either an input path or --random, not both")
        params = _suite_params(args.random)
        n, seeds, p = params["n"], params["seeds"], params["p"]
        base = suite_seed(n, p, 0) if args.seed is None else args.seed
        failures: list[dict] = []
        for i in range(seeds):
            try:
                report = _verify_report(random_graph(n, p, base + i))
            except IntegrityError as e:
                raise IntegrityError(f"seed {base + i}: {e}") from None
            if not report["pass"]:
                bad = {k: c for k, c in report["checks"].items() if not c["pass"]}
                failures.append({"seed": base + i, "failed": list(bad), "checks": bad})
        out = {
            "suite": {"n": n, "p": p, "seeds": seeds, "base_seed": base},
            "failed_instances": len(failures),
            "failures": failures[: lattice._WITNESS_CAP],
            "pass": not failures,
        }
    else:
        if args.input is None:
            return _fail("an input path or --random is required")
        if args.seed is not None:
            return _fail("--seed applies to --random suites only")
        g = _load(args.input, parse_edge_list)
        out = {"source": args.input, **_verify_report(g)}
    print(json.dumps(out, indent=2))
    return EXIT_OK if out["pass"] else EXIT_FAILED


def cmd_project(args: argparse.Namespace) -> int:
    m = _load(args.input, parse_multipartite)
    if args.to_graph:
        text = serialise_edge_list(collapse_bipartite(m))
    else:
        text = serialise_multipartite(project(m))
    _emit(text, args.output)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    g = _load(args.input, parse_edge_list)
    run = _run_series(g, args.mode, args.cap)
    stats = series_stats(run)
    # timing stays off stdout so identical inputs give identical bytes
    total = 0.0
    for step in stats["steps"]:
        c, f = step.pop("candidates_ms"), step.pop("factorise_ms")
        ms = c + f
        total += ms
        name = f"step {step['step']} ({step['rule']})"
        print(f"{name}: {ms:.1f} ms (candidates {c:.1f} ms, factorise {f:.1f} ms)", file=sys.stderr)
    print(f"total: {total:.1f} ms", file=sys.stderr)
    if args.mode == "clean":
        # g keeps the cliques the run enumerated
        stats["final"]["bound"] = size_bound(g, run.final)
    else:
        stats["final"]["bound"] = None
    print(json.dumps(stats, indent=2))
    return EXIT_OK if run.status.kind == "terminated" else EXIT_CAP


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; that code is reserved for
    # cap-reached here, so bad flags fall into the input-error bucket
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="multifact",
        description="Multipartite factorisation series of simple graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def series_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("weak", "factor", "clean"), default="clean")
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            metavar="N",
            help=f"step cap for weak/factor runs (default {DEFAULT_CAP}); clean runs ignore it",
        )

    d = sub.add_parser("decompose", help="run a factorisation series on an edge list")
    d.add_argument("input", help="edge-list file")
    d.add_argument("-o", "--output", help="write the final graph here instead of stdout")
    series_flags(d)
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="run the clean series and check its properties")
    v.add_argument("input", nargs="?", help="edge-list file")
    v.add_argument(
        "--random",
        nargs="*",
        metavar="KEY=VALUE",
        help="verify a random suite instead, e.g. --random n=12 seeds=100 p=0.3",
    )
    v.add_argument("--seed", type=int, default=None, help="override the suite base seed")
    v.set_defaults(func=cmd_verify)

    pj = sub.add_parser("project", help="undo the top factorisation step")
    pj.add_argument("input", help="multipartite file")
    pj.add_argument("-o", "--output", help="write the result here instead of stdout")
    pj.add_argument(
        "--to-graph",
        action="store_true",
        help="collapse a 2-level graph back to an edge list instead of projecting",
    )
    pj.set_defaults(func=cmd_project)

    st = sub.add_parser("stats", help="per-step series figures as JSON")
    st.add_argument("input", help="edge-list file")
    series_flags(st)
    st.set_defaults(func=cmd_stats)

    return ap


# parsing leaves the tree unchanged, so one build serves every call
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, OSError) as e:
        # unreadable input or input outside a command's contract: one line
        return _fail(str(e))
    except IntegrityError as e:
        # a broken guarantee is a verification failure, reported in one line
        return _fail(str(e), EXIT_FAILED)


if __name__ == "__main__":
    raise SystemExit(main())
