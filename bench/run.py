"""Closed-loop benchmark of the multifact CLI, run in-process.

    python3 bench/run.py --workload clean-dense --seed 1 --seconds 35 --trace 0

Writes the workload's edge lists, then repeats passes over them until the
next pass would end after ``--seconds``.  A pass runs, per graph and one at
a time, the three operations a user runs through ``multifact.cli.main``:
decompose, the projection chain back to the edge list, and verify.  Every
output is checked against figures worked out without multifact, and the
last line of stdout is one JSON object with the operations attempted and
failed and the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  Per-graph figures and output hashes go to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from inputs import WARM_UP, WORKLOADS, Instance  # noqa: E402
from spans import OPERATION, Tracer  # noqa: E402

RESULTS = HERE / "results"
# set-ups before each pass; spread over the run, they sample the host's
# speed at several moments, as the passes do
SETUPS_PER_PASS = 2
OPS = ("decompose", "project", "verify")


def fresh_cli():
    """Import ``multifact.cli`` anew, as a new process would."""
    for name in [m for m in sys.modules if m == "multifact" or m.startswith("multifact.")]:
        del sys.modules[name]
    return importlib.import_module("multifact.cli")


def call(cli, argv: list[str], tracer: Tracer | None) -> tuple[object, float, str]:
    """One CLI call: (exit code or error text, wall seconds, stdout)."""
    out = io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.enter(OPERATION)
        start = time.perf_counter()
        try:
            rc: object = cli.main([str(a) for a in argv])
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a crash fails the operation, not the run
            rc = f"{type(e).__name__}: {e}"
        took = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
    return rc, took, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_mgraph(path: Path) -> dict:
    """Level sizes, snapshot records, size and hash of an mgraph file."""
    text = path.read_text(encoding="utf-8")
    head = text.split("\n", 1)[0].split()
    sizes = [0] * int(head[1])
    snapshots = 0
    for line in text.splitlines():
        if line.startswith("v "):
            sizes[int(line.split(" ", 2)[1])] += 1
        elif line.startswith("s "):
            snapshots += 1
    return {
        "level_sizes": sizes,
        "snapshot_records": snapshots,
        "bytes": len(text.encode()),
        "sha256": sha256(text),
    }


class Workload:
    """The instances of one workload and their files under ``work``."""

    def __init__(self, name: str, seed: int, work: Path):
        self.instances = WORKLOADS[name]
        self.seed = seed
        self.work = work

    def path(self, inst: Instance, suffix: str) -> Path:
        return self.work / f"{inst.name}{suffix}"

    def write_inputs(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for inst in [WARM_UP, *self.instances]:
            self.path(inst, ".edges").write_text(inst.text(self.seed), encoding="utf-8")

    def decompose(self, cli, inst: Instance, tracer) -> dict:
        argv = ["decompose", self.path(inst, ".edges"), "-o", self.path(inst, ".mgraph")]
        if inst.mode != "clean":
            argv += ["--mode", inst.mode, "--cap", inst.cap]
        rc, took, out = call(cli, argv, tracer)
        res: dict = {"seconds": took, "problems": []}
        status = out.strip()
        if inst.mode == "clean":
            word, _, rank = status.partition(" rank=")
            ok = rc == 0 and word == "terminated" and rank.isdigit()
            n = len({x for e in inst.edges for x in e})
            expect_levels = int(rank) + 1 if ok and int(rank) <= n else None
        else:
            ok = rc == 2 and status == f"cap-reached cap={inst.cap}"
            expect_levels = inst.cap + 2
        if not ok or expect_levels is None:
            res["problems"].append(f"decompose: exit {rc!r}, status {status!r}")
            return res
        res.update(read_mgraph(self.path(inst, ".mgraph")))
        if len(res["level_sizes"]) != expect_levels:
            res["problems"].append(
                f"decompose: {len(res['level_sizes'])} levels after {status!r}"
            )
        return res

    def project(self, cli, inst: Instance, levels: int, tracer) -> dict:
        """Project level by level down to two levels, then back to an edge list."""
        res: dict = {"seconds": 0.0, "problems": [], "sha256": []}
        current = self.path(inst, ".mgraph")
        for k in range(levels - 1, 1, -1):
            target = self.path(inst, f".p{k}.mgraph")
            rc, took, _ = call(cli, ["project", current, "-o", target], tracer)
            res["seconds"] += took
            if rc != 0:
                res["problems"].append(f"project to {k} levels: exit {rc!r}")
                return res
            facts = read_mgraph(target)
            if len(facts["level_sizes"]) != k:
                res["problems"].append(f"project to {k} levels gave {len(facts['level_sizes'])}")
            res["sha256"].append(facts["sha256"])
            current = target
        back = self.path(inst, ".back.edges")
        rc, took, _ = call(cli, ["project", current, "--to-graph", "-o", back], tracer)
        res["seconds"] += took
        if rc != 0:
            res["problems"].append(f"project --to-graph: exit {rc!r}")
        elif back.read_text(encoding="utf-8") != self.path(inst, ".edges").read_text(encoding="utf-8"):
            res["problems"].append("projection chain does not end in the input edge list")
        return res

    def verify(self, cli, inst: Instance, tracer) -> dict:
        rc, took, out = call(cli, ["verify", self.path(inst, ".edges")], tracer)
        res: dict = {"seconds": took, "problems": []}
        try:
            report = json.loads(out)
            passed = report["pass"] is True
            res["nontrivial"] = report["checks"]["v2_bijection"]["nontrivial"]
        except (ValueError, KeyError, TypeError):
            passed = False
        if rc != 0 or not passed:
            res["problems"].append(f"verify: exit {rc!r}, pass {passed}")
        return res

    def run_instance(self, cli, inst: Instance, tracer) -> dict:
        dec = self.decompose(cli, inst, tracer)
        if dec["problems"]:
            chain = {"seconds": 0.0, "problems": ["no decomposition to project"]}
        else:
            chain = self.project(cli, inst, len(dec["level_sizes"]), tracer)
        return {"decompose": dec, "project": chain, "verify": self.verify(cli, inst, tracer)}

    def run_pass(self, cli, tracer: Tracer | None = None) -> list[dict]:
        return [self.run_instance(cli, inst, tracer) for inst in self.instances]

    def setup(self) -> tuple[float, object]:
        """Import multifact, write the inputs, warm up on one small graph."""
        start = time.perf_counter()
        cli = fresh_cli()
        self.write_inputs()
        self.run_instance(cli, WARM_UP, None)
        return time.perf_counter() - start, cli


def op_seconds(passed: list[dict]) -> float:
    return sum(r[op]["seconds"] for r in passed for op in OPS)


def check_against_oracle(instances: list[Instance], runs: list[tuple[int, dict]]) -> list[dict]:
    """Compare level and verify counts with networkx and the own intersection count.

    ``runs`` pairs an index into ``instances`` with the results of one run of it.
    """
    expected = []
    for inst in instances:
        cliques = oracle.maximal_cliques(inst.edges)
        expected.append(
            {"cliques": len(cliques), "nontrivial": oracle.nontrivial_intersections(inst.edges, cliques)}
        )
    for i, r in runs:
        inst, exp = instances[i], expected[i]
        sizes = r["decompose"].get("level_sizes")
        if sizes:
            if sizes[1] != exp["cliques"]:
                r["decompose"]["problems"].append(
                    f"level 1 has {sizes[1]} vertices, networkx finds {exp['cliques']} cliques"
                )
            level2 = sizes[2] if len(sizes) > 2 else 0
            if inst.mode == "clean" and level2 != exp["nontrivial"]:
                r["decompose"]["problems"].append(
                    f"level 2 has {level2} vertices for {exp['nontrivial']} intersections"
                )
        got = r["verify"].get("nontrivial")
        if got is not None and got != exp["nontrivial"]:
            r["verify"]["problems"].append(
                f"verify counts {got} nontrivial elements, expected {exp['nontrivial']}"
            )
    return expected


def median_sum(passes: list[list[dict]], op: str) -> float:
    return statistics.median(sum(r[op]["seconds"] for r in results) for results in passes)


def gmean_latency_ms(passes: list[list[dict]], op: str) -> float:
    """Geometric mean over graphs of each graph's median latency over passes.

    Every graph counts alike, however large.  A median over 10-13 graphs of
    very different sizes jumps between neighbouring graphs instead.
    """
    per_graph = zip(*([r[op]["seconds"] for r in results] for results in passes))
    logs = [math.log(statistics.median(times)) for times in per_graph]
    return 1000.0 * math.exp(statistics.fmean(logs))


def end_to_end(setup: list[float], passes: list[list[dict]], peak_rss_mb: float) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "decompose_s": (median_sum(passes, "decompose"), "s"),
        "decompose_gmean_ms": (gmean_latency_ms(passes, "decompose"), "ms"),
        "project_s": (median_sum(passes, "project"), "s"),
        "verify_s": (median_sum(passes, "verify"), "s"),
        "verify_gmean_ms": (gmean_latency_ms(passes, "verify"), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(traced: list[dict], overheads: list[float], memory: dict, one_pass: list[dict]) -> dict:
    # counts repeat exactly from pass to pass; times take the median
    out = {
        key: (value if unit == "count" else statistics.median(t[key][0] for t in traced), unit)
        for key, (value, unit) in traced[0].items()
    }
    out.update(memory)
    decomposed = [r["decompose"] for r in one_pass]
    out["fileio.mgraph_bytes"] = (sum(d.get("bytes", 0) for d in decomposed), "bytes")
    out["core.snapshot_records"] = (sum(d.get("snapshot_records", 0) for d in decomposed), "count")
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    return out


def measure(wl: Workload, seconds: float, trace: bool):
    """Set up afresh and run a pass (and a traced one) until ``seconds`` is spent.

    Returns the set-up times, the passes, the traced passes' metrics, the
    tracing overheads and the CLI module of the last set-up.
    """
    setup: list[float] = []
    passes: list[list[dict]] = []
    traced: list[dict] = []
    overheads: list[float] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            took, cli = wl.setup()
            setup.append(took)
        plain = wl.run_pass(cli)
        passes.append(plain)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(wl.run_pass(cli, tracer))
            finally:
                tracer.uninstall()
            traced.append(tracer.metrics())
            overheads.append(op_seconds(passes[-1]) - op_seconds(plain))
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return setup, passes, traced, overheads, cli


def measure_memory(wl: Workload, cli, first: list[dict]) -> tuple[dict, int, dict]:
    """Layer memory peaks on the graph with the largest mgraph in ``first``.

    tracemalloc slows these operations ten- to twentyfold, so one graph
    stands in for the pass.
    """
    i = max(range(len(first)), key=lambda j: first[j]["decompose"].get("bytes", 0))
    tracer = Tracer(memory=True)
    tracemalloc.start()
    tracer.install()
    try:
        result = wl.run_instance(cli, wl.instances[i], tracer)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    return tracer.memory_metrics(), i, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="relabelling seed; 0 keeps x0..x{n-1}")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed, HERE / "work" / args.workload)
    setup, passes, traced, overheads, cli = measure(wl, args.seconds, bool(args.trace))
    runs = [(i, r) for results in passes for i, r in enumerate(results)]
    if args.trace:
        memory, i, result = measure_memory(wl, cli, passes[0])
        runs.append((i, result))
        metrics = per_layer(traced, overheads, memory, passes[0])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(setup, passes, peak_rss_mb)

    expected = check_against_oracle(wl.instances, runs)
    attempted = len(runs) * len(OPS)
    failed = sum(1 for _, r in runs for op in OPS if r[op]["problems"])

    last = passes[-1]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "instances": [
            {
                "name": inst.name,
                "mode": inst.mode,
                "cap": inst.cap,
                "expected": exp,
                "level_sizes": r["decompose"].get("level_sizes"),
                "sha256": {
                    "decompose": r["decompose"].get("sha256"),
                    "project": r["project"].get("sha256"),
                },
                "seconds": {op: [p[i][op]["seconds"] for p in passes] for op in OPS},
                "problems": sorted({m for j, r in runs if j == i for op in OPS for m in r[op]["problems"]}),
            }
            for i, (inst, exp, r) in enumerate(zip(wl.instances, expected, last))
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"details: {out_path}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
