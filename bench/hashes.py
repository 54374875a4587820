"""Reference hashes of the mgraph files the benchmark's operations write.

    python3 bench/hashes.py write [--seed 0]   # record the current code's bytes
    python3 bench/hashes.py diff [--seed 0]    # name the graphs whose bytes differ

Both run one pass of every workload and take, per graph, the sha256 of the
decompose output and of each projection.  ``write`` stores them in
``bench/results/reference-hashes.json``; ``diff`` compares with that file.
The diff is information for changes meant to keep behaviour and always
exits 0 once it has run: a change that corrects the method may change bytes.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, RESULTS, WORKLOADS, Workload

REFERENCE = RESULTS / "reference-hashes.json"


def current_hashes(seed: int) -> dict[str, dict]:
    hashes = {}
    for name in sorted(WORKLOADS):
        wl = Workload(name, seed, HERE / "work" / name)
        _, cli = wl.setup()
        for inst, r in zip(wl.instances, wl.run_pass(cli)):
            hashes[f"{name}/{inst.name}"] = {
                "decompose": r["decompose"].get("sha256"),
                "project": r["project"].get("sha256"),
            }
    return hashes


def main() -> int:
    ap = argparse.ArgumentParser(description="Write or compare reference mgraph hashes.")
    ap.add_argument("action", choices=("write", "diff"))
    ap.add_argument("--seed", type=int, default=0, help="relabelling seed of the inputs")
    args = ap.parse_args()

    hashes = current_hashes(args.seed)
    if args.action == "write":
        RESULTS.mkdir(exist_ok=True)
        REFERENCE.write_text(json.dumps({"seed": args.seed, "graphs": hashes}, indent=1) + "\n")
        print(f"wrote {len(hashes)} graphs to {REFERENCE}")
        return 0

    reference = json.loads(REFERENCE.read_text())
    if reference["seed"] != args.seed:
        ap.error(f"the reference was written with --seed {reference['seed']}")
    differ = sorted(k for k in hashes.keys() | reference["graphs"].keys()
                    if hashes.get(k) != reference["graphs"].get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(hashes)} graphs differ from {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
