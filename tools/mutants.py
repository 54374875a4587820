"""Run the recorded mutants of multifact against its test suite.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

A mutant is a deliberate fault: a file under ``src/multifact``, exact old
texts, their replacements, and the CHANGES.md entry that first tried it.
Each one runs on a fresh copy of ``src/``, ``tests/``, ``bench/`` and
``pyproject.toml`` in a temporary directory, against the suite without
``tests/test_acceptance.py`` (``pytest -x``: the first failure kills it).
One JSON line per mutant goes to stdout:

    {"mutant": ..., "source": ..., "status": "killed", "first": "<test id>", "seconds": ...}

``status`` is ``killed``, ``survived``, or ``stale`` when an old text is not
in its file exactly once: the code it broke is gone, so nothing ran.  A stale
mutant is always printed, never dropped.  The unmutated suite runs first
and must pass, or every kill would be meaningless.  The exit code is 1 if
any mutant survived, else 0.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    source: str  # the CHANGES.md entry that named it
    file: str  # relative to src/multifact
    edits: tuple[tuple[str, str], ...]  # (old, new) pairs, each old text exact and unique


MUTANTS = [
    Mutant(
        "intents-object-filed-under-first-bit",
        "Retire what the chain path left behind",
        "candidates.py",
        ((
            "        intents.update(fresh)\n        fresh.append(om)\n",
            "        intents.update(fresh)\n"
            "        by_bit.setdefault(bit_indices(kept)[0], set()).add(om)\n",
        ),),
    ),
    Mutant(
        "intents-object-never-filed",
        "Retire what the chain path left behind",
        "candidates.py",
        (("        intents.update(fresh)\n        fresh.append(om)\n",
          "        intents.update(fresh)\n"),),
    ),
    Mutant(
        "order-key-concatenates-lower-then-upper",
        "One candidate record",
        "candidates.py",
        ((
            "    if not u or not l or l[-1] < u[0]:\n"
            "        merged = l + u\n"
            "    else:  # level ids interleave: a graph built by hand\n"
            "        merged = tuple(sorted(u + l))\n",
            "    merged = l + u\n",
        ),),
    ),
    Mutant(
        "chain-upper-part-unsorted",
        "One candidate record",
        "candidates.py",
        (("                    upper.sort()\n", ""),),
    ),
    Mutant(
        "leftover-private-name",
        "One candidate record",
        "candidates.py",
        (('MODES = ("weak", "factor", "clean")\n',
          'MODES = ("weak", "factor", "clean")\n_fill = None\n'),),
    ),
    Mutant(
        "chain-count-recurrence-a-level-late",
        "Property 3 by counting",
        "lattice.py",
        (("        if k > 2:\n            starts =", "        if k > 3:\n            starts ="),),
    ),
    Mutant(
        "chains-listed-without-membership-failure",
        "Property 3 by counting",
        "lattice.py",
        (("        if chain_bad or member_bad or len(realised) < count:",
          "        if chain_bad or len(realised) < count:"),),
    ),
    Mutant(
        "supersets-in-set-order",
        "Property 3 by counting",
        "lattice.py",
        (("tuple(p for p in nontrivial if o < p)", "tuple(p for p in set(nontrivial) if o < p)"),),
    ),
    Mutant(
        "chain-grow-last-element-by-largest-id",
        "Property 3 by counting",
        "candidates.py",
        (("e = last[max(upper, key=last.__getitem__)]", "e = last[max(upper)]"),),
    ),
    Mutant(
        "chain-elements-numbered-by-id",
        "Property 3 by counting",
        "candidates.py",
        (("elems = sorted(g.levels[2], key=lambda v: (len(snaps[v][0]), v))",
          "elems = sorted(g.levels[2])"),),
    ),
    Mutant(
        "intents-filed-under-three-bits",
        "Property 3 by counting",
        "candidates.py",
        (("            for b in bit_indices(c & keep):\n",
          "            for b in bit_indices(c & keep)[:3]:\n"),),
    ),
    Mutant(
        "clean-classes-whole-top-level",
        "The chain index keeps only the element order",
        "candidates.py",
        (("    if top < 3:\n        return [sorted(g.levels[top])]",
          "    if True:\n        return [sorted(g.levels[top])]"),),
    ),
    Mutant(
        "chain-last-element-from-level-0",
        "The chain index keeps only the element order",
        "candidates.py",
        (
            ("self._elem = {snaps[v][1]: i", "self._elem = {snaps[v][0]: i"),
            ("m = elem.get(snaps[x][1])", "m = elem.get(snaps[x][0])"),
        ),
    ),
    Mutant(
        "chain-family-returned-unsorted",
        "A family is its ordered tuple of candidates",
        "candidates.py",
        (("        return _ordered(members)\n\n\ndef clean_candidates(",
          "        return tuple(members)\n\n\ndef clean_candidates("),),
    ),
    Mutant(
        "walk-family-returned-unsorted",
        "A family is its ordered tuple of candidates",
        "candidates.py",
        (("    return _ordered(members)\n\n\ndef weak_candidates(",
          "    return tuple(members)\n\n\ndef weak_candidates("),),
    ),
    Mutant(
        "step-numbers-in-input-order",
        "The step numbers its own vertices",
        "transform.py",
        (("    merged.sort()\n", ""),),
    ),
    Mutant(
        "step-order-without-size",
        "The step numbers its own vertices",
        "transform.py",
        (("    merged.sort()\n", "    merged.sort(key=lambda m: m[1])\n"),),
    ),
]

_FIRST = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def _suite(root: Path) -> tuple[int, str]:
    """Run the suite without the acceptance tests in ``root``; (exit code, first failure)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--ignore=tests/test_acceptance.py", "tests"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    found = _FIRST.search(proc.stdout)
    return proc.returncode, found.group(1) if found else ""


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "work", "results")
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run(m: Mutant) -> dict:
    out = {"mutant": m.name, "source": m.source}
    path = ROOT / "src" / "multifact" / m.file
    text = path.read_text(encoding="utf-8")
    for old, new in m.edits:
        if text.count(old) != 1:
            return {**out, "status": "stale", "unmatched": old.strip().splitlines()[0]}
        text = text.replace(old, new)
    with tempfile.TemporaryDirectory(prefix="multifact-mutant-") as tmp:
        root = Path(tmp)
        _copy(root)
        (root / "src" / "multifact" / m.file).write_text(text, encoding="utf-8")
        t0 = time.perf_counter()
        code, first = _suite(root)
        out["seconds"] = round(time.perf_counter() - t0, 1)
    if code == 0:
        return {**out, "status": "survived"}
    return {**out, "status": "killed", "first": first or f"pytest exit {code}"}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="multifact-mutant-") as tmp:
        _copy(Path(tmp))
        code, first = _suite(Path(tmp))
    if code != 0:
        print(f"the unmutated suite fails ({first or f'pytest exit {code}'})", file=sys.stderr)
        return 2
    survived = False
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        result = run(m)
        survived |= result["status"] == "survived"
        print(json.dumps(result), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
