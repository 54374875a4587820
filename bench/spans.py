"""Spans around multifact's layers, recorded from outside the program.

Each point names a module attribute that multifact looks up when it calls
into a layer, and the span that the call stands for.  Wrapping the attribute
times every call made through it; nothing inside ``src/`` changes.  A span's
self time is its duration minus the duration of the spans it caused, and a
layer's figure is the sum of its spans' self times.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MB = 1 << 20

# (module, attribute, span).  Where two modules look up the same function
# each lookup is wrapped, so every call lands in the span once.
POINTS = [
    ("multifact.cli", "parse_edge_list", "fileio.parse_edge_list"),
    ("multifact.cli", "parse_multipartite", "fileio.parse_multipartite"),
    ("multifact.cli", "serialise_multipartite", "fileio.serialise_multipartite"),
    ("multifact.cli", "serialise_edge_list", "fileio.serialise_edge_list"),
    ("multifact.cli", "collapse_bipartite", "cliques.collapse_bipartite"),
    ("multifact.cli", "run_clean", "series.self"),
    ("multifact.cli", "run_weak", "series.self"),
    ("multifact.cli", "run_factor", "series.self"),
    ("multifact.cli", "roundtrip_report", "series.roundtrip"),
    ("multifact.cli", "verify_charseq_theorem", "lattice.charseq"),
    ("multifact.cli", "verify_v2_bijection", "lattice.v2_bijection"),
    ("multifact.cli", "size_bound", "lattice.size_bound"),
    ("multifact.cli", "project", "transform.project"),
    ("multifact.series", "project", "transform.project"),
    ("multifact.series", "clique_incidence", "cliques.clique_incidence"),
    ("multifact.series", "clean_candidates", "candidates.clean"),
    ("multifact.series", "factor_candidates", "candidates.factor"),
    ("multifact.series", "weak_candidates", "candidates.weak"),
    ("multifact.series", "factorise", "transform.factorise"),
    ("multifact.cliques", "maximal_cliques", "cliques.maximal_cliques"),
    ("multifact.lattice", "maximal_cliques", "cliques.maximal_cliques"),
    ("multifact.lattice", "intersection_family", "lattice.intersection_family"),
]
# the span the benchmark opens around each CLI call
OPERATION = "cli.self"

# counts read off a span's result: span -> (metric, function of the result)
COUNTS = {
    "candidates.clean": ("candidates.kept", len),
    "candidates.factor": ("candidates.kept", len),
    "candidates.weak": ("candidates.kept", len),
    "transform.factorise": ("transform.vertices_added", lambda step: len(step.new_vertices)),
    "series.self": ("series.steps", lambda run: len(run.stats)),
}
CALLS = ("cliques.maximal_cliques", "lattice.intersection_family")
MEMORY_LAYERS = ("series", "lattice", "fileio")


class _Frame:
    __slots__ = ("name", "start", "children", "base", "peak")

    def __init__(self, name: str):
        self.name = name
        self.children = 0.0
        self.base = self.peak = 0
        self.start = 0.0


class Tracer:
    """Install with :meth:`install`, run operations, then :meth:`uninstall`.

    With ``memory`` set, tracemalloc must be running; each span then also
    records the highest traced memory above its entry level.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peak: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span in POINTS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(span)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, span: str):
        count = COUNTS.get(span)

        def traced(*args, **kwargs):
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                metric, measure = count
                try:
                    self.counts[metric] += measure(result)
                except (AttributeError, TypeError):
                    self.missing.add(span)
            return result

        return traced

    def enter(self, span: str) -> None:
        frame = _Frame(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame.base = frame.peak = current
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        took = end - frame.start
        self.self_s[frame.name] += took - frame.children
        self.calls[frame.name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children += took
        if self.memory:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            layer = frame.name.split(".")[0]
            self.peak[layer] = max(self.peak[layer], frame.peak - frame.base)
            if parent is not None:
                parent.peak = max(parent.peak, frame.peak)
            tracemalloc.reset_peak()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of the self times, call counts and result counts."""
        spans = {span for _, _, span in POINTS} | {OPERATION}
        out: dict[str, tuple[float, str]] = {}
        for span in sorted(spans - self.missing):
            out[f"{span}_s"] = (self.self_s.get(span, 0.0), "s")
        for span in CALLS:
            if span not in self.missing:
                out[f"{span}_calls"] = (self.calls.get(span, 0), "count")
        lost = {metric for span, (metric, _) in COUNTS.items() if span in self.missing}
        for metric, _ in COUNTS.values():
            if metric not in lost:
                out[metric] = (self.counts.get(metric, 0), "count")
        return out

    def memory_metrics(self) -> dict[str, tuple[float, str]]:
        """Largest tracemalloc peak above entry inside each layer's calls, in MiB."""
        return {
            f"{layer}.tracemalloc_peak_mb": (self.peak.get(layer, 0) / MB, "MB")
            for layer in MEMORY_LAYERS
        }
