"""Outside-in tracing of designlens: wrap the functions modules import from each other.

The tracer replaces module attributes (for example `designlens.cli.compute_all`
or `designlens.metrics.class_graph`) with wrappers that record a span per call:
name, start, end, parent span, op id, and the garbage-collector time spent
inside it.  Spans stay in memory and are written out once, when the process
ends.  The designlens source is never edited; a wrapped name that no longer
exists is reported as absent, and a counter that no longer fits its call as
uncounted; neither fails the run.

`self_times` turns recorded spans into self time per span name.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter

# (module, attribute, span name, counter).  Each span name is a layer metric
# stem: its self time is reported as `<name>_s` and its call count as
# `<name>.calls`.  Every import site of a function is wrapped, so a call is
# seen whichever module makes it.
WRAPPED = (
    ("designlens.cli", "run", "cli.self", None),
    ("designlens.cli", "parse_minioo_declarations", "frontends.parse", None),
    ("designlens.frontends", "parse_minioo_declarations", "frontends.parse", None),
    ("designlens.frontends", "tokenize", "frontends.tokenize", "tokens"),
    ("designlens.cli", "decode_interchange", "frontends.decode", None),
    ("designlens.frontends", "decode_interchange", "frontends.decode", None),
    ("designlens", "write_interchange", "frontends.write", None),
    ("designlens.frontends", "write_interchange", "frontends.write", None),
    ("designlens", "read_interchange", "model.construct", None),
    ("designlens.frontends", "read_interchange", "model.construct", None),
    ("designlens", "parse_minioo", "model.construct", None),
    ("designlens.frontends", "parse_minioo", "model.construct", None),
    ("designlens.cli", "build_model", "model.construct", None),
    ("designlens.model", "validate_packages", "model.validate", None),
    ("designlens.frontends", "validate_packages", "model.validate", None),
    ("designlens.model", "class_graph", "model.class_graph", "class_edges"),
    ("designlens.metrics", "class_graph", "model.class_graph", "class_edges"),
    ("designlens.principles", "class_graph", "model.class_graph", "class_edges"),
    ("designlens.principles", "package_graph", "model.package_graph", "package_edges"),
    ("designlens.cli", "compute_all", "metrics.compute_all", None),
    ("designlens.metrics", "lcom", None, "lcom_pairs"),
    ("designlens.metrics", "dit", "metrics.dit", None),
    ("designlens.metrics", "noc", "metrics.noc", None),
    ("designlens.metrics", "cbo", "metrics.cbo", None),
    ("designlens.metrics", "afferent", "metrics.afferent", None),
    ("designlens.metrics", "efferent", "metrics.efferent", None),
    ("designlens.cli", "run_all", "principles.run_all", None),
    ("designlens.principles", "adp_violations", "principles.adp", "findings"),
    ("designlens.principles", "sdp_violations", "principles.sdp", "findings"),
    ("designlens.principles", "sap_zones", "principles.sap", "findings"),
    ("designlens.principles", "srp_advisories", "principles.srp", "findings"),
    ("designlens.principles", "dip_advisories", "principles.dip", "findings"),
    ("designlens.principles", "empty_package_warnings", "principles.empty", "findings"),
    ("designlens.model", "strongly_connected_components", "tarjan.scc", "scc_nodes"),
    ("designlens.principles", "strongly_connected_components", "tarjan.scc", "scc_nodes"),
    ("designlens.cli", "build_report", "report.build", None),
    ("designlens.cli", "render", "report.render", "output_bytes"),
)

# How each counter reads a call's arguments and result.
_COUNTERS = {
    "tokens": lambda args, result: {"frontends.tokens": len(result[0]),
                                    "frontends.input_bytes": len(args[0].encode("utf-8"))},
    "class_edges": lambda args, result: {"model.class_edges": len(result.edges)},
    "package_edges": lambda args, result: {"model.package_edges": len(result.edges)},
    "lcom_pairs": lambda args, result: {
        "metrics.lcom_pairs": len(args[0].methods) * (len(args[0].methods) - 1) // 2},
    "findings": lambda args, result: Counter(
        f"principles.findings.{finding.rule.lower()}" for finding in result),
    "scc_nodes": lambda args, result: {"tarjan.scc_nodes": sum(len(c) for c in result)},
    "output_bytes": lambda args, result: {"report.output_bytes": len(result.encode("utf-8"))},
}


class Tracer:
    """Records spans and counts for wrapped calls in this process."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []  # [name, start, end, parent, op, gc seconds]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.uncounted: set[str] = set()  # wrapped names whose counter no longer fits
        self._gc_start = 0.0

    def install(self) -> None:
        for module_name, attribute, name, counter in WRAPPED:
            module = sys.modules.get(module_name) or _import(module_name)
            function = getattr(module, attribute, None) if module is not None else None
            if function is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self._wrap(function, name, _COUNTERS.get(counter),
                                                  f"{module_name}.{attribute}"))
        gc.callbacks.append(self._on_gc)

    def _wrap(self, function, name, counter, wrapped):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name is None:
                result = function(*args, **kwargs)
            else:
                span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0.0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = function(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                counts[f"{name}.calls"] += 1
            if counter is not None:
                try:
                    counts.update(counter(args, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    # A refactor changed this call's arguments or result; count nothing.
                    self.uncounted.add(wrapped)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._gc_start
        self.counts["runtime.gc_collections"] += 1
        self.counts["runtime.gc_us"] += round(elapsed * 1e6)
        if self.stack:
            self.spans[self.stack[-1]][5] += elapsed

    def write(self, path: str) -> None:
        gc.callbacks.remove(self._on_gc)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent,
                       "uncounted": sorted(self.uncounted)}, out)


def _import(module_name: str):
    try:
        __import__(module_name)
    except ImportError:
        return None
    return sys.modules[module_name]


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus its child spans and GC inside it."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, gc_s in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Counter = Counter()
    for index, (name, start, end, _, _, gc_s) in enumerate(spans):
        totals[f"{name}_s"] += end - start - covered[index] - gc_s
    return dict(totals)


def root_seconds(spans: list[list], name: str) -> float:
    """Total wall seconds of top-level spans with this name."""
    return sum(end - start for n, start, end, parent, _, _ in spans if n == name and parent < 0)
