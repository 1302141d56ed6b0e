"""Spans around minorlab's public functions, recorded from outside the library.

:func:`install` replaces each traced function at every import site inside the
``minorlab`` package (the defining module and every module that imported the
name), so calls between modules are seen as well as calls from the benchmark.
No library source is edited.  Spans stay in memory and are written out when
the run ends; :func:`layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from functools import wraps

#: Traced functions as (module, function); the span name drops the package.
TRACED = (
    ("graphs", "exact_alpha"),
    ("graphs", "find_independent_set"),
    ("graphs", "induced_subgraph_with_map"),
    ("graphs", "saturating_matching"),
    ("graphs", "contract_with_classes"),
    ("graphs", "biconnected_blocks"),
    ("connectivity", "maximum_flow"),
    ("connectivity", "vertex_connectivity"),
    ("connectivity", "minimum_separation"),
    ("connectivity", "connectivity_at_least"),
    ("minor", "find_kt_minor_exact"),
    ("minor", "model_defect"),
    ("minor", "dense_random_model"),
    ("minor", "contraction_round"),
    ("decompose", "small_coboundary_piece"),
    ("decompose", "check_decomposition"),
    ("decompose", "peel_piece"),
    ("coloring", "minor_free_list_color"),
    ("coloring", "hall_ratio_list_color"),
    ("coloring", "exact_list_color"),
    ("coloring", "multipartite_list_color"),
    ("coloring", "verify_list_coloring"),
    ("formats", "parse_edge_list"),
    ("formats", "model_to_str"),
    ("formats", "decomposition_to_str"),
    ("formats", "coloring_to_str"),
    ("extremal", "gen_bipartite"),
    ("extremal", "lower_bound_bipartite"),
)

#: Per-layer self-time metrics (ms per request) and the spans each one sums.
SELF_MS = {
    "graphs.exact_alpha_ms": ("graphs.exact_alpha",),
    "graphs.find_independent_set_ms": ("graphs.find_independent_set",),
    "graphs.induced_subgraph_ms": ("graphs.induced_subgraph_with_map",),
    "graphs.saturating_matching_ms": ("graphs.saturating_matching",),
    "graphs.contract_ms": ("graphs.contract_with_classes",),
    "graphs.biconnected_blocks_ms": ("graphs.biconnected_blocks",),
    "connectivity.maxflow_ms": ("connectivity.maximum_flow",),
    "connectivity.vertex_connectivity_ms": ("connectivity.vertex_connectivity",),
    "connectivity.minimum_separation_ms": ("connectivity.minimum_separation",),
    "minor.validate_ms": ("minor.model_defect",),
    "minor.dense_model_ms": ("minor.dense_random_model",),
    "minor.contraction_round_ms": ("minor.contraction_round",),
    "decompose.piece_ms": ("decompose.small_coboundary_piece",),
    "decompose.check_ms": ("decompose.check_decomposition",),
    "decompose.peel_ms": ("decompose.peel_piece",),
    "coloring.minor_free_ms": ("coloring.minor_free_list_color",),
    "coloring.hall_ratio_ms": ("coloring.hall_ratio_list_color",),
    "coloring.exact_list_color_ms": ("coloring.exact_list_color",),
    "coloring.multipartite_ms": ("coloring.multipartite_list_color",),
    "coloring.verify_ms": ("coloring.verify_list_coloring",),
    "formats.parse_ms": ("formats.parse_edge_list",),
    "formats.write_ms": (
        "formats.model_to_str",
        "formats.decomposition_to_str",
        "formats.coloring_to_str",
    ),
    "extremal.generate_ms": ("extremal.gen_bipartite", "extremal.lower_bound_bipartite"),
}

#: Per-layer call counts (calls per request).
CALLS = {
    "graphs.exact_alpha_calls": "graphs.exact_alpha",
    "graphs.induced_subgraph_calls": "graphs.induced_subgraph_with_map",
    "connectivity.maxflow_calls": "connectivity.maximum_flow",
    "minor.find_calls": "minor.find_kt_minor_exact",
    "decompose.peel_calls": "decompose.peel_piece",
}

_FIND = "minor.find_kt_minor_exact"
_PIECE = "decompose.small_coboundary_piece"
_CONNECT = "connectivity.connectivity_at_least"
_PIPELINES = (
    "coloring.minor_free_list_color",
    "coloring.hall_ratio_list_color",
    "coloring.multipartite_list_color",
)


def _tag(name: str, args, result):
    """What a span records about its call besides the timing."""
    if name == "formats.parse_edge_list":
        return len(args[0])
    if name == _FIND:
        return "positive" if result is not None else "negative"
    if name in _PIPELINES:
        return "success" if result is not None else "none"
    return None


class Tracer:
    """In-memory span recorder for one thread.

    A span is [name, start, end, parent, request, tag]; `parent` is the index
    of the enclosing span (-1 for none) and `request` the id of the request
    being served.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = -1

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, tag=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = tag
        self._open.pop()

    def wrap(self, fn, name: str):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, type(exc).__name__)
                raise
            self.end(index, _tag(name, args, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, request, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, request, tag]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function at each of its import sites in minorlab."""
    modules = [m for n, m in sys.modules.items() if n == "minorlab" or n.startswith("minorlab.")]
    for module_name, attr in TRACED:
        original = getattr(sys.modules[f"minorlab.{module_name}"], attr)
        wrapped = tracer.wrap(original, f"{module_name}.{attr}")
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer figures, normalised per request unit (a trial on suite-batch;
    per piece for the decompose rounds and splits)."""
    child_time = [0.0] * len(spans)
    has_flow = [False] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    for span in spans:
        if span[0] == "connectivity.maximum_flow":
            parent = span[3]
            while parent >= 0 and not has_flow[parent]:
                has_flow[parent] = True
                parent = spans[parent][3]

    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    find_ms = {"positive": 0.0, "negative": 0.0}
    exhausted = parsed_bytes = 0
    rounds = splits = 0
    connect = connect_no_flow = 0
    pipelines = pipelines_ok = 0
    for i, (name, start, end, parent, _, tag) in enumerate(spans):
        own = (end - start - child_time[i]) * 1e3
        self_ms[name] += own
        calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == _FIND:
            if tag == "BudgetExceeded":  # neither found nor proved absent
                exhausted += 1
            elif tag in find_ms:
                find_ms[tag] += own
        elif name == "formats.parse_edge_list":
            parsed_bytes += tag if isinstance(tag, int) else 0  # no size if it raised
        elif name == _CONNECT:
            connect += 1
            connect_no_flow += not has_flow[i]
        elif name in _PIPELINES and parent_name is not None and parent_name.startswith("request."):
            pipelines += 1
            pipelines_ok += tag == "success"
        if parent_name == _PIECE:
            rounds += name == "graphs.saturating_matching"
            splits += name == "connectivity.minimum_separation"

    per = 1.0 / max(1, requests)
    pieces = max(1, calls[_PIECE])
    out = {m: sum(self_ms[s] for s in names) * per for m, names in SELF_MS.items()}
    out.update({m: calls[s] * per for m, s in CALLS.items()})
    out["minor.find_positive_ms"] = find_ms["positive"] * per
    out["minor.find_negative_ms"] = find_ms["negative"] * per
    out["minor.budget_exhausted"] = exhausted * per
    out["decompose.rounds"] = rounds / pieces
    out["decompose.splits"] = splits / pieces
    out["connectivity.certificate_hit_ratio"] = connect_no_flow / connect if connect else 0.0
    out["coloring.success_ratio"] = pipelines_ok / pipelines if pipelines else 0.0
    out["formats.parse_bytes"] = parsed_bytes * per
    return out
