"""Run-time tracer: wraps topocut functions in spans without editing them.

``Tracer`` replaces each function named in ``TARGETS`` in every ``topocut.*``
module that binds it (``from .graph import all_pairs_distances`` makes one
binding per importing module) and restores the originals on exit.  Each call
records a span: name, start, end, parent, and an optional count taken from
the call's arguments or result.  ``round_counts`` turns the spans of one
round of solves into per-layer values; ``layer_metrics`` combines rounds.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass


def _graph_of(obj):
    """The Graph behind a Graph, WeightedGraph or DoubleWeightedGraph."""
    return getattr(obj, "g", obj)


def _n(args, result):
    return _graph_of(args[0]).n


def _pairs(args, result):
    n = _graph_of(args[0]).n
    return n * (n - 1) // 2


def _edge_pairs(args, result):
    m = args[0].m
    return m * (m - 1) // 2


def _quotient_vertices(args, result):
    return result.graph.n


def _tree_vertices(args, result):
    return sum(t.tree.n for t in result)


def _steps(args, result):
    return len(result[2])


def _detected(args, result):
    return int(bool(result))


# (module, attribute, span name, count taken from (args, result) or None).
# "Graph.__init__" is a method; everything else is a module-level function.
TARGETS = (
    ("topocut.cli", "main", "cli", None),
    ("topocut.graph", "parse_edge_list", "graph.parse", None),
    ("topocut.graph", "Graph.__init__", "graph.build", None),
    ("topocut.graph", "all_pairs_distances", "graph.apsp", _n),
    ("topocut.graph", "components_after_deletion", "graph.components", None),
    ("topocut.theta", "theta_star_classes", "theta.classes", _edge_pairs),
    ("topocut.theta", "validate_coarser", "theta.validate", None),
    ("topocut.theta", "quotient", "theta.quotient", _quotient_vertices),
    ("topocut.indices", "wiener", "indices.kernel", _pairs),
    ("topocut.indices", "wiener_weighted", "indices.kernel", _pairs),
    ("topocut.indices", "wiener_plus", "indices.kernel", _pairs),
    ("topocut.indices", "wiener_double", "indices.kernel", _pairs),
    ("topocut.indices", "_wiener_double", "indices.kernel", _pairs),
    ("topocut.indices", "degree_distance", "indices.kernel", _pairs),
    ("topocut.indices", "gutman", "indices.kernel", _pairs),
    ("topocut.cut_method", "wiener_weighted_block_values", "cut_method.blocks", None),
    ("topocut.cut_method", "wiener_double_block_values", "cut_method.blocks", None),
    ("topocut.phenylene", "parse_placement", "phenylene.parse", None),
    ("topocut.phenylene", "build_phenylene", "phenylene.build", None),
    ("topocut.phenylene", "quotient_trees", "phenylene.trees", _tree_vertices),
    ("topocut.phenylene", "tree_wiener_double_linear", "phenylene.kernel", None),
    ("topocut.phenylene", "tree_wiener_linear", "phenylene.kernel", None),
    ("topocut.hamming", "is_partial_hamming", "hamming.detect", _detected),
    ("topocut.hamming", "weighted_wiener_lower_bound", "hamming.bound", None),
    ("topocut.hamming", "gutman_lower_bound", "hamming.bound", None),
    ("topocut.reduction", "r_classes", "reduction.classes", None),
    ("topocut.reduction", "s_classes", "reduction.classes", None),
    ("topocut.reduction", "reduce_fully", "reduction.reduce", _steps),
    ("topocut.reduction", "reduce_fully_single", "reduction.reduce", _steps),
)


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    count: int = 0
    key: object = None  # theta.quotient: identifies a repeated quotient

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps every target while active.

    Targets missing from the program are skipped and listed in ``missing``,
    so the tracer keeps working while the program is refactored.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "topocut" or name.startswith("topocut."))
        ]
        for module_name, attr, span_name, counter in TARGETS:
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, counter)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span_name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_quotient = span_name == "theta.quotient"

        def traced(*args, **kwargs):
            span = Span(span_name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if counter is not None:
                span.count = counter(args, result)
            if is_quotient:
                block = args[1] if len(args) > 1 else kwargs.get("f")
                if isinstance(block, (tuple, list)):
                    span.key = (id(args[0]), tuple(sorted(set(block))))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.duration
    return own


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


# Per-layer metric names with units, in reporting order.
LAYER_METRICS = (
    ("graph.parse.self_s", "s"),
    ("graph.build.calls", "count"),
    ("graph.build.self_s", "s"),
    ("graph.apsp.calls", "count"),
    ("graph.apsp.bfs_sources", "count"),
    ("graph.apsp.self_s", "s"),
    ("graph.components.calls", "count"),
    ("graph.components.self_s", "s"),
    ("theta.classes.calls", "count"),
    ("theta.classes.self_s", "s"),
    ("theta.classes.pair_tests", "count"),
    ("theta.classes.per_solve", "count/solve"),
    ("theta.validate.self_s", "s"),
    ("theta.quotient.calls", "count"),
    ("theta.quotient.self_s", "s"),
    ("theta.quotient.vertices", "count"),
    ("theta.quotient.distinct_ratio", "ratio"),
    ("indices.kernel.calls", "count"),
    ("indices.kernel.pairs", "count"),
    ("indices.kernel.self_s", "s"),
    ("cut_method.blocks.calls", "count"),
    ("cut_method.blocks.self_s", "s"),
    ("phenylene.parse.self_s", "s"),
    ("phenylene.build.self_s", "s"),
    ("phenylene.trees.self_s", "s"),
    ("phenylene.trees.vertices", "count"),
    ("phenylene.kernel.calls", "count"),
    ("phenylene.kernel.self_s", "s"),
    ("hamming.detect.calls", "count"),
    ("hamming.detect.self_s", "s"),
    ("hamming.detect.wasted_s", "s"),
    ("hamming.bound.calls", "count"),
    ("hamming.bound.self_s", "s"),
    ("reduction.classes.calls", "count"),
    ("reduction.classes.self_s", "s"),
    ("reduction.steps", "count"),
    ("reduction.reduce.calls", "count"),
    ("reduction.reduce.self_s", "s"),
    ("reduction.scans_per_step", "count/step"),
    ("cli.self_s", "s"),
    ("cli.reported_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# Span name -> the metric that sums its spans' counts.
_COUNT_FIELD = {
    "graph.apsp": "graph.apsp.bfs_sources",
    "theta.classes": "theta.classes.pair_tests",
    "theta.quotient": "theta.quotient.vertices",
    "indices.kernel": "indices.kernel.pairs",
    "phenylene.trees": "phenylene.trees.vertices",
    "reduction.reduce": "reduction.steps",
}

# Metrics that count work; they must repeat exactly for one seed.
EXACT_COUNTS = tuple(
    name for name, _ in LAYER_METRICS
    if name.endswith(".calls") or name in _COUNT_FIELD.values()
)


def round_counts(spans: list[Span], solves: int) -> dict[str, float]:
    """Counts and self times of one round of ``solves`` traced solves.

    A call counts once however deep it nests inside calls of the same span
    name (``gutman`` calling ``wiener_weighted`` is one kernel call).
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    wasted = 0.0
    quotient_keys: set = set()
    distinct = 0
    for s in spans:
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own[id(s)]
        if s.parent is not None and s.parent.name == s.name:
            continue
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        field_name = _COUNT_FIELD.get(s.name)
        if field_name:
            out[field_name] = out.get(field_name, 0) + s.count
        if s.name == "hamming.detect" and not s.count:
            wasted += s.duration
        if s.name == "theta.quotient":
            key = (id(_root(s)), s.key) if s.key is not None else id(s)
            if key not in quotient_keys:
                quotient_keys.add(key)
                distinct += 1
    out["hamming.detect.wasted_s"] = wasted
    classes = out.get("theta.classes.calls", 0)
    out["theta.classes.per_solve"] = classes / solves if solves else 0.0
    built = out.get("theta.quotient.calls", 0)
    out["theta.quotient.distinct_ratio"] = distinct / built if built else 0.0
    steps = out.get("reduction.steps", 0)
    scans = out.get("reduction.classes.calls", 0)
    out["reduction.scans_per_step"] = scans / steps if steps else 0.0
    return out


def layer_metrics(rounds: list[dict[str, float]], extra: dict[str, float]) -> dict:
    """Per-round values as metric objects: exact counts from the first traced
    round (every round repeats them), the rest as medians over the rounds.

    Layers that never ran on the workload report 0.
    """
    out = {}
    for name, unit in LAYER_METRICS:
        if name in extra:
            value = extra[name]
        elif name in EXACT_COUNTS:
            value = rounds[0].get(name, 0)
        else:
            value = statistics.median(r.get(name, 0) for r in rounds)
        out[name] = {"value": value, "unit": unit}
    return out
