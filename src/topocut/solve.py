"""The solve pipeline: a loaded input, the five routes and their report.

Every index is a pair of rows of the input's one scaled weight matrix, and
every graph route shares its one cut engine.  ``ROUTES`` maps each method to
one function, and ``compute_report`` is the one way to run them: ``auto``
only picks a route, and ``_oracle_rows`` holds reports to the oracle's.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .cut_method import (
    INDEX_TERMS, CutEngine, Pair, TermNames, column_values, distance_sums, index_pairs,
)
from .exact import Weights, column_sums
from .graph import Graph, all_pairs_distances, degree_vector
from .indices import Weight, _wiener_double, wiener_plus, wiener_weighted

if TYPE_CHECKING:  # the phenylene and reduction modules load on first use
    from .phenylene import Phenylene


class MethodNotApplicable(ValueError):
    pass


@dataclass
class LoadedInput:
    """A loaded input: a graph, or a phenylene whose Graph is built only when
    ``graph`` is read, with its vertex weights ``weights`` (rows a and b)
    if any.  The cut engine (one theta* run) and the solve's weight matrix
    are built on first use and shared by every route."""

    source: Graph | Phenylene  # either has n and m
    descriptor: str
    weights: Weights | None = None

    @functools.cached_property
    def matrix(self) -> Weights:
        """The rows of ``cut_method.ROWS``: all ones, the degrees, then a and b."""
        g, w = self.graph, self.weights
        rows = np.ones((2, g.n), dtype=np.int64)
        rows[1] = np.bincount(g.edge_array.ravel(), minlength=g.n)
        scales, bounds = (1, 1), (g.n, 2 * g.m)  # whole, with sums n and 2m
        if w is None:
            return Weights(rows, scales, bounds)
        flags = w.fractions
        if flags is not None:  # the structural rows hold no Fraction
            flags = np.concatenate((np.zeros(rows.shape, dtype=bool), flags))
        return Weights(np.concatenate((rows, w.rows)), scales + w.scales, bounds + w.bounds, flags)

    @property
    def phenylene(self) -> Phenylene | None:
        return None if isinstance(self.source, Graph) else self.source

    @property
    def graph(self) -> Graph:
        return self.source if isinstance(self.source, Graph) else self.source.graph

    @functools.cached_property
    def engine(self) -> CutEngine:
        return CutEngine(self.graph)


_LABELS = dict(zip(INDEX_TERMS, ("W", "DD", "Gut", "W*(a)", "W+(a)", "W(a,b)")))


def _is_int_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "iu"


class Columns:
    """A breakdown as named columns of equal length, printed without a
    dict per row: a column that is an integer array prints through one
    ``%d`` per value."""

    def __init__(self, **columns: Sequence[Any]):
        self.columns = columns

    def lists(self, scalar=None) -> list[list]:
        """The columns as lists: an integer array's Python ints, any other
        column's values mapped through ``scalar`` if given."""
        return [
            col.tolist() if _is_int_array(col) else list(map(scalar, col) if scalar else col)
            for col in self.columns.values()
        ]


@dataclass
class Report:
    """A route's indices, in report order, and its breakdown: one row per
    block, tree or reduction step, or none (the oracle's)."""

    input: str
    n: int
    m: int
    method: str
    indices: dict[str, Weight]
    breakdown: Columns = field(default_factory=Columns)
    timing_ms: float = 0.0

    def to_json(self) -> str:
        """The report as ``json.dumps(payload, indent=2)`` prints it, with the
        payload's fixed schema written out directly: ``indent`` sends
        ``json.dumps`` through the pure-Python encoder.  Strings go through
        json's own ASCII encoder, ints and ``timing_ms`` through their
        ``__repr__``, and Fractions print as strings."""
        indices = _json_columns(Columns(**{k: [v] for k, v in self.indices.items()}), "  ")
        rows = _json_columns(self.breakdown, "    ")
        breakdown = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
        return (
            f'{{\n  "input": {_json_scalar(self.input)},\n'
            f'  "n": {_json_scalar(self.n)},\n'
            f'  "m": {_json_scalar(self.m)},\n'
            f'  "method": {_json_scalar(self.method)},\n'
            f'  "indices": {indices[0] if indices else "{}"},\n'
            f'  "breakdown": {breakdown},\n'
            f'  "timing_ms": {float.__repr__(self.timing_ms)}\n}}'
        )

    def to_text(self) -> str:
        lines = [f"input: {self.input}  (n={self.n}, m={self.m})", f"method: {self.method}"]
        for key, value in self.indices.items():
            lines.append(f"  {_LABELS.get(key, key):7s} = {value}")
        template = "    " + " ".join(f"{k}=%s" for k in self.breakdown.columns)
        lines += [template % row for row in zip(*self.breakdown.lists())]
        lines.append(f"time: {self.timing_ms:.2f} ms")
        return "\n".join(lines) + "\n"


def _json_default(v) -> str | int:
    """``json.dumps``'s fallback: a Fraction as a string, a numpy int as an int."""
    return str(v) if isinstance(v, Fraction) else int(v)


def _json_scalar(v) -> str:
    """One report value as JSON: a string, a Fraction (as a string) or an int."""
    if type(v) is not int and not isinstance(v, str):
        v = _json_default(v)
    return int.__repr__(v) if type(v) is int else encode_basestring_ascii(v)


def _json_columns(columns: Columns, pad: str) -> list[str]:
    """The rows of ``columns`` as ``json.dumps`` indents flat dicts at
    ``pad``: one %-template for all, with ``%d`` for every integer-array
    column."""
    fields = f",\n{pad}  ".join(
        encode_basestring_ascii(k) + (": %d" if _is_int_array(c) else ": %s")
        for k, c in columns.columns.items()
    )
    template = f"{{\n{pad}  {fields}\n{pad}}}"
    return [template % row for row in zip(*columns.lists(_json_scalar))]


def _oracle_indices(loaded: LoadedInput) -> dict[str, Weight]:
    """Every index by its brute-force definition, over one distance table."""
    g = loaded.graph
    d, deg = all_pairs_distances(g), degree_vector(g)
    out: dict[str, Weight] = {"wiener": wiener_weighted(g, (1,) * g.n, d)}
    # one vertex has degree 0, which is no weight, and every sum is empty
    out["degree_distance"] = wiener_plus(g, deg, d) if g.n > 1 else 0
    out["gutman"] = wiener_weighted(g, deg, d) if g.n > 1 else 0
    if loaded.weights is not None:
        a, b = loaded.weights.values(0), loaded.weights.values(1)
        out["wiener_weighted"] = wiener_weighted(g, a, d)
        out["wiener_plus"] = wiener_plus(g, a, d)
        out["wiener_double"] = _wiener_double(g, a, b, d)
    return out


def _cuts_route(loaded: LoadedInput, terms: TermNames):
    """Every term on the theta*-class quotients of the input's one engine:
    the block values as one array, each index one column sum."""
    pairs = index_pairs(terms)
    blocks = loaded.engine.block_matrix(loaded.matrix, pairs)
    indices = dict(zip(terms, column_values(blocks, loaded.matrix, pairs)))
    breakdown = Columns(
        block=np.arange(len(blocks)),
        edges=np.bincount(loaded.engine.block_of, minlength=len(blocks)),
        W=blocks[:, 0] // 2,  # W* and Gut are halved W(x, x) sums, each even
        DD=blocks[:, 1],
        Gut=blocks[:, 2] // 2,
    )
    return indices, breakdown


def _hamming_route(loaded: LoadedInput, terms: TermNames):
    """The cuts route on a partial Hamming graph.  Every theta*-class quotient
    is complete there, so each block is a closed sum T_a T_b - sum_c A_c B_c
    and every index, W(a, b) included, is exact."""
    if not loaded.engine.partial_hamming:
        raise MethodNotApplicable(
            "method 'hamming' needs a partial Hamming graph; detection failed "
            "(some theta*-class quotient is not complete)"
        )
    return _cuts_route(loaded, terms)


def _reduce(loaded: LoadedInput, pairs: Sequence[Pair]):
    """Every pair through one collapse plan of the input's graph: the plan,
    the pairs' undivided sums on the reduced graph, and their per-step
    corrections with which are Fractions (``CollapsePlan.apply_rows``).
    The reduced pairs share one distance matrix and one guarded D B
    (``distance_sums``)."""
    from .reduction import collapse_plan

    plan = collapse_plan(loaded.graph)
    reduced, corrections, typed = plan.apply_rows(loaded.matrix, pairs)
    sums = distance_sums(plan.graph, reduced, pairs).tolist()
    return plan, sums, corrections, typed


def _reduce_route(loaded: LoadedInput, terms: TermNames):
    """The R/S twin reductions; DD's corrections are the breakdown."""
    pairs = index_pairs(terms)
    plan, sums, corrections, _ = _reduce(loaded, pairs)
    steps = column_sums(corrections.T)
    indices = {k: loaded.matrix.divide(s + c, *pair)
               for k, s, c, pair in zip(terms, sums, steps, pairs)}
    kinds, sizes, reps = plan.step_table
    dd = list(terms).index("degree_distance")  # integer rows, undivided
    breakdown = Columns(
        kind=kinds,
        class_size=np.array(sizes, dtype=np.int64),
        representative=np.array(reps, dtype=np.int64),
        correction=corrections[dd],
    )
    return indices, breakdown


def _trees_route(loaded: LoadedInput, terms: TermNames):
    """The four quotient trees of a phenylene, from one Euler tour of the
    inner dual: the tree values as one array, as in the cuts route."""
    if loaded.phenylene is None:
        raise MethodNotApplicable(
            "method 'trees' needs a phenylene input (--cells or --family chain/phe6); "
            "edge lists carry no hexagon structure"
        )
    from .phenylene import quotient_trees, tree_block_matrix

    pairs = index_pairs(terms)
    trees = quotient_trees(loaded.phenylene)
    blocks, hexagons = tree_block_matrix(trees, loaded.weights, pairs)
    breakdown = Columns(
        tree=np.arange(1, len(trees) + 1),
        vertices=np.array([t.n for t in trees], dtype=np.int64),
        W_double=blocks[:, 1],  # DD, whole
        W_single=blocks[:, 2] // 2,  # Gut, a halved W(deg, deg)
    )
    return dict(zip(terms, column_values(blocks, hexagons, pairs))), breakdown


# Each route maps (loaded input, term list) to (indices, breakdown).  The oracle
# route looks _oracle_indices up on each call, so a replaced oracle takes effect.
ROUTES = {
    "oracle": lambda loaded, terms: (_oracle_indices(loaded), Columns()),
    "cuts": _cuts_route,
    "hamming": _hamming_route,
    "reduce": _reduce_route,
    "trees": _trees_route,
}


def compute_report(loaded: LoadedInput, method: str) -> Report:
    """The report of ``method``'s route, which ``auto`` picks: the weighted
    indices only with weights.  Raises ``MethodNotApplicable``."""
    if method == "auto" and loaded.phenylene is not None:
        method = "trees"
    elif method == "auto":
        method = "hamming" if loaded.engine.partial_hamming else "cuts"
    terms = {k: t for k, t in INDEX_TERMS.items() if loaded.weights is not None or "a" not in t}
    indices, breakdown = ROUTES[method](loaded, terms)
    return Report(loaded.descriptor, loaded.source.n, loaded.source.m, method, indices, breakdown)


def _oracle_rows(loaded: LoadedInput, reports: Sequence[Report] = ()) -> list[tuple[str, bool]]:
    """A line for every index of every report, held to the oracle, and whether
    they agree: equal and printed alike in JSON (a Fraction prints as a string,
    even a whole one).  With no ``reports`` every route that applies runs."""
    if not reports:
        reports = []
        for method in [m for m in ROUTES if m != "oracle"]:
            with suppress(MethodNotApplicable):
                reports.append(compute_report(loaded, method))
    oracle = compute_report(loaded, "oracle").indices
    rows = []
    for r in reports:
        for key, value in r.indices.items():
            want, got = _json_scalar(oracle[key]), _json_scalar(value)
            if want == got:
                rows.append((f"{key}({r.method}): oracle={oracle[key]} route={value} [ok]", True))
            else:  # as JSON, so that a type-only disagreement shows
                rows.append((f"{key}({r.method}): oracle={want} route={got} [MISMATCH]", False))
    return rows
