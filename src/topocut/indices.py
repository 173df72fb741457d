"""Brute-force definitions of the Wiener-type indices.

These are the ground truth for every other computation path: plain sums over
all unordered vertex pairs, evaluated with exact integer (or Fraction)
arithmetic.  Nothing here is clever and nothing here is fast beyond O(n m)
BFS plus O(n^2) pair accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import (
    Graph,
    GraphError,
    ParseError,
    all_pairs_distances,
    degree_vector,
    read_int_table,
)

Weight = int | Fraction


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with one positive vertex weight per vertex."""

    g: Graph
    w: tuple[Weight, ...]

    def __post_init__(self):
        check_weights(self.g, self.w)


@dataclass(frozen=True)
class DoubleWeightedGraph:
    """A graph with two positive vertex weight vectors."""

    g: Graph
    a: tuple[Weight, ...]
    b: tuple[Weight, ...]

    def __post_init__(self):
        check_weights(self.g, self.a)
        check_weights(self.g, self.b)


def check_weights(g: Graph, w: Sequence[Weight]) -> None:
    if len(w) != g.n:
        raise GraphError(f"weight vector has length {len(w)}, expected {g.n}")
    for u, x in enumerate(w):
        if x <= 0:
            raise GraphError(f"weight of vertex {u} is {x}, must be positive")


def wiener(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs."""
    d = all_pairs_distances(g)
    total = 0
    for u in range(g.n):
        du = d[u]
        for v in range(u + 1, g.n):
            total += du[v]
    return total


def wiener_weighted(
    g: Graph, w: Sequence[Weight], d: Sequence[Sequence[int]] | None = None
) -> Weight:
    """Product-weighted Wiener index: sum of w(u) w(v) d(u,v)."""
    check_weights(g, w)
    if d is None:
        d = all_pairs_distances(g)
    total = 0
    for u in range(g.n):
        du, wu = d[u], w[u]
        for v in range(u + 1, g.n):
            total += wu * w[v] * du[v]
    return total


def wiener_plus(
    g: Graph, w: Sequence[Weight], d: Sequence[Sequence[int]] | None = None
) -> Weight:
    """Sum-weighted Wiener index: sum of (w(u) + w(v)) d(u,v)."""
    check_weights(g, w)
    if d is None:
        d = all_pairs_distances(g)
    total = 0
    for u in range(g.n):
        du, wu = d[u], w[u]
        for v in range(u + 1, g.n):
            total += (wu + w[v]) * du[v]
    return total


def wiener_double(dwg: DoubleWeightedGraph) -> Weight:
    """Double-weighted Wiener index: sum of (a(u)b(v) + a(v)b(u)) d(u,v)."""
    return _wiener_double(dwg.g, dwg.a, dwg.b)


def _wiener_double(
    g: Graph,
    a: Sequence[Weight],
    b: Sequence[Weight],
    d: Sequence[Sequence[int]] | None = None,
) -> Weight:
    if d is None:
        d = all_pairs_distances(g)
    total = 0
    for u in range(g.n):
        du, au, bu = d[u], a[u], b[u]
        for v in range(u + 1, g.n):
            total += (au * b[v] + a[v] * bu) * du[v]
    return total


def degree_distance(g: Graph) -> int:
    """Sum of (deg(u) + deg(v)) d(u,v) over unordered pairs."""
    if g.n == 1:
        return 0
    return wiener_plus(g, degree_vector(g))


def gutman(g: Graph) -> int:
    """Sum of deg(u) deg(v) d(u,v) over unordered pairs."""
    if g.n == 1:
        return 0
    return wiener_weighted(g, degree_vector(g))


def parse_weight(token: str) -> Weight:
    """Parse an exact weight: integer, fraction "p/q", or decimal string."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse weight {token!r}") from None
    return int(value) if value.denominator == 1 else value


def parse_weights(text: str, n: int) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """Parse the weights file format: one "v a [b]" line per vertex, b defaults to 1.

    Every vertex 0..n-1 must appear exactly once.  A text of integer lines
    that ``read_int_table`` reads, naming every vertex once, is taken from
    that table; any other text (fractions, decimals, comments, a fault)
    takes the line reader, whose ``ParseError`` names the offending line.
    """
    table = read_int_table(text, (2, 3))
    if table is not None and len(table) == n:
        vertex = table[:, 0]
        # n lines that cover 0..n-1 name each vertex once
        if vertex.min() >= 0 and vertex.max() < n and np.bincount(vertex, minlength=n).all():
            a, b = np.empty(n, dtype=np.int64), np.ones(n, dtype=np.int64)
            a[vertex] = table[:, 1]
            if table.shape[1] == 3:
                b[vertex] = table[:, 2]
            return tuple(a.tolist()), tuple(b.tolist())
    return _read_weight_lines(text, n)


def _read_weight_lines(text: str, n: int) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """The line-by-line weights reader: every ``parse_weights`` error."""
    a: list[Weight | None] = [None] * n
    b: list[Weight] = [1] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'v a [b]', got {line!r}")
        try:
            v = int(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex index {parts[0]!r}") from None
        if not (0 <= v < n):
            raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
        if a[v] is not None:
            raise ParseError(f"line {lineno}: vertex {v} given twice")
        try:
            a[v] = parse_weight(parts[1])
            if len(parts) == 3:
                b[v] = parse_weight(parts[2])
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    missing = [v for v, x in enumerate(a) if x is None]
    if missing:
        raise ParseError(f"missing weights for vertices {missing[:5]}")
    return tuple(a), tuple(b)  # type: ignore[arg-type]
