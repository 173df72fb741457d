"""Brute-force definitions of the Wiener-type indices, and the weights file.

The indices are the ground truth for every other computation path: plain
sums over all unordered vertex pairs, evaluated with exact integer (or
Fraction) arithmetic, in O(n m) BFS plus O(n^2) pair accumulation.  The
weights file is read by ``read_weights``: as arrays from the table reader
(``read_ratio_table``) when the table holds it, or line by line
(``_read_weight_lines``), which names the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .exact import Weight, Weights, scale_weights, weights_of
from .graph import (
    Graph,
    GraphError,
    ParseError,
    all_pairs_distances,
    degree_vector,
    read_ratio_table,
    token_lines,
)


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
        if not isinstance(x, Rational):  # a float is inexact: the routes would truncate it
            raise GraphError(f"weight of vertex {u} is {x!r}, must be an int or a Fraction")
        if x <= 0:
            raise GraphError(f"weight of vertex {u} is {x}, must be positive")


def check_positive(weights: Weights) -> None:
    """``check_weights`` of every row, in order, on the scaled arrays: the
    error names the first vertex of the first row with a weight <= 0."""
    for r, row in enumerate(weights.rows):
        bad = np.flatnonzero(row <= 0)
        if bad.size:
            u = int(bad[0])
            raise GraphError(f"weight of vertex {u} is {weights.values(r)[u]}, must be positive")


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


def read_weights(text: str, n: int) -> Weights:
    """The weights file as a two-row :class:`~topocut.exact.Weights`, a then b:
    one "v a [b]" line per vertex, b defaulting to 1, every vertex 0..n-1
    exactly once.  ``values(r)`` gives a row as Python values: an int, or a
    ``Fraction`` when the reduced denominator is above 1 (``parse_weight``).

    A text of integer and ``p/q`` lines that ``read_ratio_table`` reads,
    naming every vertex once with a plain integer, is taken from that
    table: the fractions are reduced in the arrays, and each row is scaled
    by the LCM of its denominators (``scale_weights``).  Any other text
    (decimals, zero denominators, values past +-2^60, comments, a fault)
    takes ``_read_weight_lines``, whose ``ParseError`` names the line.
    """
    table = read_ratio_table(text, (2, 3))
    if table is not None and len(table[0]) == n:
        values, den = table
        vertex = values[:, 0]
        # n lines that cover 0..n-1 name each vertex once
        if (
            (den is None or not den[:, 0].any())
            and vertex.min() >= 0
            and vertex.max() < n
            and np.bincount(vertex, minlength=n).all()
        ):
            width = values.shape[1] - 1  # a row and b row, or a row alone
            num = np.ones((2, n), dtype=np.int64)
            num[:width, vertex] = values[:, 1:].T
            if den is None:
                return scale_weights(num)
            q = np.ones((2, n), dtype=np.int64)
            q[:width, vertex] = np.maximum(den[:, 1:], 1).T  # 0 marks a plain integer
            common = np.gcd(num, q)
            num //= common
            q //= common
            fractions = q > 1
            return scale_weights(num, q, fractions) if fractions.any() else scale_weights(num)
    return weights_of(_read_weight_lines(text, n))


def _read_weight_lines(text: str, n: int) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """The weights file line by line over ``token_lines``: every ``read_weights`` error."""
    a: list[Weight | None] = [None] * n
    b: list[Weight] = [1] * n
    for lineno, line, parts in token_lines(text):
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
