"""Exact integer arithmetic shared by the cut engine, the reductions and the
phenylene route.

Vertex weights live in one :class:`Weights` matrix: each row scaled to
integers by the LCM of its reduced denominators, built by one scaling
function (:func:`scale_weights`), whether the values come from the weights
file's arrays or from Python ints and ``Fraction``s.  Every route takes an
index as a ``Pair`` of rows, keeps its sums in arrays undivided and divides
it back once.  Every tree sums its splits by ``_split_sums``, except the
cut engine's pendant blocks, which form the same per-edge term inline.

Every integer limit is here.  One rule, ``_narrowest_dtype``, picks an
array's dtype from the bound of its largest value: the first type from a
start (int8 for distances, int32 for indices and D B, int64 for every other
kernel, ``_exact_dtype``) whose limit in ``_LIMITS`` is above the bound,
Python ints (object) when none is.  ``column_sums`` sums exactly, by numpy
below ``_SUM_LIMIT``, and an empty sum divides back to the int 0.  Table
readers take values inside ``_TABLE_LIMIT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

import numpy as np

Weight = int | Fraction
# A term over the rows of one Weights matrix: (i, j, half) is W(row i,
# row j), halved for W*(row i) when half is set (then j is i).
Pair = tuple[int, int, bool]

# Each type holds every value below its limit in absolute value; int64's is
# 2^62, so the sum of two of its values cannot wrap either.
_LIMITS = {np.int8: 1 << 7, np.int16: 1 << 15, np.int32: 1 << 31, np.int64: 1 << 62}
# numpy sums n int64 values of absolute value at most top while n top < this.
_SUM_LIMIT = 1 << 63
# Table readers take values inside +-this, and leave larger ones to ``token_lines``.
_TABLE_LIMIT = 1 << 60


class NotATreeError(ValueError):
    """A graph handed to a tree-only routine is not a tree."""


def _narrowest_dtype(bound: int, least: type = np.int8) -> type:
    """The first integer type from ``least`` on whose limit is above
    ``bound``, the largest absolute value an array holds; Python ints
    (object) when none is."""
    types = tuple(_LIMITS)
    return next((t for t in types[types.index(least):] if bound < _LIMITS[t]), object)


def _exact_dtype(bound: int) -> type:
    """``_narrowest_dtype`` from int64, the start of every weight kernel."""
    return _narrowest_dtype(bound, np.int64)


def column_sums(values: np.ndarray) -> list[int]:
    """Exact sums of the columns of an int64 or object array: Python sums of
    an object array, numpy's while rows x max|entry| < ``_SUM_LIMIT``, and
    ``_exact_sum``'s otherwise.  No rows give the int 0 per column."""
    if values.dtype == object or not values.size:
        return [sum(col) for col in values.T.tolist()]
    if len(values) * int(np.abs(values).max()) < _SUM_LIMIT:
        return values.sum(axis=0).tolist()
    return [_exact_sum(col) for col in values.T]


@dataclass(frozen=True, eq=False)  # arrays: compared and hashed by identity
class Weights:
    """Vertex weight vectors as one integer matrix, a row per vector.

    Row r holds w_r * scales[r], with scales[r] the LCM of the reduced
    denominators of w_r; ``bounds[r]`` is at least sum|rows[r]|.  The matrix
    is int64 or an object array of Python ints, always the latter once
    int64 cannot hold a bound (``_exact_dtype``); each kernel casts it to
    the dtype its own bound allows.  ``fractions`` marks the entries that
    are ``Fraction``s (None when none is): a sum is a Fraction exactly when
    one of its terms is, as in the oracle's Python sums.
    """

    rows: np.ndarray
    scales: tuple[int, ...]
    bounds: tuple[int, ...]
    fractions: np.ndarray | None = None

    @cached_property
    def fractional(self) -> tuple[bool, ...]:
        """Per row: some entry is a Fraction."""
        if self.fractions is None:
            return (False,) * len(self.scales)
        return tuple(self.fractions.any(axis=1).tolist())

    def values(self, r: int) -> tuple[Weight, ...]:
        """Row r divided back: an int, or a Fraction where the entry is one."""
        values, scale = self.rows[r].tolist(), self.scales[r]
        if not self.fractional[r]:
            return tuple(values) if scale == 1 else tuple(v // scale for v in values)
        flags = self.fractions[r].tolist()
        return tuple(Fraction(v, scale) if f else v // scale for v, f in zip(values, flags))

    def divide(self, value: int, i: int, j: int, half: bool) -> Weight:
        """A W(a, b) sum over rows i and j, in their scaled units, divided
        back; ``half`` halves it, for W*(a)."""
        fraction = self.fractional[i] or self.fractional[j]
        return _exact_quotient(value, 1 + half, self.scales[i] * self.scales[j], fraction)


def scale_weights(
    num: np.ndarray, den: np.ndarray | None = None, fractions: np.ndarray | None = None
) -> Weights:
    """The rows num / den as one :class:`Weights`: each row times the LCM L
    of its denominators, ``num * (L // den)``.

    ``num`` and ``den`` are r x n arrays, int64 or object, with every
    fraction reduced and every denominator positive; ``den`` None means
    every denominator is 1.  ``fractions`` marks the Fraction entries.  A
    row stays int64 while ``_exact_dtype`` allows |num| L, and the matrix
    while it allows every row's sum|w L|.
    """
    out, scales, bounds = [], [], []
    for r, row in enumerate(num):
        scale = 1 if den is None else lcm(*np.unique(den[r]).tolist())
        top = 0 if not row.size else max(abs(int(row.max())), abs(int(row.min()))) * scale
        if _exact_dtype(top) is object:
            row = row.astype(object)
        if scale > 1:
            row = row * (scale // den[r].astype(row.dtype))
        out.append(row)
        scales.append(scale)
        bounds.append(column_sums(abs(row)[:, None])[0])
    rows = np.array(out, dtype=_exact_dtype(max(bounds, default=0))).reshape(num.shape)
    return Weights(rows, tuple(scales), tuple(bounds), fractions)


def _int_array(rows: list) -> np.ndarray:
    """Python ints as an int64 array, or an object array past int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def weights_of(vectors: Sequence[Sequence[Weight]]) -> Weights:
    """:func:`scale_weights` of vectors of Python ints and ``Fraction``s.
    A vector of plain ints takes no per-weight ``isinstance`` check (an ABC
    check); any other vector is split into numerators and denominators, and
    a whole-valued Fraction still marks its entry."""
    n = len(vectors[0]) if vectors else 0
    if all(type(x) is int for w in vectors for x in w):
        return scale_weights(_int_array([list(w) for w in vectors]).reshape(len(vectors), n))
    flags = [[isinstance(x, Fraction) for x in w] for w in vectors]
    num = [[x.numerator if f else int(x) for x, f in zip(w, fs)] for w, fs in zip(vectors, flags)]
    den = [[x.denominator if f else 1 for x, f in zip(w, fs)] for w, fs in zip(vectors, flags)]
    fractions = np.array(flags, dtype=bool).reshape(len(vectors), n)
    return scale_weights(
        _int_array(num).reshape(len(vectors), n),
        _int_array(den).reshape(len(vectors), n),
        fractions if fractions.any() else None,
    )


def _exact_quotient(value: int, half: int, scale: int, fraction: bool) -> Weight:
    """value / (half * scale): an int for integer weights (x^T D x is even)
    and for the empty sum 0, a Fraction when some weight was a Fraction."""
    if not fraction or not value:
        return value // half
    return Fraction(value, half * scale)


def _exact_sum(terms: np.ndarray) -> int:
    """Exact sum of fewer than 2^31 int64 entries of absolute value below
    2^62, whose plain sum may overflow: the high and the low 31 bits of the
    entries are summed apart, and neither sum can."""
    return (int(np.sum(terms >> 31)) << 31) + int(np.sum(terms & 0x7FFFFFFF))


def _euler_tour(
    ncomp: int, qu: np.ndarray, qv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of the tree on vertices 0..ncomp-1 with edges (qu, qv), in
    preorder of their child ends, from one Euler tour rooted at vertex 0.

    Returns, per preorder place p, the edge (an index into qu, qv), its
    child end and ``stop[p]``: the child's subtree holds the children of
    places p..stop[p]-1, so with a prefix sum P of the children's weights
    in preorder (P[0] = 0) the subtree's sum is P[stop[p]] - P[p].

    The 2(n-1) arcs are laid out in CSR order by tail, each with its twin;
    the tour follows an arc u->v with the arc after v->u in v's row,
    cyclically.  scipy's ``breadth_first_order`` walks that cycle of CSR
    positions from the root's first arc in O(n).  The edges must connect
    the vertices, as every caller's do; n - 1 of them then form a tree.
    scipy is imported here, so that only the trees route loads it; a numpy
    pointer-doubling list ranking of the cycle ran 10 to 15 times slower.
    Of an edge's two arcs the earlier goes down to a child, the down arcs
    in tour order list the children in preorder, and a child's subtree is
    the next (rank of up arc - rank of down arc + 1) / 2 preorder places.
    Every step is a 1-D gather or scatter over index arrays of
    ``_narrowest_dtype(2(n-1), np.int32)``.
    """
    m = ncomp - 1
    if qu.size != m:
        raise NotATreeError(f"graph has {qu.size} edges on {ncomp} vertices, not a tree")
    arcs = 2 * m  # arc x runs qu[x] -> qv[x] for x < m, and arc x + m back
    idx = _narrowest_dtype(arcs, np.int32)
    if not m:  # a single vertex
        return (np.zeros(0, dtype=idx),) * 3
    tail = np.concatenate((qu, qv), dtype=idx)
    counts = np.bincount(tail, minlength=ncomp)
    positions = np.arange(arcs + 1, dtype=idx)  # every arange below is a slice of it
    arc = tail.argsort(kind="stable").astype(idx)  # CSR position -> arc
    where = np.empty(arcs, dtype=idx)  # arc -> CSR position
    where[arc] = positions[:-1]
    twin = np.empty(arcs, dtype=idx)  # CSR position -> its twin's position
    twin[where[:m]] = where[m:]
    twin[where[m:]] = where[:m]
    # the tour goes on at the position after the twin, cyclically in its row
    ends = counts.cumsum(dtype=idx)
    succ = positions[1:].copy()
    succ[ends - 1] = ends - counts
    del where, counts, ends
    succ = succ.take(twin)  # only the cycle's arrays live through the walk
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    cycle = csr_matrix((np.ones(arcs), succ, positions), shape=(arcs, arcs))
    tour = breadth_first_order(cycle, 0, directed=True, return_predecessors=False)
    del cycle, succ
    rank = np.empty(arcs, dtype=idx)
    rank[tour] = positions[:-1]
    later = rank.take(twin.take(tour))
    del rank, twin
    down = (later > positions[:-1]).nonzero()[0].astype(idx)  # preorder -> rank
    stop = later.take(down)  # place p + (rank of up arc - rank of down arc + 1) / 2
    stop -= down - 1
    stop >>= 1
    stop += positions[:m]
    down = arc.take(tour.take(down))  # preorder -> down arc, whose head is its twin's tail
    return down % m, tail.take(down - m, mode="wrap"), stop


def _split_bound(bounds: Sequence[int], pairs: Sequence[Pair]) -> int:
    """The bound on every per-edge term of ``_split_sums``: T_i T_j for a
    pair of rows (i, j), with T = sum|w| of a row (``Weights.bounds``).
    Every side of a split of row i is at most T_i."""
    return max((bounds[i] * bounds[j] for i, j, _ in pairs), default=0)


def _gram(sides: np.ndarray, pairs: Sequence[Pair], bound: int) -> tuple[list[int], list[int]]:
    """Exact row sums of a tree's R x edges sides S and S_i.S_j per pair (i, j),
    products at most ``bound``, which int64 holds: from the int64 Gram matrix
    S S^T while edges * bound < ``_SUM_LIMIT`` (no pair reads an entry that
    may wrap), else by ``_exact_sum``."""
    if sides.dtype == object or sides.shape[1] * bound < _SUM_LIMIT:
        dtype = object if sides.dtype == object else np.int64
        gram = np.einsum("ri,si->rs", sides, sides, dtype=dtype).tolist()
        return sides.sum(axis=1, dtype=dtype).tolist(), [gram[i][j] for i, j, _ in pairs]
    dots = [_exact_sum(np.multiply(sides[i], sides[j], dtype=np.int64)) for i, j, _ in pairs]
    return [_exact_sum(x) for x in sides], dots


def _split_sums(
    sides: Sequence[np.ndarray], totals: Sequence[int], pairs: Sequence[Pair], bound: int
) -> np.ndarray:
    """Every pair's W(a, b) on each of a list of trees, from the two sides
    of every edge: a trees x len(pairs) integer array, undivided, with
    W(a, a) for a halved pair, as ``CutEngine.block_matrix`` gives one row
    per block.

    Row r of ``sides[t]`` holds row r's sum on one side S1 of every edge
    of tree t, in a dtype ``_exact_dtype(bound)`` allows, and ``totals[r]``
    its total T, so the other side is S2 = T - S1.  A pair (i, j) sums
    S1_i S2_j + S2_i S1_j = T_j S1_i + T_i S1_j - 2 S1_i S1_j over the
    edges: W(i, j), and 2 S1_i S2_i for i = j, from the tree's row sums and
    products (``_gram``; ``bound`` from ``_split_bound``).  A tree without
    edges has the empty sum 0.
    """
    columns = []
    for s in sides:
        sums, dots = _gram(s, pairs, bound)
        columns.append([totals[j] * sums[i] + totals[i] * sums[j] - 2 * dot
                        for (i, j, _), dot in zip(pairs, dots)])
    return _int_array(columns)


def _subtree_sums(w: np.ndarray, child: np.ndarray, stop: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (w's shape, last axis child.size + 1) with w's sum over
    the child's subtree at every preorder place of ``_euler_tour``, then
    w's total: a prefix sum overwritten in place by the differences."""
    out[..., 0] = 0
    w.take(child, axis=-1, out=out[..., 1:], mode="clip")  # valid: "clip" is unbuffered
    out.cumsum(axis=-1, dtype=out.dtype, out=out)
    np.subtract(out.take(stop, axis=-1), out[..., :-1], out=out[..., :-1])
    out[..., -1] += w[..., 0]  # the root, vertex 0, is no place's child


def _tree_sums(
    ncomp: int, qu: np.ndarray, qv: np.ndarray, weights: Weights, pairs: Sequence[Pair]
) -> np.ndarray:
    """``_split_sums`` of the pairs on the tree on vertices 0..ncomp-1 with
    edges (qu, qv) and vertex weights ``weights``: a 1 x len(pairs) array,
    or 0 x len(pairs) for a tree without edges, whose empty sums
    ``column_values`` gives as the int 0.  One Euler tour
    (``_euler_tour``) gives every subtree, and one prefix sum per row over
    the preorder every subtree sum."""
    _, child, stop = _euler_tour(ncomp, qu, qv)
    if not child.size:
        return np.zeros((0, len(pairs)), dtype=np.int64)
    bound = _split_bound(weights.bounds, pairs)
    rows = weights.rows.astype(_exact_dtype(bound), copy=False)
    below = np.empty((len(rows), child.size + 1), dtype=rows.dtype)
    _subtree_sums(rows, child, stop, below)
    return _split_sums([below[:, :-1]], below[:, -1].tolist(), pairs, bound)
