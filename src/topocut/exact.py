"""Exact integer arithmetic shared by the cut engine and the phenylene route.

Weights are scaled to integers by the LCM of their ``Fraction``
denominators and every result is divided back.  One guard,
``_exact_dtype``, picks the dtype of every array kernel from the bound of
the largest value the kernel forms: int64 below ``_INT64_LIMIT``, object
arrays of Python ints past it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .indices import Weight

# Every value an int64 kernel forms stays below this in absolute value, so
# the sum of two of them cannot wrap either.
_INT64_LIMIT = 1 << 62


class NotATreeError(ValueError):
    """A graph handed to a tree-only routine is not a tree."""


def _exact_dtype(bound: int) -> type:
    """int64 for a kernel whose every value is at most ``bound`` in absolute
    value while ``bound`` < ``_INT64_LIMIT``; Python ints (object) otherwise."""
    return np.int64 if bound < _INT64_LIMIT else object


def _scaled(w: Sequence[Weight]) -> tuple[list[int], int, bool]:
    """Integer weights w * L with L the LCM of the denominators, L, and
    whether some weight is a Fraction (even a whole-valued one)."""
    if all(type(x) is int for x in w):  # skips the per-weight ABC check below
        return list(w), 1, False
    denominators = [x.denominator for x in w if isinstance(x, Fraction)]
    scale = lcm(*denominators)
    if scale == 1:
        return [int(x) for x in w], 1, bool(denominators)
    return [int(x * scale) for x in w], scale, True


# A weight scaled to integers: w * L as an array under the guard, L, and
# whether some weight was a Fraction.
ScaledWeight = tuple[np.ndarray, int, bool]


def _scaled_array(w: Sequence[Weight]) -> ScaledWeight:
    """``_scaled`` as an array: every sum of the weights is at most sum|w|."""
    ints, scale, fraction = _scaled(w)
    return np.array(ints, dtype=_exact_dtype(sum(map(abs, ints)))), scale, fraction


def _exact_quotient(value: int, half: int, scale: int, fraction: bool) -> Weight:
    """value / (half * scale): an int for integer weights (x^T D x is even),
    a Fraction when some weight was a Fraction."""
    if not fraction:
        return value // half
    return Fraction(value, half * scale)


def _exact_sum(terms: np.ndarray, bound: int) -> int:
    """Exact sum of fewer than 2^31 int64 entries of absolute value at most
    ``bound`` < 2^62.  When the plain sum could overflow, the high and the
    low 31 bits of the entries are summed apart, and neither sum can."""
    if len(terms) * bound < 1 << 63:
        return int(terms.sum())
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
    positions from the root's first arc in O(n); a tour shorter than 2(n-1)
    arcs means the edges do not form a tree.  scipy is imported here, on
    the first tour of an edge, so that only the trees route loads it; a
    numpy pointer-doubling list ranking of the cycle ran 10 to 15 times
    slower on a 2-core Xeon VM (path of 10^5 vertices: 1.45 against
    22.4 ms).  Of an edge's two arcs the earlier
    goes down to a child, the down arcs in tour order list the children in
    preorder, and a child's subtree is the next (rank of up arc - rank of
    down arc + 1) / 2 preorder places.  Index arrays are int32 while the
    arc count allows.
    """
    m = ncomp - 1
    if qu.size != m:
        raise NotATreeError(f"graph has {qu.size} edges on {ncomp} vertices, not a tree")
    arcs = 2 * m  # arc x runs qu[x] -> qv[x] for x < m, and arc x + m back
    idx = np.int32 if arcs < 1 << 31 else np.int64
    if not m:  # a single vertex
        return (np.zeros(0, dtype=idx),) * 3
    tail = np.concatenate((qu, qv), dtype=idx)
    counts = np.bincount(tail, minlength=ncomp)
    if not counts.all():  # an isolated vertex
        raise NotATreeError("graph is disconnected, not a tree")
    order = np.argsort(tail, kind="stable").astype(idx)  # CSR position -> arc
    where = np.empty(arcs, dtype=idx)  # arc -> CSR position
    where[order] = np.arange(arcs, dtype=idx)
    order = np.where(order < m, order + m, order - m)  # now the twin arc of each position
    head = tail[order]
    twin = where[order]
    # the tour goes on at the position after the twin, cyclically in its row
    ends = np.cumsum(counts)
    succ = np.arange(1, arcs + 1, dtype=idx)
    succ[ends - 1] = ends - counts
    succ = succ[twin]
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    cycle = csr_matrix((np.ones(arcs), succ, np.arange(arcs + 1, dtype=idx)), shape=(arcs, arcs))
    tour = breadth_first_order(cycle, 0, directed=True, return_predecessors=False)
    if tour.size != arcs:
        raise NotATreeError("graph is disconnected, not a tree")
    rank = np.empty(arcs, dtype=idx)
    rank[tour] = np.arange(arcs, dtype=idx)
    later = rank[twin[tour]]
    down = np.flatnonzero(later > np.arange(arcs, dtype=idx)).astype(idx)  # preorder -> rank
    position = tour[down]
    stop = np.arange(1, m + 1, dtype=idx) + (later[down] - down - 1) // 2
    edge = order[position]  # the twin arc, on the same edge
    return np.where(edge < m, edge, edge - m), head[position], stop


def _split_plan(
    weights: dict[str, ScaledWeight], terms: Sequence[tuple[str, str | None]]
) -> tuple[dict[str, ScaledWeight], int, type]:
    """The weights the terms name, the bound on every per-edge term and the
    dtype it allows.  With T the sum|w| of a weight, every side of a split
    of x is at most T_x and every per-edge term at most T_x T_y."""
    used = {v: weights[v] for term in terms for v in term if v is not None}
    totals = {v: int(np.abs(w).sum()) for v, (w, _, _) in used.items()}
    bound = max((totals[x] * totals[x if y is None else y] for x, y in terms), default=0)
    return used, bound, _exact_dtype(bound)


def _split_term_sums(
    sides: dict[str, tuple[np.ndarray, int]],
    used: dict[str, ScaledWeight],
    terms: Sequence[tuple[str, str | None]],
    bound: int,
) -> list[Weight]:
    """Every term from the two sides of every split: per weight, one side S1
    of each edge, in the dtype of ``_split_plan``, and the weight's total T,
    so that the other side is S2 = T - S1.  A term (x, y) sums
    x(S1) y(S2) + x(S2) y(S1), a term (x, None) sums x(S1) x(S2); each sum
    is divided back by its scales.  A tree without edges has the empty sum,
    the int 0."""
    out = []
    for x, y in terms:
        (sx, tx), (sy, ty) = sides[x], sides[x if y is None else y]
        if not len(sx):
            out.append(0)
            continue
        edges = sx * (tx - sx) if y is None else sx * (ty - sy) + (tx - sx) * sy
        value = edges.sum() if edges.dtype == object else _exact_sum(edges, bound)
        (_, scale_x, frac_x), (_, scale_y, frac_y) = used[x], used[x if y is None else y]
        out.append(_exact_quotient(value, 1, scale_x * scale_y, frac_x or frac_y))
    return out


def _subtree_sums(w: np.ndarray, child: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per preorder place of ``_euler_tour``, the sum of w over the child's
    subtree, in w's dtype."""
    prefix = np.zeros(child.size + 1, dtype=w.dtype)
    prefix[1:] = w[child]
    np.cumsum(prefix, out=prefix)
    return prefix[stop] - prefix[:-1]


def _tree_term_sums(
    ncomp: int,
    qu: np.ndarray,
    qv: np.ndarray,
    weights: dict[str, ScaledWeight],
    terms: Iterable[tuple[str, str | None]],
) -> list[Weight]:
    """Split sums of the tree on vertices 0..ncomp-1 with edges (qu, qv).

    Each term (x, y) names two ``weights``, one value per tree vertex, and
    gives the sum over edges of x(S1) y(S2) + x(S2) y(S1), where
    S1, S2 are the two sides of the edge: W(x, y) of the tree.  A term
    (x, None) gives the sum of x(S1) x(S2), which is W*(x).

    One Euler tour (``_euler_tour``) gives every subtree, and one prefix sum
    over the preorder gives every subtree sum.  Each weight is scaled: an
    int64 array whose sum|w| fits in int64, or an object array of Python
    ints, with its scale; the terms are summed under the bound of
    ``_split_plan`` and divided back by their scales.  A tree without edges
    has the empty sum, the int 0.
    """
    terms = list(terms)
    _, child, stop = _euler_tour(ncomp, qu, qv)
    used, bound, dtype = _split_plan(weights, terms)
    sides = {}  # per weight: every edge's subtree side and the total
    for v, (w, _, _) in used.items():
        w = w.astype(dtype, copy=False)
        sides[v] = _subtree_sums(w, child, stop), w.sum()
    return _split_term_sums(sides, used, terms, bound)
