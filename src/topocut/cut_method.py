"""Index computation from quotient graphs over a coarser edge partition.

For a partition {F_1, ..., F_r} of the edge set into unions of whole
theta*-classes, distances decompose as
d(u,v) = sum_i d_{G/F_i}(l_i(u), l_i(v)), and consequently every weighted
Wiener variant decomposes into a sum of the same variant over the (small)
quotient graphs with component-aggregated weights.

Every index is a weight pair: W(a, b) = sum over ordered vertex pairs of
a(u) b(v) d(u,v), and W*(a) = W(a, a) / 2.  :class:`CutEngine` takes each
edge of a pendant tree as a K2 block with the subtree sums as its sides.
It finds every other block quotient at once by contracting the 2-core's
edges in ceil(log2 k) halving levels of its k blocks, with no pass over
the whole graph per block.  It sums the weights of every quotient through
the same levels and evaluates the complete quotients in closed form all
together.  Over theta*'s own classes the core blocks sum to the 2-core's
double-weighted Wiener sum, on the core distance matrix theta* built, so
the largest non-complete quotient is that sum minus the other core blocks;
every other quotient gets one distance matrix.  So a graph with one
non-complete class builds one distance matrix in all.  The weights are
scaled to integers and every array runs under the int64 guard of
:mod:`topocut.exact`.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

import numpy as np

from .exact import _exact_dtype, _exact_quotient, _scaled
from .graph import ROW_CHUNK, Graph, component_labels, degree_vector, distance_matrix
from .indices import DoubleWeightedGraph, Weight, check_weights
from .theta import (
    EdgePartition,
    NotPartialCubeError,
    PartitionError,
    ThetaClasses,
    theta_star_classes,
    validate_coarser,
)

# A term (a, b) is W(a, b); (a, None) is W*(a) = W(a, a) / 2.
Term = tuple[Sequence[Weight], Sequence[Weight] | None]


# Every reported index as a weight pair (x, y) over named vertex vectors, in
# report order: "1" all ones, "deg" the degrees, "a" and "b" the vertex
# weights, and y None for W*(x).  W = W*(1), DD = W(deg, 1), Gut = W*(deg);
# with vertex weights also W*(a), W+(a) = W(a, 1) and W(a, b).
TermNames = dict[str, tuple[str, str | None]]
INDEX_TERMS: TermNames = {
    "wiener": ("1", None),
    "degree_distance": ("deg", "1"),
    "gutman": ("deg", None),
    "wiener_weighted": ("a", None),
    "wiener_plus": ("a", "1"),
    "wiener_double": ("a", "b"),
}


def index_terms(
    g: Graph, a: Sequence[Weight] | None = None, b: Sequence[Weight] | None = None
) -> dict[str, Term]:
    """The reported indices as weight pairs of vectors, in report order;
    the weighted ones (``INDEX_TERMS`` over "a") only when ``a`` is given."""
    vectors = {"1": (1,) * g.n, "deg": degree_vector(g), "a": a, "b": b}
    return {
        name: (vectors[x], None if y is None else vectors[y])
        for name, (x, y) in INDEX_TERMS.items()
        if a is not None or "a" not in (x, y)
    }


def _check_partition(g: Graph, partition: EdgePartition) -> None:
    total = sum(len(b) for b in partition.blocks)
    if total != g.m:
        raise PartitionError(
            f"partition covers {total} edges but the graph has {g.m}"
        )


class CutEngine:
    """An edge partition of one graph with every block quotient's shape
    found by one contraction pass.

    Without ``partition`` the blocks are the theta*-classes: theta* runs
    once and its core distance matrix is kept for :meth:`block_values`, or
    ``classes`` is used after a theta* run validates it as coarser than the
    theta*-classes.  The pendant trees then
    stay out of the contraction (``Graph.peel``).  Each of their edges is a
    bridge and a class of its own, so its quotient is K2, with sides the
    subtree below the edge and the rest.  The contraction runs on the
    2-core's edges and classes only.  A pendant vertex lies in the same
    component of G - F_i as its core vertex for every core block i, so a
    core quotient's component sums are those of the core with each core
    vertex carrying its hanging subtree.  Components stay numbered by the
    smallest original vertex: the core vertices are ranked by the smallest
    vertex of their subtrees.  A given ``partition`` is contracted whole.

    The blocks are numbered 0..k-1 and contracted by halving the block range
    in L = ceil(log2 k) levels.  Before level l every range R of blocks (the
    block indices sharing their top l bits) has super-vertices: the
    components of G with every edge outside R contracted.  Level l gives
    each super-vertex two copies, one per child range of R, and contracts
    each edge of R whose bit L-l-1 is b in copy 1-b, so one
    ``component_labels`` call over the copies and all m edges yields every
    child's super-vertices.  A connected range with |E_R| edges has at most
    |E_R| + 1 super-vertices, so a level costs O(m + 2^l) and the pass
    O(m log k).  The leaves' super-vertices are the components of G - F_i,
    numbered by smallest original vertex, as in
    :func:`~topocut.theta.quotient`.  Only the per-level label maps are
    kept, never a k x n table.

    ``sizes`` and ``complete`` give each quotient's vertex count and
    whether it is complete, and ``quotient_edges`` one quotient's edges.
    The components reach :meth:`block_values` only as the component sums
    of ``_leaf_sums``.
    """

    def __init__(
        self,
        g: Graph,
        partition: EdgePartition | None = None,
        classes: ThetaClasses | None = None,
    ):
        n, ends = g.n, g.edge_array
        peel = None
        self._core_distances = None  # theta*'s, rows in g.peel.core order
        if partition is None:
            if classes is None:
                classes = theta_star_classes(g)
                partition = EdgePartition(classes.classes)
                self._core_distances = classes.core_distances
            else:
                partition = validate_coarser(g, classes.classes)
            # a bridge's quotient is K2 only in a connected graph
            peel = g.peel if g.connected else None
        else:
            _check_partition(g, partition)
        self.g = g
        self.partition = partition
        k = len(partition.blocks)
        block_of = np.empty(g.m, dtype=np.int64)
        if k:
            block_of[np.concatenate(partition.blocks)] = np.repeat(
                np.arange(k), [len(b) for b in partition.blocks]
            )
        # A pendant block is one pendant edge alone, as in the theta*-classes;
        # given classes that join a pendant edge to others are contracted whole.
        pendant = np.zeros(k, dtype=bool)
        self._fold: list[tuple[int, int]] = []  # (peeled vertex, parent), in peel order
        if peel is not None and peel.order.size:
            owner = block_of[peel.edge]
            if (np.bincount(block_of, minlength=k)[owner] == 1).all():
                pendant[owner] = True
                self._fold = list(zip(peel.order.tolist(), peel.parent.tolist()))
                self._pendant_vertex = peel.order[np.argsort(owner)]  # per pendant block
        core_k = k - len(self._fold)
        if self._fold:
            # core blocks renumbered 0..core_k-1 in order; pendant blocks -1
            self._core_block = np.where(pendant, -1, np.cumsum(~pendant) - 1)
            # each vertex's core vertex, by pointer jumping up the trees
            anchor = np.arange(n)
            anchor[peel.order] = peel.parent
            while (anchor[anchor] != anchor).any():
                anchor = anchor[anchor]
            # core vertices ranked by the smallest vertex of their subtrees
            low = np.full(n, n)
            np.minimum.at(low, anchor, np.arange(n))
            self._core_vertices = peel.core[np.argsort(low[peel.core])]
            rank = np.empty(n, dtype=np.int64)
            rank[self._core_vertices] = np.arange(peel.core.size)
            eu, ev = rank[ends[peel.core_edges]].T
            block_of = self._core_block[block_of[peel.core_edges]]
        else:
            self._core_block = np.arange(k)
            self._core_vertices = np.arange(n)
            eu, ev = (e.astype(np.int64) for e in ends.T)
        depth = max(core_k - 1, 0).bit_length()  # ceil(log2 k)
        # the block range of each super-vertex
        ranges = np.zeros(self._core_vertices.size, dtype=np.int64)
        self._maps = []  # per level: the child super-vertex of copy 2s + c
        for level in range(depth):
            bit = (block_of >> (depth - level - 1)) & 1
            count, labels = component_labels(
                2 * ranges.size, 2 * eu + 1 - bit, 2 * ev + 1 - bit
            )
            self._maps.append((count, labels))
            eu, ev = labels[2 * eu + bit], labels[2 * ev + bit]
            copies = np.arange(2 * ranges.size)
            child_ranges = np.empty(count, dtype=np.int64)
            child_ranges[labels] = 2 * ranges[copies >> 1] + (copies & 1)
            ranges = child_ranges
        # Within one range, super-vertices are numbered in the order of their
        # smallest vertex: true of the ranked core vertices, and kept by every
        # level, as component_labels numbers each child by its smallest copy
        # 2s + c.  So a stable sort by range lists every block's quotient
        # vertices in quotient()'s order; ranges past the last core block
        # hold no block and sort last.
        self._order = np.argsort(ranges, kind="stable")
        self._position = np.empty(ranges.size, dtype=np.int64)
        self._position[self._order] = np.arange(ranges.size)
        core_sizes = np.bincount(ranges, minlength=core_k)[:core_k]
        self._starts = np.concatenate(([0], np.cumsum(core_sizes)))
        # quotient edges: unique (lo, hi) leaf positions without loops,
        # sorted by block, then lo, then hi
        lo, hi = self._position[eu], self._position[ev]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        codes = np.unique((lo * ranges.size + hi)[lo != hi])
        self._edge_lo, self._edge_hi = codes // ranges.size, codes % ranges.size
        edge_block = ranges[self._order][self._edge_lo]
        self._edge_starts = np.searchsorted(edge_block, np.arange(core_k + 1))
        edge_counts = np.diff(self._edge_starts)
        sizes = core_sizes
        complete = 2 * edge_counts == core_sizes * (core_sizes - 1)
        if self._fold:  # every pendant block's K2 in its place in block order
            sizes = np.full(k, 2, dtype=np.int64)
            sizes[~pendant] = core_sizes
            core_complete, complete = complete, pendant.copy()
            complete[~pendant] = core_complete
            self._pendant_rows = np.repeat(pendant, sizes)
        # rows of the leaf sums: every block's quotient vertices in block order
        self._rows = np.concatenate(([0], np.cumsum(sizes)))
        self.sizes = tuple(sizes.tolist())
        self.complete = tuple(complete.tolist())

    @property
    def partial_hamming(self) -> bool:
        """Every block quotient is complete; over the theta*-classes this is
        exactly the partial Hamming graphs."""
        return all(self.complete)

    def quotient_edges(self, i: int) -> np.ndarray:
        """The edges (lo, hi) of G/F_i as an array of rows, sorted."""
        c = self._core_block[i]
        if c < 0:
            return np.array([[0, 1]], dtype=np.int64)
        span = slice(self._edge_starts[c], self._edge_starts[c + 1])
        ends = np.stack((self._edge_lo[span], self._edge_hi[span]), axis=1)
        return ends - self._starts[c]

    def _folded(self, columns: Sequence[list[int]], dtype: type) -> np.ndarray:
        """The weight columns as an n x len(columns) array, folded into the
        core along the peel order: every pendant vertex holds the sum of its
        subtree and every core vertex its own subtree's."""
        if self._fold:
            columns = [list(col) for col in columns]
            for col in columns:
                for v, p in self._fold:
                    col[p] += col[v]
        return np.array(columns, dtype=dtype).T

    def _leaf_sums(self, weights: np.ndarray, totals: list[int]) -> np.ndarray:
        """Component sums of the folded weight columns on every quotient,
        one row per quotient vertex in block order.

        The core weights are replayed through the level maps.  A pendant
        block's rows are S and T - S, with S the sums over the subtree below
        its edge and T the column totals.
        """
        sums = weights[self._core_vertices]
        for count, labels in self._maps:
            merged = np.zeros((count, sums.shape[1]), dtype=weights.dtype)
            np.add.at(merged, labels[0::2], sums)
            np.add.at(merged, labels[1::2], sums)
            sums = merged
        sums = sums[self._order[: self._starts[-1]]]
        if not self._fold:
            return sums
        rows = np.empty((self._rows[-1], weights.shape[1]), dtype=weights.dtype)
        rows[~self._pendant_rows] = sums
        below = weights[self._pendant_vertex]
        above = np.array(totals, dtype=weights.dtype) - below
        rows[self._pendant_rows] = np.stack((below, above), axis=1).reshape(-1, weights.shape[1])
        return rows

    def block_values(
        self, terms: Sequence[Term], *, closed: bool = False
    ) -> list[tuple[Weight, ...]]:
        """Per block, every term on the quotient with component-summed weights.

        A complete quotient (distance 1 between all components) takes the
        closed sums W(a, b) = T_a T_b - sum_c A_c B_c and
        W*(a) = (T_a^2 - sum_c A_c^2) / 2, with T the weight totals and A, B
        the component sums; the sums over c run for every complete block at
        once.  A pendant edge's K2 has the sides S(v) and T - S(v), with S(v)
        the sums over the subtree below it, so W(a, b) is
        S_a(v) (T_b - S_b(v)) + (T_a - S_a(v)) S_b(v).  Any other quotient
        takes a distance matrix D, with W(a, b) = sum_u A_u (D B)_u and one
        D B product per distinct B.  When the engine ran theta* itself, the
        largest such quotient takes none of its own: the core blocks sum to
        sum_{u,v} a'_u b'_v d(u, v) over the 2-core, with a' and b' the
        weights folded onto it, so one D B on theta*'s core matrix gives the
        sum, and the block is the sum minus every other core block.  Every
        other non-complete quotient gets its own matrix.  ``closed`` applies
        the closed sums to every quotient, which gives the partial-Hamming
        lower bound instead of the exact value.

        Exact for int and Fraction weights (:mod:`topocut.exact`): the sums
        and D B pass the bound (n - 1) sum|w| to the int64 guard, the closed
        sums also sum|a| sum|b|; D B casts D to the guard's dtype one chunk
        of rows at a time, and every value leaves numpy by ``tolist`` before
        it meets a weight.
        """
        slots: dict[tuple[Weight, ...], int] = {}
        pairs = []
        for a, b in terms:
            i = slots.setdefault(tuple(a), len(slots))
            j = i if b is None else slots.setdefault(tuple(b), len(slots))
            pairs.append((i, j, b is None))
        scaled, scales, fractional = zip(*map(_scaled, slots))
        bounds = [sum(map(abs, w)) for w in scaled]
        # distances are at most n - 1: this bounds every component and
        # subtree sum and every entry of D B
        sum_bound = max(self.g.n - 1, 1) * max(bounds)
        dtype = _exact_dtype(sum_bound)
        totals = [sum(w) for w in scaled]
        weights = self._folded(scaled, dtype)
        agg = self._leaf_sums(weights, totals)
        sizes = np.array(self.sizes, dtype=np.int64)
        chosen = np.ones(len(sizes), dtype=bool) if closed else np.array(self.complete, dtype=bool)
        values: list[list[int]] = [[] for _ in sizes]
        # closed sums over the chosen blocks at once, one segment per block
        if chosen.any():
            rows = agg[np.repeat(chosen, sizes)]
            seams = np.cumsum(sizes[chosen]) - sizes[chosen]
            blocks = np.flatnonzero(chosen).tolist()
            for i, j, _ in pairs:
                exact = _exact_dtype(max(sum_bound, bounds[i] * bounds[j]))
                a, b = (rows[:, c].astype(exact) for c in (i, j))
                within = np.add.reduceat(a * b, seams).tolist()
                for block, s in zip(blocks, within):
                    values[block].append(totals[i] * totals[j] - s)
        others = np.flatnonzero(~chosen)
        largest = None
        if self._core_distances is not None and others.size:
            largest = int(others[np.argmax(sizes[others])])
        for block in others.tolist():
            if block == largest:
                continue
            # quotient edges are unique, (lo, hi)-ordered and connect the
            # quotient whenever G is connected
            quotient = Graph(self.sizes[block], self.quotient_edges(block),
                             require_connected=False, validate=not self.g.connected)
            part = agg[self._rows[block]:self._rows[block + 1]]
            values[block] = _distance_sums(distance_matrix(quotient), part, pairs)
        if largest is not None:
            core = _distance_sums(self._core_distances, weights[self.g.peel.core], pairs)
            core_blocks = np.flatnonzero(self._core_block >= 0).tolist()
            rest = [values[b] for b in core_blocks if b != largest]
            values[largest] = [c - sum(r[t] for r in rest) for t, c in enumerate(core)]
        # W*(a) is W(a, a) / 2 in both kernels
        divisors = [(1 + half, scales[i] * scales[j], fractional[i] or fractional[j])
                    for i, j, half in pairs]
        return [tuple(_exact_quotient(v, *d) for v, d in zip(row, divisors)) for row in values]

    def values(self, terms: Sequence[Term], *, closed: bool = False) -> list[Weight]:
        """Every term summed over the blocks."""
        totals: list[Weight] = [0] * len(terms)
        for row in self.block_values(terms, closed=closed):
            totals = [t + v for t, v in zip(totals, row)]
        return totals


def _distance_sums(
    dist: np.ndarray, weights: np.ndarray, pairs: Sequence[tuple[int, int, bool]]
) -> list[int]:
    """sum_u A_u (D B)_u for every pair (i, j, _), with A and B the columns
    i and j of ``weights`` and D the distance matrix ``dist``; D B is formed
    once per distinct column j, in the dtype of ``weights``."""
    rights = sorted({j for _, j, _ in pairs})
    right = weights[:, rights]
    products = np.empty(right.shape, dtype=weights.dtype)
    for lo in range(0, len(dist), ROW_CHUNK):  # never a whole int64 or object copy of D
        products[lo:lo + ROW_CHUNK] = dist[lo:lo + ROW_CHUNK].astype(weights.dtype) @ right
    by_column = dict(zip(rights, products.T.tolist()))
    cols = weights.T.tolist()
    return [sum(map(mul, cols[i], by_column[j])) for i, j, _ in pairs]


def wiener_weighted_via_cuts(
    g: Graph, w: Sequence[Weight], partition: EdgePartition
) -> Weight:
    """Product-weighted Wiener index as a sum over quotient graphs: the sum
    of W*(G/F_i, w_i) with w_i the component sums of w."""
    check_weights(g, w)
    return CutEngine(g, partition).values([(w, None)])[0]


def wiener_double_via_cuts(dwg: DoubleWeightedGraph, partition: EdgePartition) -> Weight:
    """Double-weighted Wiener index as a sum over quotient graphs: the sum
    of W(G/F_i, a_i, b_i) with component-aggregated weights."""
    return CutEngine(dwg.g, partition).values([(dwg.a, dwg.b)])[0]


def degree_distance_via_cuts(g: Graph, partition: EdgePartition) -> int:
    """Degree distance via quotients: weights a = degrees, b = 1."""
    if g.n == 1:
        return 0
    return CutEngine(g, partition).values([index_terms(g)["degree_distance"]])[0]


def is_partial_cube(g: Graph, classes: ThetaClasses | None = None) -> bool:
    """True iff every theta*-class quotient is K2: the partial Hamming graphs
    whose quotients are all K2 (P. Winkler, Discrete Appl. Math. 7, 1984)."""
    return all(size == 2 for size in CutEngine(g, classes=classes).sizes)


def partial_cube_double_wiener(dwg: DoubleWeightedGraph) -> Weight:
    """Double-weighted Wiener index of a partial cube from its theta-classes.

    Each class deletion leaves exactly two sides, so every class quotient is
    K2 and the index is the sum of A_1 B_2 + A_2 B_1 over classes, where
    A_j, B_j are the side totals of the two weight vectors.  One cut engine
    serves the partial-cube test and the sum.
    """
    engine = CutEngine(dwg.g)
    if any(size != 2 for size in engine.sizes):
        raise NotPartialCubeError("graph is not a partial cube")
    return engine.values([(dwg.a, dwg.b)])[0]
