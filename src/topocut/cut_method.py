"""Index computation from quotient graphs over a coarser edge partition.

For a partition {F_1, ..., F_r} of the edge set into unions of whole
theta*-classes, distances decompose as
d(u,v) = sum_i d_{G/F_i}(l_i(u), l_i(v)), and consequently every weighted
Wiener variant decomposes into a sum of the same variant over the (small)
quotient graphs with component-aggregated weights.

Every index is a weight pair: W(a, b) = sum over ordered vertex pairs of
a(u) b(v) d(u,v), and W*(a) = W(a, a) / 2.  :class:`CutEngine` builds the
partition and each block's quotient once and evaluates every requested pair
on each quotient in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

from .graph import Graph, GraphError, degree_vector, distance_matrix
from .indices import (
    DoubleWeightedGraph,
    Weight,
    check_weights,
    pairwise_mixed_sum,
    pairwise_product_sum,
)
from .theta import (
    EdgePartition,
    NotPartialCubeError,
    PartitionError,
    ThetaClasses,
    is_partial_cube,
    quotient,
    theta_star_classes,
    validate_coarser,
)

# A term (a, b) is W(a, b); (a, None) is W*(a) = W(a, a) / 2.
Term = tuple[Sequence[Weight], Sequence[Weight] | None]

# Integer kernels run in int64 only while (n - 1) * sum|w| stays below this,
# which bounds every aggregated weight and every entry of D @ B (quotient
# distances are at most n - 1); past it they run on Python ints.
_INT64_LIMIT = 1 << 62


def index_terms(
    g: Graph, a: Sequence[Weight] | None = None, b: Sequence[Weight] | None = None
) -> dict[str, Term]:
    """The reported indices as weight pairs, in report order.

    W = W*(1), DD = W(deg, 1), Gut = W*(deg); with vertex weights also
    W*(a), W+(a) = W(a, 1) and W(a, b).
    """
    ones = (1,) * g.n
    degs = degree_vector(g)
    terms: dict[str, Term] = {
        "wiener": (ones, None),
        "degree_distance": (degs, ones),
        "gutman": (degs, None),
    }
    if a is not None:
        terms["wiener_weighted"] = (a, None)
        terms["wiener_plus"] = (a, ones)
        terms["wiener_double"] = (a, b)
    return terms


def _check_partition(g: Graph, partition: EdgePartition) -> None:
    total = sum(len(b) for b in partition.blocks)
    if total != g.m:
        raise PartitionError(
            f"partition covers {total} edges but the graph has {g.m}"
        )


def _scaled(w: Sequence[Weight]) -> tuple[list[int], int, bool]:
    """Integer weights w * L with L the LCM of the denominators, L, and
    whether some weight is a Fraction (even a whole-valued one)."""
    denominators = [x.denominator for x in w if isinstance(x, Fraction)]
    scale = lcm(*denominators)
    if scale == 1:
        return [int(x) for x in w], 1, bool(denominators)
    return [int(x * scale) for x in w], scale, True


class CutEngine:
    """An edge partition of one graph with every block's quotient built once.

    Without ``partition`` the blocks are the theta*-classes: theta* runs
    once (or ``classes`` is used) and the partition is validated once.
    """

    def __init__(
        self,
        g: Graph,
        partition: EdgePartition | None = None,
        classes: ThetaClasses | None = None,
    ):
        if partition is None:
            if classes is None:
                classes = theta_star_classes(g)
            partition = validate_coarser(g, classes.classes, classes)
        else:
            _check_partition(g, partition)
        self.g = g
        self.partition = partition
        self.quotients = tuple(quotient(g, block) for block in partition.blocks)
        self.complete = tuple(
            2 * q.graph.m == q.graph.n * (q.graph.n - 1) for q in self.quotients
        )

    @property
    def partial_hamming(self) -> bool:
        """Every block quotient is complete; over the theta*-classes this is
        exactly the partial Hamming graphs."""
        return all(self.complete)

    def block_values(
        self, terms: Sequence[Term], *, closed: bool = False
    ) -> list[tuple[Weight, ...]]:
        """Per block, every term on the quotient with component-summed weights.

        A complete quotient (distance 1 between all components) takes the
        closed pair sums; any other takes one distance matrix D, with
        W(a, b) = sum_u A_u (D B)_u and one D B product per distinct B.
        ``closed`` applies the pair sums to every quotient, which gives the
        partial-Hamming lower bound instead of the exact value.

        Exact for int and Fraction weights: each weight vector is scaled to
        integers by the LCM of its denominators and the result divided back,
        a Fraction whenever some weight of the term is one, as in the
        oracle's sums;
        numpy's int64 is used only under ``_INT64_LIMIT``, object arrays of
        Python ints otherwise, and every value leaves numpy by ``tolist``
        before it meets a weight.
        """
        slots: dict[tuple[Weight, ...], int] = {}
        pairs = []
        for a, b in terms:
            i = slots.setdefault(tuple(a), len(slots))
            j = i if b is None else slots.setdefault(tuple(b), len(slots))
            pairs.append((i, j, b is None))
        scaled, scales, fractional = zip(*map(_scaled, slots))
        total = max(sum(map(abs, w)) for w in scaled)
        dtype = np.int64 if max(self.g.n - 1, 1) * total < _INT64_LIMIT else object
        weights = np.array(scaled, dtype=dtype).T
        rights = sorted({j for _, j, _ in pairs})
        out = []
        for q, complete in zip(self.quotients, self.complete):
            agg = np.zeros((q.graph.n, len(scaled)), dtype=dtype)
            np.add.at(agg, np.array(q.component_of), weights)
            cols = agg.T.tolist()
            if closed or complete:
                values = [
                    pairwise_product_sum(cols[i]) if half
                    else pairwise_mixed_sum(cols[i], cols[j])
                    for i, j, half in pairs
                ]
                halves = [1] * len(pairs)
            else:
                dist = distance_matrix(q.graph).astype(dtype)
                products = dict(zip(rights, (dist @ agg[:, rights]).T.tolist()))
                values = [sum(map(mul, cols[i], products[j])) for i, j, _ in pairs]
                halves = [2 if half else 1 for _, _, half in pairs]
            out.append(tuple(
                _exact_quotient(v, h, scales[i] * scales[j], fractional[i] or fractional[j])
                for v, h, (i, j, _) in zip(values, halves, pairs)
            ))
        return out

    def values(self, terms: Sequence[Term], *, closed: bool = False) -> list[Weight]:
        """Every term summed over the blocks."""
        totals: list[Weight] = [0] * len(terms)
        for row in self.block_values(terms, closed=closed):
            totals = [t + v for t, v in zip(totals, row)]
        return totals


def _exact_quotient(value: int, half: int, scale: int, fraction: bool) -> Weight:
    """value / (half * scale): an int for integer weights (x^T D x is even),
    a Fraction when some weight was a Fraction."""
    if not fraction:
        return value // half
    return Fraction(value, half * scale)


def distance_matrix_via_quotients(g: Graph, partition: EdgePartition) -> np.ndarray:
    """All-pairs distances recovered as sums of quotient distances: each
    block's quotient and its distance matrix are built once."""
    total = np.zeros((g.n, g.n), dtype=np.int64)
    for q in CutEngine(g, partition).quotients:
        comp = np.array(q.component_of)
        total += distance_matrix(q.graph)[np.ix_(comp, comp)]
    return total


def distance_via_quotients(
    g: Graph, partition: EdgePartition, u: int, v: int
) -> int:
    """d(u,v) recovered as the sum of quotient distances over the blocks."""
    _check_partition(g, partition)
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex pair ({u}, {v}) out of range")
    return int(distance_matrix_via_quotients(g, partition)[u, v])


def wiener_weighted_block_values(
    g: Graph, w: Sequence[Weight], partition: EdgePartition
) -> list[Weight]:
    """Per-block W*(G/F_i, w_i) with w_i the component sums of w."""
    check_weights(g, w)
    return [v for (v,) in CutEngine(g, partition).block_values([(w, None)])]


def wiener_weighted_via_cuts(
    g: Graph, w: Sequence[Weight], partition: EdgePartition
) -> Weight:
    """Product-weighted Wiener index as a sum over quotient graphs."""
    return sum(wiener_weighted_block_values(g, w, partition))


def wiener_double_block_values(
    dwg: DoubleWeightedGraph, partition: EdgePartition
) -> list[Weight]:
    """Per-block W(G/F_i, a_i, b_i) with component-aggregated weights."""
    return [v for (v,) in CutEngine(dwg.g, partition).block_values([(dwg.a, dwg.b)])]


def wiener_double_via_cuts(dwg: DoubleWeightedGraph, partition: EdgePartition) -> Weight:
    """Double-weighted Wiener index as a sum over quotient graphs."""
    return sum(wiener_double_block_values(dwg, partition))


def degree_distance_via_cuts(g: Graph, partition: EdgePartition) -> int:
    """Degree distance via quotients: weights a = degrees, b = 1."""
    if g.n == 1:
        return 0
    return CutEngine(g, partition).values([index_terms(g)["degree_distance"]])[0]


def partial_cube_double_wiener(dwg: DoubleWeightedGraph) -> Weight:
    """Double-weighted Wiener index of a partial cube from its theta-classes.

    Each class deletion leaves exactly two sides, so every class quotient is
    K2 and the index is the sum of A_1 B_2 + A_2 B_1 over classes, where
    A_j, B_j are the side totals of the two weight vectors.  One distance
    matrix serves theta* and the partial-cube test.
    """
    g = dwg.g
    d = distance_matrix(g)
    classes = theta_star_classes(g, d)
    if not is_partial_cube(g, classes, d):
        raise NotPartialCubeError("graph is not a partial cube")
    return CutEngine(g, classes=classes).values([(dwg.a, dwg.b)])[0]
