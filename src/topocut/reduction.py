"""Collapse vertices with identical neighbourhoods, tracking the exact
effect on the weighted Wiener indices.

Vertices with the same open neighbourhood (R-classes) sit at mutual distance
two; vertices with the same closed neighbourhood (S-classes) at distance one.
Collapsing a class onto one representative with summed weights changes the
double-weighted Wiener index by an explicitly computable correction, so
large instances shrink without losing exactness.  Which vertices collapse
depends only on the graph: :func:`collapse_plan` finds them once, and
:meth:`CollapsePlan.apply` maps any number of weight pairs through it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, GraphError
from .indices import DoubleWeightedGraph, Weight, WeightedGraph
from .indices import pairwise_mixed_sum, pairwise_product_sum


@dataclass(frozen=True)
class ReductionStep:
    """One collapse performed by :func:`reduce_fully`.

    ``members`` and ``representative`` are vertex indices in the graph as it
    was just before this step; ``correction`` is the exact amount added to
    the running total for the index variant being reduced.
    """

    kind: str  # "R" (open neighbourhoods) or "S" (closed neighbourhoods)
    members: tuple[int, ...]
    representative: int
    correction: Weight


# The neighbourhood that makes twins, from the adjacency tuples: open N(v)
# for R, closed N[v] for S.
_KEY = {
    "R": lambda adj, v: adj[v],
    "S": lambda adj, v: tuple(sorted(adj[v] + (v,))),
}


def _classes(g: Graph, kind: str) -> tuple[tuple[int, ...], ...]:
    key, adj = _KEY[kind], g.adj
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(key(adj, v), []).append(v)
    # a group enters the dict at its smallest member, so this is that order
    return tuple(map(tuple, groups.values()))


def r_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of N(x) = N(y), ordered by smallest member."""
    return _classes(g, "R")


def s_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of N[x] = N[y], ordered by smallest member."""
    return _classes(g, "S")


def _collapse(g: Graph, drop: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Delete ``drop``; return the reindexed graph and the kept old labels.
    Each dropped vertex has a kept twin, so the graph stays connected; the
    monotone reindexing keeps edges (min, max)-ordered."""
    kept = np.ones(g.n, dtype=bool)
    kept[list(drop)] = False
    new_of = np.cumsum(kept) - 1
    ends = g.edge_array
    edges = new_of[ends[kept[ends].all(axis=1)]]
    keep = tuple(np.flatnonzero(kept).tolist())
    return Graph(len(keep), edges, validate=False), keep


@dataclass(frozen=True)
class CollapsePlan:
    """The weight-free R/S collapse sequence of one graph.

    ``graph`` is the fully reduced graph.  Each phase is (kind, classes,
    keep): its nontrivial classes in the labels the phase started from,
    representative first, and the labels it keeps.  ``steps`` is (kind,
    members, representative) for every collapse, in the labels the graph had
    just before that collapse.
    """

    graph: Graph
    phases: tuple[tuple[str, tuple[tuple[int, ...], ...], tuple[int, ...]], ...]
    steps: tuple[tuple[str, tuple[int, ...], int], ...]

    def apply(
        self, a: Sequence[Weight], b: Sequence[Weight] | None = None
    ) -> tuple[tuple[Weight, ...], tuple[Weight, ...] | None, tuple[Weight, ...]]:
        """Reduced weights of W(a, b), or of W*(a) when ``b`` is None, and
        each step's correction: the input's index is the reduced one plus
        the corrections.  A class collapses onto its first member, which
        takes the member sums, and adds f sum (a_i b_j + a_j b_i) over member
        pairs (f sum a_i a_j for W*), with f = 2 for R and 1 for S."""
        corrections: list[Weight] = []
        for kind, classes, keep in self.phases:
            f = 2 if kind == "R" else 1  # the members' mutual distance
            a, b = list(a), (None if b is None else list(b))
            for cls in classes:  # disjoint: each reads phase-start weights
                if b is None:  # W*(a) = W(a, a) / 2
                    corr = pairwise_product_sum([a[x] for x in cls])
                else:
                    corr = pairwise_mixed_sum([a[x] for x in cls], [b[x] for x in cls])
                    b[cls[0]] = sum(b[x] for x in cls)
                corrections.append(f * corr)
                a[cls[0]] = sum(a[x] for x in cls)
            a = [a[v] for v in keep]
            b = None if b is None else [b[v] for v in keep]
        return tuple(a), (None if b is None else tuple(b)), tuple(corrections)

    def log(self, corrections: Sequence[Weight]) -> tuple[ReductionStep, ...]:
        """The step log with one weight pair's corrections."""
        return tuple(ReductionStep(*step, c) for step, c in zip(self.steps, corrections))


def collapse_plan(g: Graph) -> CollapsePlan:
    """Collapse R- then S-classes, alternating, to a fixed point.

    Each phase scans the classes of one kind once and collapses every
    nontrivial class at once.  That is exact.  Take an R-class {c, x, ...}
    and delete x: only vertices y in N(x) = N(c) lose a neighbour.  For y
    and z with N(y) = N(z), x in N(y) iff c in N(y) iff x in N(z), so no
    class splits.  Nor do two merge: if N(y) and N(z) differed only in x,
    with x in N(y), then y in N(x) = N(c) puts c in N(y), hence in N(z),
    and z in N(c) = N(x) puts x in N(z).  The same holds for S-classes with
    N[.].  So one scan finds exactly the classes that a collapse-one-and-
    rescan loop finds one at a time, in the same order (by smallest member),
    and leaves its kind clean.  Phases stop once both kinds are clean.
    """
    if not g.connected:
        raise GraphError("twin reductions need a connected graph")
    phases, steps = [], []
    kind, clean = "R", 0
    while clean < 2:
        scan = r_classes(g) if kind == "R" else s_classes(g)
        classes = tuple(c for c in scan if len(c) > 1)
        if classes:
            dropped: list[int] = []  # this phase's drops so far, ascending
            for cls in classes:
                members = tuple(x - bisect_left(dropped, x) for x in cls)
                steps.append((kind, members, members[0]))
                for x in cls[1:]:
                    insort(dropped, x)
            g, keep = _collapse(g, dropped)
            phases.append((kind, classes, keep))
        clean = 1 if classes else clean + 1  # a phase leaves its own kind clean
        kind = "S" if kind == "R" else "R"
    return CollapsePlan(g, tuple(phases), tuple(steps))


def reduce_fully(
    dwg: DoubleWeightedGraph, plan: CollapsePlan | None = None
) -> tuple[DoubleWeightedGraph, Weight, tuple[ReductionStep, ...]]:
    """Collapse R- and S-classes to a fixed point (see :func:`collapse_plan`).

    Returns the reduced graph, the total correction, and the step log;
    the double-weighted Wiener index of the input equals that of the output
    plus the total correction.  ``plan`` reuses a plan of ``dwg.g``.
    """
    if plan is None:
        plan = collapse_plan(dwg.g)
    a, b, corrections = plan.apply(dwg.a, dwg.b)
    return DoubleWeightedGraph(plan.graph, a, b), sum(corrections), plan.log(corrections)


def reduce_fully_single(
    wg: WeightedGraph,
) -> tuple[WeightedGraph, Weight, tuple[ReductionStep, ...]]:
    """Single-weight analogue of :func:`reduce_fully`, for W*(w)."""
    plan = collapse_plan(wg.g)
    w, _, corrections = plan.apply(wg.w)
    return WeightedGraph(plan.graph, w), sum(corrections), plan.log(corrections)


def _reduce_once(wgraph, c: int, kind: str):
    g = wgraph.g
    if not 0 <= c < g.n:
        raise GraphError(f"vertex {c} out of range")
    key, adj = _KEY[kind], g.adj
    mine = key(adj, c)
    twins = tuple(v for v in range(g.n) if v != c and key(adj, v) == mine)
    if not twins:
        return wgraph, 0
    reduced, keep = _collapse(g, twins)
    plan = CollapsePlan(reduced, ((kind, ((c, *twins),), keep),), ((kind, (c, *twins), c),))
    if isinstance(wgraph, WeightedGraph):
        w, _, (corr,) = plan.apply(wgraph.w)
        return WeightedGraph(reduced, w), corr
    a, b, (corr,) = plan.apply(wgraph.a, wgraph.b)
    return DoubleWeightedGraph(reduced, a, b), corr


def reduce_once_r(wgraph, c: int):
    """Collapse the R-class of c onto c (see :meth:`CollapsePlan.apply`)."""
    return _reduce_once(wgraph, c, "R")


def reduce_once_s(wgraph, c: int):
    """Collapse the S-class of c onto c (see :meth:`CollapsePlan.apply`)."""
    return _reduce_once(wgraph, c, "S")


# On a WeightedGraph the same functions collapse W*(w).
reduce_once_r_single = reduce_once_r
reduce_once_s_single = reduce_once_s
