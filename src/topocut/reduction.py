"""Collapse vertices with identical neighbourhoods, tracking the exact
effect on the weighted Wiener indices.

Vertices with the same open neighbourhood (R-classes) sit at mutual distance
two; vertices with the same closed neighbourhood (S-classes) at distance one.
Collapsing a class onto one representative with summed weights changes the
double-weighted Wiener index by an explicitly computable correction, so
large instances shrink without losing exactness.  Which vertices collapse
depends only on the graph: :func:`collapse_plan` finds them once on the edge
arrays (hashed rows, verified elementwise), and
:meth:`CollapsePlan.apply_rows` maps the rows of one scaled weight matrix
and any number of weight pairs through it with segment sums under the int64
guard of :mod:`topocut.exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .cut_method import Pair, term_pairs
from .exact import Weights, _exact_dtype, _exact_quotient
from .graph import Graph, GraphError
from .indices import DoubleWeightedGraph, Weight, WeightedGraph


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


def _vertex_keys(n: int, attempt: int) -> np.ndarray:
    """Fixed-seed uint64 keys of 0..n-1: splitmix64 of attempt * 2^32 + v."""
    z = np.arange(n, dtype=np.uint64) + np.uint64(((attempt << 32) + 0x9E3779B97F4A7C15) % (1 << 64))
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  # uint64 arrays wrap mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _twin_labels(n: int, ends: np.ndarray, closed: bool) -> np.ndarray:
    """Each vertex's class of equal open (``closed``: closed) neighbourhoods,
    named by its smallest member.

    The rows are the sorted codes tail * n + head, with the loops v * n + v
    when closed.  A row's hash is the sum of its vertices' keys mod 2^64;
    one ``lexsort`` groups the unsettled vertices by (degree, hash), and each
    is compared elementwise with its group's smallest vertex.  Those equal
    to it are its class; the rest are grouped again under fresh keys.  Each
    round settles every group's smallest vertex with its whole class, so
    the classes are exact whatever the keys.
    """
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    if closed:
        tail, head = np.concatenate((tail, np.arange(n))), np.concatenate((head, np.arange(n)))
    codes = np.sort(tail * n + head)
    row = codes // n
    heads = codes - row * n
    degree = np.bincount(row, minlength=n)
    starts = np.cumsum(degree) - degree
    position, filled = np.arange(codes.size), np.flatnonzero(degree)
    labels, todo, attempt = np.arange(n), np.arange(n), 0
    while todo.size:
        hashed = np.zeros(n, dtype=np.uint64)
        if filled.size:
            hashed[filled] = np.add.reduceat(_vertex_keys(n, attempt)[heads], starts[filled])
        order = todo[np.lexsort((hashed[todo], degree[todo]))]  # stable: ascending in a group
        d, h = degree[order], hashed[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
        candidate = labels.copy()  # a settled vertex's row equals its label's
        candidate[order] = order[np.flatnonzero(new)[np.cumsum(new) - 1]]
        shift = starts[candidate] - starts  # each entry against its candidate's
        differs = np.zeros(n, dtype=bool)
        differs[row[heads != heads[position + shift[row]]]] = True
        unsettled = differs[todo]
        settled = todo[~unsettled]
        labels[settled] = candidate[settled]
        todo, attempt = todo[unsettled], attempt + 1
    return labels


def _by_class(labels: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``vertices`` by class (by smallest member), ascending within each,
    and where each class starts."""
    vertices = vertices[np.argsort(labels[vertices], kind="stable")]
    return vertices, np.flatnonzero(np.diff(labels[vertices], prepend=-1))


def _classes(g: Graph, closed: bool) -> tuple[tuple[int, ...], ...]:
    order, starts = _by_class(_twin_labels(g.n, g.edge_array, closed), np.arange(g.n))
    return tuple(tuple(c.tolist()) for c in np.split(order, starts[1:]))


def r_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of N(x) = N(y), ordered by smallest member."""
    return _classes(g, False)


def s_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of N[x] = N[y], ordered by smallest member."""
    return _classes(g, True)


def _collapse(ends: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The edges left without the vertices outside ``kept``, relabelled
    monotonically, so still (min, max)-ordered.  Each dropped vertex has a
    kept twin, so the graph stays connected."""
    return (np.cumsum(kept) - 1)[ends[kept[ends].all(axis=1)]]


# A phase: (kind, members by class with the representative first, each
# class's start in members, the kept mask), in the phase's starting labels.
Phase = tuple[str, np.ndarray, np.ndarray, np.ndarray]


def step_corrections(
    weights: Weights, pair: Pair, corrections: np.ndarray, typed: np.ndarray | None
) -> tuple[Weight, ...]:
    """One pair's corrections of :meth:`CollapsePlan.apply_rows`, each
    divided back on its own: a Fraction iff one of its terms was."""
    i, j, half = pair
    divisor = (1 + half) * weights.scales[i] * weights.scales[j]
    flags = [False] * len(corrections) if typed is None else typed.tolist()
    return tuple(_exact_quotient(v, divisor, 1, f) for v, f in zip(corrections.tolist(), flags))


@dataclass(frozen=True, eq=False)  # arrays: compared and hashed by identity
class CollapsePlan:
    """The weight-free R/S collapse sequence of one graph.

    ``graph`` is the fully reduced graph and ``arrays`` one :data:`Phase`
    per phase, in the labels the phase started from.  Built on first use:
    ``steps``, (kind, members, representative) per collapse in the labels
    just before it; and ``step_table``, each step's kind, class size and
    representative.
    """

    graph: Graph
    arrays: tuple[Phase, ...]

    def apply_rows(
        self, weights: Weights, pairs: Sequence[Pair]
    ) -> tuple[Weights, np.ndarray, np.ndarray | None]:
        """Every row of ``weights`` through the collapses, and every pair's
        corrections, all as arrays: the reduced :class:`Weights` (same
        scales), a len(pairs) x steps array of undivided W(a, b) corrections
        (W(a, a) for a halved pair) in the scaled units, and which of them
        are Fractions (None when no weight is).

        A class collapses onto its first member, which takes the member
        sums.  Per phase, ``np.add.reduceat`` sums every class at once; the
        corrections are f (sum a sum b - sum a_i b_i), with f = 2 for R and
        1 for S.  The rows run under the int64 guard with the bound
        f sum|a| sum|b|.
        """
        left, right = [i for i, _, _ in pairs], [j for _, j, _ in pairs]
        # f sum|a| sum|b| bounds every correction, sum|a| every weight sum
        top = max((weights.bounds[i] * weights.bounds[j] for i, j, _ in pairs), default=0)
        ws = weights.rows.astype(_exact_dtype(max((2 * top, *weights.bounds))))
        flags = None if weights.fractions is None else weights.fractions.copy()
        corrections, typed = [], []
        for kind, members, starts, kept in self.arrays:
            f = 2 if kind == "R" else 1  # the members' mutual distance
            part = ws[:, members]
            sums = np.add.reduceat(part, starts, axis=1)
            within = np.add.reduceat(part[left] * part[right], starts, axis=1)
            corrections.append(f * (sums[left] * sums[right] - within))
            first = members[starts]
            ws[:, first] = sums
            ws = ws[:, kept]
            if flags is not None:  # a sum is a Fraction iff a term is
                has = np.logical_or.reduceat(flags[:, members], starts, axis=1)
                typed.append(has[left] | has[right])
                flags[:, first] = has
                flags = flags[:, kept]
        reduced = Weights(ws, weights.scales, weights.bounds, flags)
        if not self.arrays:
            return reduced, np.zeros((len(pairs), 0), dtype=ws.dtype), None
        return (
            reduced,
            np.concatenate(corrections, axis=1),
            None if flags is None else np.concatenate(typed, axis=1),
        )

    @cached_property
    def steps(self) -> tuple[tuple[str, tuple[int, ...], int], ...]:
        # member x of class c is renumbered x less the drops of classes c' < c
        # below it, counted at the top bit where c' (0) and c (1) differ
        out = []
        for kind, members, starts, kept in self.arrays:
            n, ends = kept.size, [*starts.tolist(), members.size]
            cls = np.repeat(np.arange(starts.size), np.diff(ends))
            dropped = np.ones(members.size, dtype=bool)
            dropped[starts] = False
            below = np.zeros(members.size, dtype=np.int64)
            for b in range((starts.size - 1).bit_length()):
                high = (cls >> b & 1).astype(bool)
                group = (cls >> b + 1).astype(_exact_dtype(n * n)) * n
                keys = np.sort((group + members)[dropped & ~high])  # one group's drops in a run
                group, ask = group[high], members[high]
                below[high] += np.searchsorted(keys, group + ask) - np.searchsorted(keys, group)
            renumbered = (members - below).tolist()
            out += [(kind, tuple(renumbered[lo:hi]), renumbered[lo])
                    for lo, hi in zip(ends, ends[1:])]
        return tuple(out)

    @cached_property
    def step_table(self) -> tuple[list[str], list[int], list[int]]:
        # classes go by smallest member: the drops before a step are those below it
        kinds, sizes, reps = [], [], []
        for kind, members, starts, kept in self.arrays:
            first = members[starts]
            kinds += [kind] * starts.size
            sizes += np.diff(starts, append=members.size).tolist()
            reps += (first - np.searchsorted(np.flatnonzero(~kept), first)).tolist()
        return kinds, sizes, reps

    def log(self, corrections: Sequence[Weight]) -> tuple[ReductionStep, ...]:
        """The step log with one weight pair's corrections."""
        return tuple(ReductionStep(*step, c) for step, c in zip(self.steps, corrections))


def collapse_plan(g: Graph) -> CollapsePlan:
    """Collapse R- then S-classes, alternating, to a fixed point.

    Each phase finds the classes of one kind once (:func:`_twin_labels`)
    and collapses every nontrivial class at once.  That is exact.  Take an
    R-class {c, x, ...} and delete x: only vertices y in N(x) = N(c) lose a
    neighbour.  For y and z with N(y) = N(z), x in N(y) iff c in N(y) iff
    x in N(z), so no class splits.  Nor do two merge: if N(y) and N(z)
    differed only in x, with x in N(y), then y in N(x) = N(c) puts c in
    N(y), hence in N(z), and z in N(c) = N(x) puts x in N(z).  The same
    holds for S-classes with N[.].  So one scan finds exactly the classes
    that a collapse-one-and-rescan loop finds one at a time, in the same
    order (by smallest member), and leaves its kind clean.  Phases stop once
    both kinds are clean.  Only the reduced graph is built as a Graph.
    """
    n, ends, phases = g.n, g.edge_array, []
    kind, clean = "R", 0
    while clean < 2:
        labels = _twin_labels(n, ends, kind == "S")
        kept = labels == np.arange(n)
        collapses = not kept.all()
        if collapses:
            in_class = np.flatnonzero(np.bincount(labels, minlength=n)[labels] > 1)
            phases.append((kind, *_by_class(labels, in_class), kept))
            n, ends = int(kept.sum()), _collapse(ends, kept)
        clean = 1 if collapses else clean + 1  # a phase leaves its own kind clean
        kind = "S" if kind == "R" else "R"
    return CollapsePlan(Graph(n, ends, validate=False) if phases else g, tuple(phases))


def _reduce(wgraph, plan: CollapsePlan):
    """``wgraph``, a WeightedGraph (W*(w)) or a DoubleWeightedGraph (W(a, b)),
    through ``plan``: the reduced weighted graph and each step's correction."""
    single = isinstance(wgraph, WeightedGraph)
    weights, (pair,) = term_pairs([(wgraph.w, None) if single else (wgraph.a, wgraph.b)])
    reduced, corrections, typed = plan.apply_rows(weights, [pair])
    steps = step_corrections(weights, pair, corrections[0], None if typed is None else typed[0])
    a, b = reduced.values(pair[0]), reduced.values(pair[1])
    out = WeightedGraph(plan.graph, a) if single else DoubleWeightedGraph(plan.graph, a, b)
    return out, steps


def reduce_fully(wgraph):
    """Collapse R- and S-classes to a fixed point (see :func:`collapse_plan`).

    Returns the reduced graph, the total correction, and the step log;
    the index of the input, W(a, b) of a DoubleWeightedGraph or W*(w) of a
    WeightedGraph, equals that of the output plus the total correction.
    """
    plan = collapse_plan(wgraph.g)
    reduced, corrections = _reduce(wgraph, plan)
    return reduced, sum(corrections), plan.log(corrections)


def _reduce_once(wgraph, c: int, kind: str):
    g = wgraph.g
    if not 0 <= c < g.n:
        raise GraphError(f"vertex {c} out of range")
    labels = _twin_labels(g.n, g.edge_array, kind == "S")
    kept = (labels != labels[c]) | (np.arange(g.n) == c)
    if kept.all():
        return wgraph, 0
    members = np.concatenate(([c], np.flatnonzero(~kept)))
    reduced = Graph(int(kept.sum()), _collapse(g.edge_array, kept), validate=False)
    phase = (kind, members, np.zeros(1, dtype=np.intp), kept)
    out, (correction,) = _reduce(wgraph, CollapsePlan(reduced, (phase,)))
    return out, correction


def reduce_once_r(wgraph, c: int):
    """Collapse the R-class of c onto c (see :meth:`CollapsePlan.apply_rows`)."""
    return _reduce_once(wgraph, c, "R")


def reduce_once_s(wgraph, c: int):
    """Collapse the S-class of c onto c (see :meth:`CollapsePlan.apply_rows`)."""
    return _reduce_once(wgraph, c, "S")


# On a WeightedGraph the same functions collapse W*(w).
reduce_fully_single = reduce_fully
