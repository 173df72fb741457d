"""Partial Hamming graphs: detection and the closed lower bound for
product-weighted Wiener indices.

A connected graph embeds isometrically into a Cartesian product of complete
graphs exactly when every quotient by a theta*-class is complete.  For any
weighting, half the sum of w(C) w^c(C) over all classes and their deletion
components bounds the weighted Wiener index from below, with equality
precisely in the partial Hamming case; that turns the bound into an exact
formula there (e.g. for the Gutman index with degree weights).
"""

from __future__ import annotations

from typing import Sequence

from .cut_method import CutEngine, _engine
from .graph import Graph, degree_vector
from .indices import Weight, check_weights
from .theta import ThetaClasses


class NotPartialHammingError(ValueError):
    """Raised by exact-formula routines that require a partial Hamming graph."""


def is_partial_hamming(g: Graph, classes: ThetaClasses | None = None) -> bool:
    """True iff every theta*-class quotient is a complete graph.  Given
    ``classes`` are checked against theta* first."""
    return _engine(g, classes).partial_hamming


def weighted_wiener_lower_bound(
    g: Graph, w: Sequence[Weight], classes: ThetaClasses | None = None
) -> Weight:
    """Half the sum of w(C) w^c(C) over classes and deletion components.

    Always at most the product-weighted Wiener index; equal exactly when the
    graph is partial Hamming.
    """
    check_weights(g, w)
    return _engine(g, classes).values([(w, None)], closed=True)[0]


def gutman_lower_bound(g: Graph) -> int:
    """The lower bound with degree weights; equals Gut(g) on partial Hamming graphs."""
    return CutEngine(g).values([(degree_vector(g), None)], closed=True)[0]


def gutman_exact_hamming(g: Graph) -> int:
    """Gutman index of a partial Hamming graph via the closed sum.

    Theta* still needs all-pairs distances, but no quotient distances are
    computed: every class quotient is complete, so each block is a closed
    pair sum.  Raises if the graph is not partial Hamming (the closed sum
    would undercount).
    """
    engine = CutEngine(g)
    if not engine.partial_hamming:
        raise NotPartialHammingError("graph is not a partial Hamming graph")
    return engine.values([(degree_vector(g), None)])[0]
