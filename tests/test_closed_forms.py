"""Closed forms of W, DD and Gut, held to the oracle at small sizes and then
used to check each route at sizes the oracle cannot reach.

A uniform weight c scales every weighted index by a closed factor:
W*(c) = c^2 W, W+(c) = 2c W and W(c, c + 2) = 2c(c + 2) W.  With c just
past 2^31, W*(c) passes 2^63 on every input below, so each route's sums
leave the int64 range.  With c just below 2^62, an int or c/3 as a
Fraction, the weights themselves are past the table reader's 2^60: the
token-line reader reads them into object arrays, and every sum is past
int64 from the first product.
"""

import json
from fractions import Fraction

import pytest

from topocut.cli import main
from topocut.families import (
    complete_bipartite_graph, cycle_graph, gen_phenylene_chain, hypercube_graph,
)
from topocut.indices import degree_distance, gutman, wiener
from topocut.phenylene import build_phenylene

C = 2**31 + 11
C62 = 2**62 - 57  # not a multiple of 3


def bipartite_forms(p, q):
    w = p * q + p * (p - 1) + q * (q - 1)
    return w, p * q * (3 * p + 3 * q - 4), p * q * (3 * p * q - p - q)


def hypercube_forms(d):
    w = d * 4 ** (d - 1)
    return w, 2 * d * w, d * d * w


def cycle_forms(n):
    w = n**3 // 8 if n % 2 == 0 else n * (n * n - 1) // 8
    return w, 4 * w, 4 * w


def chain_forms(h):
    """The linear phenylene chain of h hexagons."""
    return 9 * h * h * (2 * h + 1), 12 * h * h * (8 * h + 1), 4 * h * (32 * h * h - 8 * h + 3)


def oracle(g):
    return wiener(g), degree_distance(g), gutman(g)


def test_closed_forms_match_the_oracle():
    for p in range(1, 6):
        for q in range(1, 6):
            assert oracle(complete_bipartite_graph(p, q)) == bipartite_forms(p, q), (p, q)
    for d in range(1, 7):
        assert oracle(hypercube_graph(d)) == hypercube_forms(d), d
    for n in range(3, 30):
        assert oracle(cycle_graph(n)) == cycle_forms(n), n
    for h in range(1, 10):
        assert oracle(build_phenylene(gen_phenylene_chain(h)).graph) == chain_forms(h), h


@pytest.mark.parametrize("source, n, forms, method", [
    (["--family", "complete_bipartite", "--n", "300,400", "--method", "reduce"], 700,
     bipartite_forms(300, 400), "reduce"),
    (["--family", "hypercube", "--n", "10"], 1024, hypercube_forms(10), "hamming"),
    # vertex 0's eccentricity 1000 sends the distances to Dijkstra
    (["--family", "cycle", "--n", "2001"], 2001, cycle_forms(2001), "cuts"),
    (["--family", "chain", "--n", "100000"], 600000, chain_forms(10**5), "trees"),
], ids=["bipartite", "hypercube", "cycle", "chain"])
def test_routes_past_int64_match_the_closed_forms(tmp_path, capsys, source, n, forms, method):
    assert_route_matches_the_closed_forms(tmp_path, capsys, source, n, forms, method, C)


@pytest.mark.parametrize("c", [C62, Fraction(C62, 3)], ids=["int", "fraction"])
@pytest.mark.parametrize("source, n, forms, method", [
    (["--family", "complete_bipartite", "--n", "3,4", "--method", "reduce"], 7,
     bipartite_forms(3, 4), "reduce"),
    (["--family", "hypercube", "--n", "4"], 16, hypercube_forms(4), "hamming"),
    (["--family", "cycle", "--n", "9"], 9, cycle_forms(9), "cuts"),
    (["--family", "chain", "--n", "50"], 300, chain_forms(50), "trees"),
], ids=["bipartite", "hypercube", "cycle", "chain"])
def test_routes_near_2_62_match_the_closed_forms(tmp_path, capsys, source, n, forms, method, c):
    assert_route_matches_the_closed_forms(tmp_path, capsys, source, n, forms, method, c)


def assert_route_matches_the_closed_forms(tmp_path, capsys, source, n, forms, method, c):
    """compute --json on ``source`` with the uniform weights a = c, b = c + 2
    against the closed ``forms`` (W, DD, Gut) scaled by c^2, 2c or 2c(c + 2)."""
    weights = tmp_path / "weights.txt"
    weights.write_text("".join(f"{v} {c} {c + 2}\n" for v in range(n)))
    assert main(["compute", *source, "--weights", str(weights), "--json"]) == 0
    r = json.loads(capsys.readouterr().out)
    indices = {k: Fraction(v) if isinstance(v, str) else v for k, v in r["indices"].items()}
    w, dd, gut = forms
    want = {"wiener": w, "degree_distance": dd, "gutman": gut, "wiener_weighted": c * c * w,
            "wiener_plus": 2 * c * w, "wiener_double": 2 * c * (c + 2) * w}
    assert (r["method"], r["n"], indices) == (method, n, want)
    assert all(type(indices[k]) is type(v) for k, v in want.items())
    assert want["wiener_weighted"] > 2**63
