import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import topocut
import topocut.cli as cli
import topocut.cut_method as cut_method_module
import topocut.exact as exact_module
import topocut.graph as graph_module
import topocut.indices as indices_module
import topocut.phenylene as phenylene
import topocut.solve as solve
from topocut.cli import main
from topocut.cut_method import CutEngine
from topocut.exact import weights_of
from topocut.graph import all_pairs_distances, format_edge_list, parse_edge_list
from topocut.families import cycle_graph, gen_phenylene_chain, random_connected_graph
from topocut.indices import (
    DoubleWeightedGraph, degree_distance, gutman, wiener, wiener_double, wiener_plus,
    wiener_weighted,
)
from topocut.phenylene import format_placement

from strategies import connected_graphs, kink_patterns, pendant_graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_oracle_p3(tmp_path, capsys):
    f = tmp_path / "p3.txt"
    f.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, "compute", str(f), "--method", "oracle")
    assert code == 0
    assert "DD" in out and "= 10" in out
    assert "Gut" in out and "= 6" in out


def test_compute_phe6_trees_per_tree_lines(capsys):
    code, out, _ = run(capsys, "compute", "--family", "phe6", "--method", "trees")
    assert code == 0
    assert "DD      = 18384" in out
    assert "Gut     = 22856" in out
    assert out.count("tree=") == 4


def test_compute_house_hamming(capsys):
    code, out, _ = run(
        capsys, "compute", "--family", "house", "--n", "5", "--method", "hamming"
    )
    assert code == 0
    assert "= 956" in out  # 6*125 + 9*25 - 20 + 1


def test_json_round_trips_integers(capsys):
    code, out, _ = run(
        capsys, "compute", "--family", "phe6", "--method", "trees", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"]["degree_distance"] == 18384
    assert payload["indices"]["gutman"] == 22856
    assert all(isinstance(v, int) for v in payload["indices"].values())
    reparsed = json.loads(json.dumps(payload))
    assert reparsed == payload


def test_methods_agree_with_check(tmp_path, capsys):
    g = cycle_graph(6)
    f = tmp_path / "c6.txt"
    f.write_text(format_edge_list(g))
    for method in ("oracle", "cuts", "reduce", "hamming", "auto"):
        code, out, err = run(
            capsys, "compute", str(f), "--method", method, "--check"
        )
        assert code == 0, (method, err)
        assert "DD      = 108" in out


def test_weights_flow_through(tmp_path, capsys):
    f = tmp_path / "k2.txt"
    f.write_text("0 1\n")
    w = tmp_path / "w.txt"
    w.write_text("0 2 1\n1 3 1\n")
    code, out, _ = run(capsys, "compute", str(f), "--weights", str(w), "--method", "oracle", "--json")
    payload = json.loads(out)
    assert payload["indices"]["wiener_weighted"] == 6
    assert payload["indices"]["wiener_plus"] == 5
    assert payload["indices"]["wiener_double"] == 5


def test_classes_c6(capsys):
    code, out, _ = run(capsys, "classes", "--family", "cycle", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["0-1", "3-4"]


def test_quotient_c5(capsys):
    code, out, _ = run(
        capsys, "quotient", "--family", "cycle", "--n", "5", "--class-index", "0"
    )
    assert code == 0
    q = parse_edge_list("\n".join(out.splitlines()))
    assert q.n == 5 and q.m == 5  # quotient of C5 by its single class is C5


def test_quotient_explicit_edges(capsys):
    code, out, _ = run(
        capsys, "quotient", "--family", "cycle", "--n", "6", "--edges", "0-1,3-4"
    )
    assert code == 0
    assert out.startswith("2 1\n")


def test_verify_fixed_and_random(capsys):
    code, out, _ = run(capsys, "verify", "--family", "phe6")
    assert code == 0
    assert "[ok]" in out and "MISMATCH" not in out
    code, out, _ = run(capsys, "verify", "--random", "100", "--max-n", "40", "--seed", "1")
    assert code == 0
    assert "all agree" in out


@pytest.mark.parametrize("argv, flag", [
    (["--random", "0"], "--random"),
    (["--random", "-2"], "--random"),
    (["--random", "3", "--max-n", "2"], "--max-n"),
    (["--random", "3", "--max-n", "3"], "--max-n"),
])
def test_verify_random_bounds_are_usage_errors(argv, flag, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (1, "") and err.startswith(f"usage error: {flag} must be at least")


def test_verify_reports_mismatch(capsys, monkeypatch):
    # force a bogus oracle to exercise the mismatch exit path
    real = solve._oracle_indices

    def bogus(loaded):
        out = real(loaded)
        out["degree_distance"] += 1
        return out

    monkeypatch.setattr(solve, "_oracle_indices", bogus)
    code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "6")
    assert code == 4
    assert "MISMATCH" in out or "MISMATCH" in err


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_oracle_builds_one_distance_table(monkeypatch, weighted):
    # the oracle's indices all read one all-pairs distance table, and each
    # equals its own brute-force definition, value and type
    g = random_connected_graph(12, 20, 1)
    a, b = [Fraction(v + 1, v % 3 + 1) for v in range(g.n)], [v % 4 + 1 for v in range(g.n)]
    want = {"wiener": wiener(g), "degree_distance": degree_distance(g), "gutman": gutman(g)}
    if weighted:
        want.update(wiener_weighted=wiener_weighted(g, a), wiener_plus=wiener_plus(g, a),
                    wiener_double=wiener_double(DoubleWeightedGraph(g, a, b)))
    calls = []

    def counted(graph):
        calls.append(graph)
        return all_pairs_distances(graph)

    for module in [m for name, m in sys.modules.items() if name.startswith("topocut")]:
        if hasattr(module, "all_pairs_distances"):
            monkeypatch.setattr(module, "all_pairs_distances", counted)
    loaded = solve.LoadedInput(g, "g", weights_of([a, b]) if weighted else None)
    got = solve._oracle_indices(loaded)
    assert calls == [g]
    assert got == want and [type(v) for v in got.values()] == [type(v) for v in want.values()]


def test_verify_random_failure_prints_the_graph(capsys, monkeypatch):
    # the first random graph whose routes disagree with the oracle ends the
    # run with exit 4, its descriptor and its edge list on stderr
    real = solve._oracle_indices

    def bogus(loaded):
        out = real(loaded)
        out["wiener"] += 1
        return out

    monkeypatch.setattr(solve, "_oracle_indices", bogus)
    code, out, err = run(capsys, "verify", "--random", "3", "--max-n", "8", "--seed", "2")
    assert code == 4 and "all agree" not in out
    first, _, edges = err.partition("\n")
    assert first.startswith("verification failed on random graph n=")
    n, m = (int(part.split("=")[1]) for part in first.split()[-3:-1])
    g = parse_edge_list(edges)
    assert (g.n, g.m) == (n, m)


@pytest.mark.parametrize("argv, message", [
    ([], "give exactly one of --class-index or --edges"),
    (["--class-index", "0", "--edges", "0-1"], "give exactly one of --class-index or --edges"),
    (["--edges", "0-x"], "bad edge spec '0-x', expected 'u-v'"),
])
def test_quotient_selection_errors_exit_1(argv, message, capsys):
    code, out, err = run(capsys, "quotient", "--family", "cycle", "--n", "6", *argv)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_generate_needs_a_family_or_cells(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n")
    code, out, err = run(capsys, "generate", str(f))
    assert (code, out, err) == (1, "", "usage error: generate needs --family or --cells\n")


def test_reduce_step_log(capsys):
    code, out, _ = run(capsys, "reduce", "--family", "complete_bipartite", "--n", "2,3")
    assert code == 0
    assert "R-class" in out
    assert "running total" in out


def test_generate_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--family", "house", "--n", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.m) == (7, 9)
    code, out, _ = run(capsys, "generate", "--family", "chain", "--n", "4", "--kinks", "A+L")
    assert code == 0
    cells = tmp_path / "cells.txt"
    cells.write_text(out)
    code, out, _ = run(capsys, "compute", "--cells", str(cells), "--check")
    assert code == 0


def test_compute_cells_is_translation_invariant(tmp_path, capsys):
    # coordinates past 2^61 take the object-array path through the one-key
    # sort; the report must not change
    cells = list(gen_phenylene_chain(28, "A+LA-A-LA+L" * 3 + "A+A-A+A-A+").cells)
    far = [(q + 2**62, r - 2**62) for q, r in cells]
    reports = []
    for name, placement in (("near", cells), ("far", far)):
        path = tmp_path / name
        path.write_text("".join(f"{q} {r}\n" for q, r in placement[::-1]))
        code, out, _ = run(capsys, "compute", "--cells", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("input: cells:") and lines[-1].startswith("time:")
        reports.append(lines[1:-1])
    assert reports[0] == reports[1]
    assert reports[0][0] == "method: trees" and any(line.startswith("  DD ") for line in reports[0])


def test_generate_from_cells_emits_phenylene(tmp_path, capsys):
    cells = tmp_path / "cells.txt"
    cells.write_text("0 0\n1 0\n")
    code, out, _ = run(capsys, "generate", "--cells", str(cells))
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.m) == (12, 14)


def test_hamming_command(capsys):
    code, out, _ = run(capsys, "hamming", "--family", "cycle", "--n", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partial_hamming"] is False
    assert payload["wiener_bound"] == 10
    assert payload["wiener_gap"] == 5


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "compute")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "compute", "--family", "cycle")
    assert code == 1  # missing --n
    code, _, err = run(capsys, "compute", "--family", "nope", "--n", "3")
    assert code in (1, 2)


@pytest.mark.parametrize("sizes", ["2,x", "2,3,4", "2,", ",3"])
def test_complete_bipartite_bad_sizes_are_usage_errors(sizes, capsys):
    code, out, err = run(capsys, "compute", "--family", "complete_bipartite", "--n", sizes)
    assert (code, out) == (1, "") and err.startswith("usage error: --n must be")


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n0 x\n")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "compute", str(tmp_path / "missing.txt"))
    assert code == 2


# an input file whose bytes are no UTF-8, or a path that is no file, is a
# parse error (exit 2) for every file the readers take; a decode error names
# the line of the bad byte
UNREADABLE_INPUTS = {
    "graph": lambda path, good: [path],
    "cells": lambda path, good: ["--cells", path],
    "weights": lambda path, good: [good, "--weights", path],
}


@pytest.mark.parametrize("role", sorted(UNREADABLE_INPUTS))
@pytest.mark.parametrize("content, message", [
    (b"0 1\n# caf\xe9\n1 2\n", "parse error: line 2: byte 0xe9 is not UTF-8\n"),
    (b"# ok\r\n\r\n0 1 \xff\n", "parse error: line 3: byte 0xff is not UTF-8\n"),
    (b"0 1\r1 2\r\xc3", "parse error: line 3: byte 0xc3 is not UTF-8\n"),
    (None, "parse error: [Errno 21] Is a directory: "),
])
def test_unreadable_inputs_are_parse_errors(tmp_path, capsys, role, content, message):
    good = tmp_path / "good.txt"
    good.write_text("0 1\n1 2\n")
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run(capsys, "compute", *UNREADABLE_INPUTS[role](str(path), str(good)))
    assert (code, out) == (2, "")
    assert err == message + (f"{str(path)!r}\n" if content is None else "")


# a slash the table reader declines (no digit on a side, two in a token, a
# signed denominator, or any in an edge file) sends the file to the line
# reader, which names the line
@pytest.mark.parametrize("graph, weights, message", [
    ("0 1/2\n", None, "line 1: expected two integers, got '0 1/2'"),
    *[("0 1\n", f"0 {token}\n1 1\n", f"line 1: cannot parse weight '{token}'")
      for token in ("/2", "2/", "1//2", "1/2/3", "1/-2")],
    ("0 1\n", "/0 1\n1 1\n", "line 1: bad vertex index '/0'"),
])
def test_slashes_the_table_reader_declines(tmp_path, capsys, graph, weights, message):
    argv = [str(tmp_path / "g.txt")]
    (tmp_path / "g.txt").write_text(graph)
    if weights is not None:
        (tmp_path / "w.txt").write_text(weights)
        argv += ["--weights", str(tmp_path / "w.txt")]
    assert run(capsys, "compute", *argv) == (2, "", f"parse error: {message}\n")


def test_line_ends_read_alike(tmp_path, capsys):
    # files are read as bytes: CRLF and lone CR break lines as LF does, with
    # a comment, a blank line and a weights file written the same way
    outputs = []
    for end in ("\n", "\r\n", "\r"):
        graph = tmp_path / "g.txt"
        lines = ["# c4 with a tail", "0 1", "1 2", "", "2 3", "3 0", "3 4", ""]
        graph.write_bytes(end.join(lines).encode())
        weights = tmp_path / "w.txt"
        lines = ["# v a b", *(f"{v} {v + 1} 1/{v + 1}" for v in range(5)), ""]
        weights.write_bytes(end.join(lines).encode())
        code, out, err = run(capsys, "compute", str(graph), "--weights", str(weights),
                             "--method", "cuts", "--json")
        assert code == 0, err
        outputs.append(json.loads(out)["indices"])
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 6


@pytest.mark.parametrize("text", [f"0 {2**63}\n", "0 99999999999999999999"])
def test_huge_vertex_ids_are_a_parse_error(tmp_path, capsys, text):
    f = tmp_path / "huge.txt"
    f.write_text(text)
    assert run(capsys, "compute", str(f)) == (2, "", "parse error: graph is disconnected\n")


@pytest.mark.parametrize("command", ["compute", "generate"])
@pytest.mark.parametrize("cells, message", [
    ("0 0\n1 0\n0 1\n", "internal lattice vertex at (1, 1)"),
    ("0 0\n5 5\n", "cells do not form a connected system"),
])
def test_bad_placements_exit_2(tmp_path, capsys, command, cells, message):
    # main catches the PlacementError of graph.py, the class phenylene raises
    assert topocut.PlacementError is phenylene.PlacementError
    f = tmp_path / "bad.cells"
    f.write_text(cells)
    assert run(capsys, command, "--cells", str(f)) == (2, "", f"error: {message}\n")


def test_header_flags(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("3 2\n0 1\n1 2\n")
    for flags, want in (((), "(n=3, m=2)"), (("--header",), "(n=3, m=2)"), (("--no-header",), "(n=4, m=3)")):
        code, out, _ = run(capsys, "compute", str(f), *flags)
        assert code == 0 and want in out.splitlines()[0]
    f.write_text("3 5\n0 1\n1 2\n")
    code, _, err = run(capsys, "compute", str(f), "--header")
    assert code == 2 and "line 1: header" in err


def test_inapplicable_method_exit_3(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    f.write_text(format_edge_list(cycle_graph(6)))
    code, _, err = run(capsys, "compute", str(f), "--method", "trees")
    assert code == 3 and "phenylene" in err
    code, _, err = run(capsys, "compute", "--family", "cycle", "--n", "5", "--method", "hamming")
    assert code == 3


def test_check_mismatch_exit_4(tmp_path, capsys, monkeypatch):
    real = solve._oracle_indices

    def bogus(loaded):
        out = real(loaded)
        out["gutman"] += 1
        return out

    monkeypatch.setattr(solve, "_oracle_indices", bogus)
    f = tmp_path / "c6.txt"
    f.write_text(format_edge_list(cycle_graph(6)))
    code, _, err = run(capsys, "compute", str(f), "--method", "cuts", "--check")
    assert code == 4 and "MISMATCH" in err


def test_mismatch_lines_print_both_values_as_json(capsys, monkeypatch):
    # a type-only disagreement: the oracle's whole-valued Fractions print as
    # JSON strings, so the line shows what differs
    real = solve._oracle_indices
    monkeypatch.setattr(
        solve, "_oracle_indices", lambda loaded: {k: Fraction(v) for k, v in real(loaded).items()}
    )
    code, out, err = run(capsys, "compute", "--family", "cycle", "--n", "5", "--method", "cuts",
                         "--check")
    assert (code, out) == (4, "")
    assert 'wiener(cuts): oracle="15" route=15 [MISMATCH]' in err.splitlines()


@pytest.mark.parametrize("replaced", ["cuts", "oracle"])
def test_every_command_solves_through_the_one_route_table(replaced, capsys, monkeypatch):
    # compute, compute --check and verify reach every route, the oracle
    # included, through solve.compute_report: a replaced entry of
    # solve.ROUTES shows in all three
    real = solve.ROUTES[replaced]

    def off_by_one(loaded, terms):
        indices, breakdown = real(loaded, terms)
        return {**indices, "wiener": indices["wiener"] + 1}, breakdown

    monkeypatch.setitem(solve.ROUTES, replaced, off_by_one)
    c5 = ["--family", "cycle", "--n", "5"]  # W = 15; not partial Hamming, so auto takes cuts
    code, out, _ = run(capsys, "compute", *c5, "--method", replaced, "--json")
    assert code == 0 and json.loads(out)["indices"]["wiener"] == 16
    oracle, route = (15, 16) if replaced == "cuts" else (16, 15)
    line = f"wiener(cuts): oracle={oracle} route={route} [MISMATCH]"
    code, out, err = run(capsys, "compute", *c5, "--check")
    assert (code, out) == (4, "") and line in err.splitlines()
    code, out, _ = run(capsys, "verify", *c5)
    assert code == 4 and line in out.splitlines()


@pytest.mark.parametrize("weight", ["0", "-1"])
@pytest.mark.parametrize("method", ["oracle", "cuts", "trees", "reduce", "hamming", "auto"])
def test_non_positive_weights_rejected_by_every_method(tmp_path, capsys, method, weight):
    f = tmp_path / "p3.edges"
    f.write_text("3 2\n0 1\n1 2\n")
    w = tmp_path / "w.txt"
    w.write_text(f"0 {weight}\n1 1\n2 1\n")
    code, out, err = run(capsys, "compute", str(f), "--weights", str(w), "--method", method)
    assert code == 2, (method, out)
    assert "must be positive" in err


def test_parser_reused_after_usage_error_matches_fresh_process(tmp_path, capsys):
    assert cli.make_parser() is cli.make_parser()
    f = tmp_path / "c6.txt"
    f.write_text(format_edge_list(cycle_graph(6)))
    argv = ["compute", str(f), "--method", "reduce", "--json"]
    code, _, err = run(capsys, "compute", str(f), "--method", "nope")
    assert code == 1 and "usage error" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "topocut.cli", *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    here, there = json.loads(out), json.loads(fresh.stdout)
    here.pop("timing_ms")
    there.pop("timing_ms")
    assert here == there


def test_reduce_keeps_fraction_typing_of_whole_reduced_value(tmp_path, capsys):
    # twins 0 and 4 carry 1/2 each; their representative's weights sum to 1
    f = tmp_path / "t.edges"
    f.write_text("0 1\n1 2\n2 3\n1 4\n")
    w = tmp_path / "t.w"
    w.write_text("0 1/2 1/2\n1 1\n2 1\n3 1\n4 1/2 1/2\n")
    code, out, _ = run(capsys, "reduce", str(f), "--weights", str(w), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced_n"] == 4
    assert payload["reduced_wiener_double"] == "20"
    assert payload["wiener_double"] == "21"


# ------------------------------------------------------------------
# Report.to_json against json.dumps(payload, indent=2), kept as the reference.


def reference_json(report):
    columns = report.breakdown.columns  # the rows as dicts, built here
    payload = {
        "input": report.input,
        "n": report.n,
        "m": report.m,
        "method": report.method,
        "indices": report.indices,
        "breakdown": [dict(zip(columns, row)) for row in zip(*columns.values())],
        "timing_ms": report.timing_ms,
    }
    # Fractions print as strings, numpy ints as ints
    return json.dumps(
        payload, indent=2, default=lambda v: str(v) if isinstance(v, Fraction) else int(v)
    )


def loaded_inputs(tmp_path):
    """(loaded input, methods) pairs: plain, int-weighted and p/q-weighted
    graphs, a partial Hamming graph and a phenylene."""
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n1 4\n4 5\n5 1\n5 6\n")  # twins 0, 2
    ints = tmp_path / "int.w"
    ints.write_text("".join(f"{v} {v + 1} {7 - v}\n" for v in range(7)))
    fracs = tmp_path / "frac.w"
    fracs.write_text("0 1/2 3\n1 2 5/3\n2 1/2 3\n3 4\n4 1.25\n5 7/7 2\n6 9 1/9\n")
    huge = tmp_path / "huge.w"  # past int64 in every product
    huge.write_text("".join(f"{v} {2**62 + v} {v + 1}\n" for v in range(8)))
    general = ["oracle", "cuts", "reduce", "auto"]
    out = []
    for weights in (None, ints, fracs):
        argv = [str(edges)] + (["--weights", str(weights)] if weights else [])
        out.append((argv, general))
    out.append((["--family", "house", "--n", "4"], general + ["hamming"]))
    out.append((["--family", "hypercube", "--n", "3", "--weights", str(huge)], ["hamming"]))
    phe6 = tmp_path / "phe6.w"
    phe6.write_text("".join(f"{v} {v % 5 + 1}/{v % 3 + 1}\n" for v in range(36)))
    for weights in ([], ["--weights", str(phe6)]):
        out.append((["--family", "phe6", *weights], ["trees", "auto", "cuts"]))
    parser = cli.make_parser()
    return [
        (cli._load_input(parser.parse_args(["compute", *argv])), methods)
        for argv, methods in out
    ]


def test_json_writer_matches_json_dumps_on_every_method(tmp_path):
    checked = set()
    for loaded, methods in loaded_inputs(tmp_path):
        for method in methods:
            report = solve.compute_report(loaded, method)
            report.timing_ms = 12.345678901234567
            assert report.to_json() == reference_json(report), (loaded.descriptor, method)
            checked.add(report.method)
    assert checked == {"oracle", "cuts", "hamming", "reduce", "trees"}


def test_json_writer_matches_json_dumps_on_awkward_values():
    reports = [
        solve.Report(
            'in "q" \\ back, café ☃ tab\t\x01 %s {}', 3, 2, "cuts",
            {"wiener": 2**64 + 1, "gutman": -(2**70), "wiener_double": Fraction(-7, 3)},
            solve.Columns(
                block=np.arange(2),
                edges=np.array([1, 2], dtype=np.int32),
                W=[Fraction(1, 2), 1],
                DD=[2**63, Fraction(5, 1)],
                Gut=np.array([0, -3]),
            ),
            0.1,
        ),
        solve.Report(
            "steps", 3, 2, "reduce", {"wiener": 4},
            solve.Columns(
                kind=["R", 'S "q" \\ é ☃\t\x01 %d'],
                class_size=np.array([2, 3]),
                representative=[np.int64(0), 1],
                correction=np.array([2**100, -(2**64) - 1], dtype=object),
            ),
            2.5,
        ),
        solve.Report("empty", 1, 0, "reduce", {"wiener": 0}, solve.Columns(), 0.0),
        solve.Report("nothing", 1, 0, "oracle", {}, solve.Columns(), 1e-7),
        solve.Report(
            "np", 2, 1, "cuts", {"wiener": np.int64(1)},
            solve.Columns(block=[np.int32(0)], edges=np.array([1], dtype=np.uint8)), 3.0,
        ),
    ]
    for report in reports:
        assert report.to_json() == reference_json(report)


# ------------------------------------------------------------------
# --weights applies to every input source.

WEIGHT_SOURCES = {
    "file": (["@p5.edges"], 5),
    "cells": (["--cells", "@two.cells"], 12),
    "chain": (["--family", "chain", "--n", "2"], 12),
    "phe6": (["--family", "phe6"], 36),
    "house": (["--family", "house", "--n", "2"], 5),
    "complete_bipartite": (["--family", "complete_bipartite", "--n", "2,3"], 5),
    "basic": (["--family", "path", "--n", "5"], 5),
}


def source_argv(tmp_path, source):
    (tmp_path / "p5.edges").write_text("0 1\n1 2\n2 3\n3 4\n")
    (tmp_path / "two.cells").write_text("0 0\n1 0\n")
    argv, n = WEIGHT_SOURCES[source]
    return [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv], n


@pytest.mark.parametrize("source", sorted(WEIGHT_SOURCES))
def test_weights_apply_to_every_input_source(tmp_path, capsys, source):
    argv, n = source_argv(tmp_path, source)
    w = tmp_path / "w.txt"
    w.write_text("".join(f"{v} {v % 3 + 1} {v % 2 + 1}\n" for v in range(n)))
    code, out, err = run(capsys, "compute", *argv, "--weights", str(w), "--method", "cuts",
                         "--check", "--json")
    assert code == 0, err
    indices = json.loads(out)["indices"]
    assert {"wiener_weighted", "wiener_plus", "wiener_double"} <= set(indices)


@pytest.mark.parametrize("source", sorted(WEIGHT_SOURCES))
def test_bad_weights_file_exits_2_for_every_input_source(tmp_path, capsys, source):
    argv, _ = source_argv(tmp_path, source)
    bad = tmp_path / "bad.w"
    bad.write_text("0 x\n")
    code, out, err = run(capsys, "compute", *argv, "--weights", str(bad))
    assert code == 2 and out == ""
    assert "line 1: cannot parse weight 'x'" in err


# ------------------------------------------------------------------
# Every route over one term list: the trees route with weights, verify over
# every applicable route, and a cross-route comparison on drawn inputs.


def test_trees_route_reports_weighted_indices_like_the_oracle(tmp_path):
    checked = 0
    for loaded, _ in loaded_inputs(tmp_path):
        if loaded.phenylene is None or loaded.weights is None:
            continue
        oracle = solve._oracle_indices(loaded)
        for method in ("trees", "auto"):
            report = solve.compute_report(loaded, method)
            assert report.method == "trees"
            assert report.indices == oracle
            assert [type(v) for v in report.indices.values()] == [type(v) for v in oracle.values()]
            checked += 1
    assert checked == 2


@pytest.mark.parametrize("kind", ["int", "pq", "huge"])
@pytest.mark.parametrize("source", ["cells", "chain"])
def test_trees_route_weights_match_the_oracle_on_every_placement_source(
    tmp_path, capsys, source, kind
):
    argv, n = source_argv(tmp_path, source)
    values = {
        "int": lambda v: f"{v % 4 + 1} {9 - v % 5}",
        "pq": lambda v: f"{v % 5 + 1}/{v % 3 + 1} {v % 2 + 1}/7",
        "huge": lambda v: f"{2**63 + v} {2**64 - v}",
    }[kind]
    w = tmp_path / "w.txt"
    w.write_text("".join(f"{v} {values(v)}\n" for v in range(n)))
    reports = {}
    for method in ("oracle", "trees", "auto"):
        code, out, err = run(capsys, "compute", *argv, "--weights", str(w), "--method", method,
                             "--check", "--json")
        assert code == 0, err
        reports[method] = json.loads(out)["indices"]
    assert len(reports["oracle"]) == 6
    assert reports["trees"] == reports["auto"] == reports["oracle"]


def test_trees_route_stays_on_arrays(tmp_path, capsys, monkeypatch):
    # neither the phenylene's Graph nor any quotient tree's Graph is built,
    # with or without weights, and every index of the term list is reported
    made = []

    def spy(real):
        def wrapped(*args):
            made.append(real(*args))
            return made[-1]
        return wrapped

    monkeypatch.setattr(phenylene, "build_phenylene", spy(phenylene.build_phenylene))
    monkeypatch.setattr(phenylene, "quotient_trees", spy(phenylene.quotient_trees))
    cells = tmp_path / "bent.cells"
    cells.write_text("0 0\n1 0\n1 1\n2 1\n")
    w = tmp_path / "w.txt"
    w.write_text("".join(f"{v} {v % 5 + 1}/{v % 3 + 1} {v + 1}\n" for v in range(24)))
    plain = ["wiener", "degree_distance", "gutman"]
    weighted = plain + ["wiener_weighted", "wiener_plus", "wiener_double"]
    for method in ("trees", "auto"):
        for weights, keys in (([], plain), (["--weights", str(w)], weighted)):
            made.clear()
            code, out, err = run(capsys, "compute", "--cells", str(cells), "--method", method,
                                 "--json", *weights)
            assert code == 0, err
            ph, trees = made
            assert "graph" not in ph.__dict__
            assert len(trees) == 4 and all("tree" not in t.__dict__ for t in trees)
            assert list(json.loads(out)["indices"]) == keys


def test_verify_runs_every_applicable_route(tmp_path, capsys):
    w = tmp_path / "w.txt"
    w.write_text("".join(f"{v} {v % 5 + 1}/{v % 3 + 1}\n" for v in range(36)))
    code, out, _ = run(capsys, "verify", "--family", "phe6", "--weights", str(w))
    assert code == 0
    lines = out.splitlines()
    routes = {"cuts": 6, "hamming": 6, "reduce": 6, "trees": 6}  # phenylenes are partial cubes
    assert len(lines) == sum(routes.values())
    for method, count in routes.items():
        assert sum(f"({method}): oracle=" in line for line in lines) == count
    assert all(line.endswith("[ok]") for line in lines)
    assert "wiener_double(trees): oracle=" in out
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "5")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"{k}({m})" for m in ("cuts", "reduce") for k in ("wiener", "degree_distance", "gutman")
    ]


def _weight_token(kind, draw):
    if kind == "int":
        return str(draw(st.integers(1, 9)))
    if kind == "pq":
        return f"{draw(st.integers(1, 9))}/{draw(st.integers(1, 4))}"
    base = 2**53 if kind == "2^53" else 2**63
    return str(base + draw(st.integers(-3, 3)))


@st.composite
def route_inputs(draw):
    """(file name, text, compute arguments, n): an edge list or a small
    placement, with no weights or int, p/q, near-2^53 or near-2^63 ones."""
    if draw(st.booleans()):
        g = draw(st.one_of(connected_graphs(max_n=9), pendant_graphs(max_n=10)))
        name, text, n = "g.edges", format_edge_list(g), g.n
        argv = ["@g.edges"]
    else:
        h, kinks = draw(kink_patterns(max_h=4))
        placement = gen_phenylene_chain(h, kinks or None)
        name, text, n = "p.cells", format_placement(placement), 6 * h
        argv = ["--cells", "@p.cells"]
    files = {name: text}
    kind = draw(st.sampled_from([None, "int", "pq", "2^53", "2^63"]))
    if kind:
        files["w.txt"] = "".join(
            f"{v} {_weight_token(kind, draw)} {_weight_token(kind, draw)}\n" for v in range(n)
        )
        argv += ["--weights", "@w.txt"]
    return files, argv


def _assert_every_route_agrees(case):
    """Every applicable route's ``compute --json`` on ``case`` equals the
    oracle's in value and JSON type; returns the loaded input."""
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
        loaded = cli._load_input(cli.make_parser().parse_args(["compute", *argv]))
        hamming = CutEngine(loaded.graph).partial_hamming
        methods = ["oracle", "cuts", "reduce", "auto", "hamming"]
        if loaded.phenylene is not None:
            methods.append("trees")
        reports = {}
        for method in methods:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["compute", *argv, "--method", method, "--json"])
            if method == "hamming" and not hamming:
                assert code == 3
                continue
            assert code == 0, method
            reports[method] = json.loads(out.getvalue())
    oracle = reports.pop("oracle")["indices"]
    assert len(oracle) == (6 if loaded.weights is not None else 3)
    for method, report in reports.items():
        indices = report["indices"]
        assert list(indices) == list(oracle), method
        for key, value in indices.items():
            assert value == oracle[key] and type(value) is type(oracle[key]), (method, key)
    return loaded


# one vertex: every sum is empty, and every route must print it as the int 0
K1 = ({"g.edges": "1 0\n", "w.txt": "0 1/2 3/4\n"}, ["@g.edges", "--weights", "@w.txt"])
# Q3 with p/q weights: auto takes the hamming route, which reports all six
WEIGHTED_Q3 = ({"w.txt": "".join(f"{v} {v % 5 + 1}/{v % 3 + 1} {v % 7 + 2}/{v % 4 + 1}\n"
                                 for v in range(8))},
               ["--family", "hypercube", "--n", "3", "--weights", "@w.txt"])


@settings(max_examples=100, deadline=None)
@given(route_inputs())
@example(K1)
@example(WEIGHTED_Q3)
def test_every_route_agrees_with_the_oracle_in_value_and_json_type(case):
    _assert_every_route_agrees(case)


def _shrink_limits(profile, mp, seen):
    """Shrink one profile's integer limits, and spy on the path they send
    the solves down: each spy appends its name to ``seen`` when that path
    runs."""

    def spy(module, name, ran=lambda out, *args: True):
        real = getattr(module, name)

        def wrapper(*args):
            out = real(*args)
            if ran(out, *args):
                seen.add(f"{module.__name__}.{name}")
            return out

        mp.setattr(module, name, wrapper)

    if profile == "narrow":
        # distances in int16 and wider, tours in int64 past 3 arcs, D B wide
        for t, limit in ((np.int8, 2), (np.int16, 3), (np.int32, 4)):
            mp.setitem(exact_module._LIMITS, t, limit)
        spy(graph_module, "_narrowest_dtype", lambda t, *args: t is not np.int8)
        # a tour index, which starts at int32 (every kernel starts at int64)
        spy(exact_module, "_narrowest_dtype",
            lambda t, bound, least: least is np.int32 and t is np.int64)
        spy(cut_method_module, "_narrowest_dtype", lambda t, *args: t is not np.int32)
    elif profile == "sums":
        mp.setattr(exact_module, "_SUM_LIMIT", 2)
        spy(exact_module, "_exact_sum")
    elif profile == "int64":
        mp.setitem(exact_module._LIMITS, np.int64, 1)
    else:  # every reader declines its table and reads token lines
        mp.setattr(exact_module, "_TABLE_LIMIT", 1)
        for module in (graph_module, indices_module, phenylene):
            spy(module, "token_lines")


SHRUNK_PATHS = {
    "narrow": {"topocut.graph._narrowest_dtype", "topocut.exact._narrowest_dtype",
               "topocut.cut_method._narrowest_dtype"},
    "sums": {"topocut.exact._exact_sum"},
    "int64": {"object weights"},
    "reader": {"topocut.graph.token_lines", "topocut.indices.token_lines",
               "topocut.phenylene.token_lines"},
}


@pytest.mark.parametrize("profile", list(SHRUNK_PATHS))
def test_every_route_agrees_with_the_oracle_under_shrunk_limits(profile):
    # Every wide path on oracle-sized inputs: the integer limits of
    # topocut.exact shrunk, so the small inputs of the test above take the
    # paths that only huge ones take otherwise.  A weighted kinked chain of
    # 4 hexagons has a tour of 6 arcs and a distance matrix past int8.
    seen = set()

    @settings(max_examples=25, deadline=None)
    @given(route_inputs())
    @example(K1)
    @example(WEIGHTED_Q3)
    @example(({"p.cells": format_placement(gen_phenylene_chain(4, "A+L")),
               "w.txt": "".join(f"{v} {v % 5 + 1}/{v % 3 + 1} {v + 1}\n" for v in range(24))},
              ["--cells", "@p.cells", "--weights", "@w.txt"]))
    def agrees(case):
        with pytest.MonkeyPatch.context() as mp:
            _shrink_limits(profile, mp, seen)
            loaded = _assert_every_route_agrees(case)
            if loaded.matrix.rows.dtype == object:
                seen.add("object weights")

    agrees()
    assert SHRUNK_PATHS[profile] <= seen


@pytest.mark.parametrize("mixed", [False, True])
def test_whole_valued_ratio_weights_through_cuts_hamming_and_reduce(tmp_path, capsys, mixed):
    # "2/1" and "4/2" read as the int 2, as parse_weight reads them; beside
    # a p/q weight every weighted index prints as a Fraction string, alone
    # as an int, each as the oracle prints it.  The windmill of 3 triangles
    # is partial Hamming and collapses by S and R.
    weights = tmp_path / "w"
    weights.write_text("".join(
        f"{v} {'2/1' if v % 2 else '4/2'} {'1/2' if mixed and v == 5 else '6/3'}\n" for v in range(7)
    ))
    argv = ["compute", "--family", "windmill", "--n", "3", "--weights", str(weights), "--json"]
    code, out, _ = run(capsys, *argv, "--method", "oracle")
    assert code == 0
    oracle = json.loads(out)["indices"]
    assert isinstance(oracle["wiener_double"], str) == mixed
    assert all(type(oracle[k]) is int for k in ("wiener_weighted", "wiener_plus"))
    for method in ("cuts", "hamming", "reduce"):
        code, out, _ = run(capsys, *argv, "--method", method)
        assert code == 0
        indices = json.loads(out)["indices"]
        assert {k: oracle[k] for k in indices} == indices, method
        assert all(type(v) is type(oracle[k]) for k, v in indices.items()), method
