import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topocut.cli as cli
from topocut.cli import main
from topocut.graph import format_edge_list, parse_edge_list
from topocut.families import cycle_graph


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


def test_verify_reports_mismatch(capsys, monkeypatch):
    # force a bogus oracle to exercise the mismatch exit path
    real = cli._oracle_indices

    def bogus(loaded):
        out = real(loaded)
        out["degree_distance"] += 1
        return out

    monkeypatch.setattr(cli, "_oracle_indices", bogus)
    code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "6")
    assert code == 4
    assert "MISMATCH" in out or "MISMATCH" in err


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


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n0 x\n")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "compute", str(tmp_path / "missing.txt"))
    assert code == 2


def test_inapplicable_method_exit_3(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    f.write_text(format_edge_list(cycle_graph(6)))
    code, _, err = run(capsys, "compute", str(f), "--method", "trees")
    assert code == 3 and "phenylene" in err
    code, _, err = run(capsys, "compute", "--family", "cycle", "--n", "5", "--method", "hamming")
    assert code == 3


def test_check_mismatch_exit_4(tmp_path, capsys, monkeypatch):
    real = cli._oracle_indices

    def bogus(loaded):
        out = real(loaded)
        out["gutman"] += 1
        return out

    monkeypatch.setattr(cli, "_oracle_indices", bogus)
    f = tmp_path / "c6.txt"
    f.write_text(format_edge_list(cycle_graph(6)))
    code, _, err = run(capsys, "compute", str(f), "--method", "cuts", "--check")
    assert code == 4 and "MISMATCH" in err


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
