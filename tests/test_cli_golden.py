"""Golden outputs of the CLI: every inspection command and every
``compute`` method but ``auto`` on a fixed set of inputs, text and
``--json``; ``compute --check`` and ``verify`` on a graph, a weighted graph
and a placement; and the help of ``topocut`` and ``topocut compute`` at 80
columns.  Each is held byte for byte to ``data/cli_golden.json`` with the
timings masked.

Regenerate the file (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from topocut.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

# name -> (input arguments, an edge set for ``quotient --edges``); paths are
# relative to DATA, as the graph file's path is part of the output.
INPUTS = {
    "c5": (["--family", "cycle", "--n", "5"], "0-1,1-2"),
    "c6": (["--family", "cycle", "--n", "6"], "0-1,1-2"),
    "k23": (["--family", "complete_bipartite", "--n", "2,3"], "0-2,1-2"),
    "q3": (["--family", "hypercube", "--n", "3"], "0-1,2-3"),
    "house6": (["--family", "house", "--n", "6"], "0-1,0-2"),
    "random30": (["random_n30_m50_seed1.txt"], "0-1,0-2"),
    "windmill4": (["--family", "windmill", "--n", "4", "--weights", "windmill4.w"], "0-1,1-2"),
    "phe6": (["--family", "phe6"], "0-1,1-2"),
    # a kinked chain with p/q weights, some plain and some whole-valued (2/1)
    "chain12": (
        ["--family", "chain", "--n", "12", "--kinks", "A+LA-A+A-LA+A-A+L", "--weights", "chain12.w"],
        "0-1,1-2",
    ),
    # the token-line path of each reader: a header-less CRLF edge file with
    # '#' comments and blank lines, its weights file with comments and a
    # decimal weight, and a commented placement file
    "comments": (["comments.edges", "--weights", "comments.w"], "1-2,2-3"),
    "comments_cells": (["--cells", "comments.cells"], "0-1,1-2"),
    # an edge repeated, reversed, on a later line: exit 2 on every command
    "repeat": (["repeat.edges"], "0-1,1-2"),
}

COMMANDS = {
    "classes": ["classes"],
    "quotient_class0": ["quotient", "--class-index", "0"],
    "quotient_class1": ["quotient", "--class-index", "1"],
    "quotient_edges": ["quotient", "--edges", None],
    "hamming": ["hamming"],
    "reduce": ["reduce"],
    **{
        f"compute_{m}": ["compute", "--method", m]
        for m in ("oracle", "cuts", "hamming", "reduce", "trees")
    },
}


# input -> the method its ``compute --check`` case names (never ``auto``,
# whose pick may change while every route's output stays)
CHECKED = {"random30": "cuts", "windmill4": "reduce", "chain12": "trees"}

HELP = {"help/topocut": ["--help"], "help/compute": ["compute", "--help"]}


def cases():
    for inp, (args, edges) in INPUTS.items():
        for cmd, argv in COMMANDS.items():
            argv = [edges if a is None else a for a in argv] + args
            yield f"{inp}/{cmd}", argv
            yield f"{inp}/{cmd}/json", argv + ["--json"]
    for inp, method in CHECKED.items():
        argv = ["compute", "--check", "--method", method] + INPUTS[inp][0]
        yield f"{inp}/compute_check_{method}", argv
        yield f"{inp}/compute_check_{method}/json", argv + ["--json"]
        yield f"{inp}/verify", ["verify"] + INPUTS[inp][0]
    yield from HELP.items()


def _mask(text: str) -> str:
    text = re.sub(r'"timing_ms": [^\n]*', '"timing_ms": <masked>', text)
    return re.sub(r"^time: .* ms$", "time: <masked> ms", text, flags=re.M)


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return {"exit": code, "stdout": _mask(out.getvalue()), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in cases())


@pytest.mark.parametrize("name,argv", list(cases()), ids=[name for name, _ in cases()])
def test_cli_output_is_byte_identical(name, argv, golden, monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    assert run_case(argv) == golden[name]


if __name__ == "__main__":
    os.chdir(DATA)
    os.environ["COLUMNS"] = "80"
    record = {name: run_case(argv) for name, argv in cases()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN}", file=sys.stderr)
