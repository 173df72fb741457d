"""The array readers and the array-built Graph against the line-by-line
readers and the per-edge validation loop they replaced, kept here as
references: equal results, or a ParseError / GraphError with the identical
message."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from topocut.exact import weights_of
from topocut.graph import (
    Graph, GraphError, ParseError, parse_edge_list, read_int_rows, read_int_table,
    read_ratio_table, token_lines,
)
from topocut.indices import read_weights
from topocut.phenylene import parse_placement


def reference_graph(n, edges):
    """Graph validation as a loop over the edges: (n, edges, adj)."""
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    norm, seen = [], set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
    rows = [[] for _ in range(n)]
    for u, v in norm:
        rows[u].append(v)
        rows[v].append(u)
    adj = tuple(tuple(sorted(r)) for r in rows)
    reached, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if len(reached) < n:
        raise GraphError("graph is disconnected")
    return n, tuple(norm), adj


def reference_parse_edge_list(text):
    """The line-by-line edge-list reader: (n, edges) or a ParseError."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {line!r}") from None
        rows.append((lineno, a, b))
    if not rows:
        raise ParseError("no edges found")
    first_line, first_a, first_b = rows[0]
    if first_b == len(rows) - 1 and first_a >= 1:
        n, pairs = first_a, rows[1:]
    else:
        n, pairs = max(max(a, b) for _, a, b in rows) + 1, rows
    edges = []
    seen = set()
    for lineno, a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"line {lineno}: vertex out of range for n={n}")
        if a == b:
            raise ParseError(f"line {lineno}: self-loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise ParseError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    # fewer than n - 1 edges cannot connect n vertices (and n may be huge);
    # the edges are valid here, so the loop can fail only on connectivity
    try:
        if len(edges) >= n - 1:
            return reference_graph(n, edges)[:2]
    except GraphError:
        pass
    raise ParseError("graph is disconnected")


def reference_parse_weight(token):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse weight {token!r}") from None
    return int(value) if value.denominator == 1 else value


def reference_parse_weights(text, n):
    """The line-by-line weights reader."""
    a = [None] * n
    b = [1] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'v a [b]', got {line!r}")
        try:
            v = int(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex index {parts[0]!r}") from None
        if not (0 <= v < n):
            raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
        if a[v] is not None:
            raise ParseError(f"line {lineno}: vertex {v} given twice")
        try:
            a[v] = reference_parse_weight(parts[1])
            if len(parts) == 3:
                b[v] = reference_parse_weight(parts[2])
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    missing = [v for v, x in enumerate(a) if x is None]
    if missing:
        raise ParseError(f"missing weights for vertices {missing[:5]}")
    return tuple(a), tuple(b)


# Tokens at and around the table reader's limits and Python's int syntax.
HAZARD_TOKENS = [
    "+1", "-1", "-0", "+0", "007", "1_0", "x", "1.5", "3/2", "1/0", "0.25", "-", "+",
    "--1", "1-2", "٣",  # an Arabic-Indic digit, which int() reads as 3
    str(2**60 - 1), str(2**60), str(-(2**60) + 1), str(-(2**60)),
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1),
    "99999999999999999999", "-99999999999999999999",
]
SEPARATORS = [" ", "  ", "\t", " \t "]
LINE_ENDS = ["\n", "\r\n", "\r"]
EXTRA_LINES = ["", "   ", "\t", "# comment", "#", "7", "1 2 3", "0 1 # x", "\x0c"]


@st.composite
def texts(draw, rows):
    """Token rows, some tokens swapped for hazards and some odd lines
    inserted, each now and then; joined by one drawn line ending and padded."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 2)) if rows and draw(st.booleans()) else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(HAZARD_TOKENS))
    lines = [draw(st.sampled_from(SEPARATORS)).join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(EXTRA_LINES)))
    end = draw(st.sampled_from(LINE_ENDS))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return end.join(pad + ln + pad for ln in lines) + draw(st.sampled_from(["", end]))


@st.composite
def edge_texts(draw):
    """A random connected graph's edge lines in random order and orientation,
    now and then with a stray edge (a loop, repeat or far vertex), a header
    that matches the line count or one that does not, and the hazards of
    ``texts``."""
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    stray = st.tuples(st.integers(0, n), st.integers(0, n))
    edges += draw(st.lists(stray, max_size=2)) if draw(st.booleans()) else []
    rows = [(str(u), str(v)) if draw(st.booleans()) else (str(v), str(u)) for u, v in edges]
    rows = draw(st.permutations(rows))
    header = draw(st.sampled_from(["none", "none", "matching", "other"]))
    if header != "none":
        m = len(rows) if header == "matching" else draw(st.integers(0, 9))
        rows = [(str(draw(st.integers(0, n + 1))), str(m)), *rows]
    return draw(texts(rows))


def edge_outcome(parse, text):
    try:
        got = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return got if isinstance(got, tuple) else (got.n, got.edges)


@given(edge_texts())
@example("3 2\r\n0 1\r\n1 2\r\n")
@example("3 2\n0 1\n1 2\n2 0\n")  # header-shaped first line that is an edge
@example("# c\n3 2\n0 1\n1 2\n")
@example("+0 +1\n1 2")
@example("1_0 1\n")
@example(" \t \n\n")
@example("")
@example(f"{2**63} 0\n")
@example(f"0 1\n1 {2**60}\n")
@example(f"0 1\n1 {2**60 - 1}\n")
@example("4 3\n0 1\n1 2\n")
@example("0 1\n1 2\n2 0\n3 4\n")  # disconnected with m = n - 1
@example("5 4\n0 1\n1 2\n2 0\n3 4\n")
@example(f"0 {2**63}\n")  # vertex ids past int64: disconnected, not an overflow
@example("0 99999999999999999999")
def test_edge_list_reader_matches_line_reader(text):
    want = edge_outcome(reference_parse_edge_list, text)
    assert edge_outcome(parse_edge_list, text) == want
    if want[0] != "error":
        g = parse_edge_list(text)
        assert g.adj == reference_graph(g.n, g.edges)[2]


def reference_int_rows(text):
    """The two-integer lines read line by line: (a, b) for every line that
    is neither blank nor a '#' comment."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            a, b = line.split()
            rows.append((int(a), int(b)))
    return rows


# values inside the table's +-2^60, then at and past +-2^60 and +-2^63
INSIDE = [0, 5, -7, 2**60 - 1, -(2**60) + 1]
OUTSIDE = [2**60, -(2**60), 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]


@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("comment", [False, True])
@pytest.mark.parametrize("values", [INSIDE, INSIDE + OUTSIDE])
def test_edge_lists_and_placements_share_the_two_integer_reader(end, comment, values):
    # a '#' line or a value the table cannot hold sends the text down the
    # token-line path; either way the rows are the line reader's, int64
    # while they fit and Python ints past that
    lines = [f"+{v} {-v}" if v > 0 else f"{v} {v + 1}" for v in values]
    lines[1:1] = ["", "  \t"]
    text = end.join((["# cells"] if comment else []) + lines) + end
    want = reference_int_rows(text)
    assert (read_int_table(text, (2,)) is None) == (comment or values != INSIDE)
    rows = read_int_rows(text, "two integers")
    assert rows.shape == (len(want), 2) and [tuple(r) for r in rows.tolist()] == want
    fits = all(-(2**63) <= v < 2**63 for row in want for v in row)
    assert rows.dtype == (np.int64 if fits else object)
    assert parse_placement(text).cells == tuple(sorted(want))
    # a bad line is named at its line number, in the words of each format
    for bad in ["1 2 3", "1 x"]:
        broken = text + f"0 1{end}{bad}{end}"
        at = len(broken.splitlines())
        for parse, what in ((parse_edge_list, "two integers"), (parse_placement, "'q r'")):
            with pytest.raises(ParseError, match=re.escape(f"line {at}: expected {what}, got {bad!r}")):
                parse(broken)


@st.composite
def weight_texts(draw):
    """One "v a [b]" row per vertex in random order, now and then a vertex
    missing, repeated or out of range, with mixed widths and the hazards of
    ``texts``."""
    n = draw(st.integers(1, 5))
    vertices = list(draw(st.permutations(range(n))))
    if draw(st.booleans()):
        vertices = draw(st.lists(st.integers(0, n), max_size=n + 1))
    widths = st.just(draw(st.integers(1, 2))) if draw(st.booleans()) else st.integers(1, 2)
    value = st.one_of(st.integers(1, 9).map(str), ratios, st.sampled_from(RATIO_TOKENS))
    if draw(st.booleans()):
        value = st.integers(1, 9).map(str)
    rows = [(str(v), *(draw(value) for _ in range(draw(widths)))) for v in vertices]
    return draw(texts(rows)), n


# p/q tokens: signs, whole and zero values, zero and signed denominators,
# underscores, a slash out of place, and values at the table's +-2^60.
RATIO_TOKENS = [
    "4/2", "-4/2", "2/1", "6/4", "-0/3", "+0/5", "3/0", "0/0", "3/-4", "+3/4", "-7/3",
    "1_0/3", "3/1_0", "1/2/3", "/3", "3/", "1//2", "3/+4",
    f"{2**60 - 1}/3", f"-{2**60 - 1}/3", f"1/{2**60 - 1}", f"{2**60}/3", f"-{2**60}/3",
    f"1/{2**60}", f"{2**60 - 1}/{2**60 - 2}",
]
ratios = st.builds(
    lambda sign, p, q: f"{sign}{p}/{q}",
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 12),
    st.integers(0, 12),
)


def read_values(text, n):
    """``read_weights``' rows a and b as Python values."""
    weights = read_weights(text, n)
    return weights.values(0), weights.values(1)


def weight_outcome(parse, text, n):
    try:
        a, b = parse(text, n)
    except ParseError as exc:
        return "error", str(exc)
    # equal values of equal types: 2 and Fraction(2) must not pass for each other
    return [(type(x), x) for x in a], [(type(x), x) for x in b]


def scaled_outcome(text, n):
    """``read_weights``' matrix as comparable lists, or the error."""
    try:
        w = read_weights(text, n)
    except ParseError as exc:
        return "error", str(exc)
    fractions = None if w.fractions is None else w.fractions.tolist()
    return w.rows.tolist(), w.scales, w.bounds, w.fractional, fractions


@given(weight_texts())
@example(("0 2\n1 3 4\n# c\n2 1/2\n", 3))
@example(("1 5 6\r\n0 2 3\r\n", 2))
@example(("0 1\n0 2\n", 2))
@example(("0 1\n", 2))
@example(("0 1 2\n1 3\n", 2))
@example(("0 +4\n1 -0\n", 2))
@example((f"0 {2**63}\n1 1\n", 2))
@example((f"0 {2**60 - 1} {-(2**60) + 1}\n1 1 1\n", 2))
@example(("0 1.5\n1 2/4\n", 2))
@example(("0 4/2 -0/3\n1 +3/4 6/4\n", 2))
@example(("0 3/0\n", 1))
@example(("0 3/-4\n", 1))
@example(("0 1_0/3\n", 1))
@example(("1/1 2\n", 2))
@example((f"0 {2**60 - 1}/3 1/{2**60 - 1}\n", 1))
@example((f"0 {2**60}/3\n", 1))
@example((f"0 -{2**60 - 1}/5 7\n", 1))
@example(("0 1\n1\n", 2))  # a line of one token
@example(("0 1 2 3\n", 1))  # a line of four tokens
def test_weights_reader_matches_line_reader(case):
    text, n = case
    want = weight_outcome(reference_parse_weights, text, n)
    assert weight_outcome(read_values, text, n) == want
    # the table's arrays scale every row as the line reader's values scale
    if want[0] != "error":
        reference = weights_of(reference_parse_weights(text, n))
        fractions = None if reference.fractions is None else reference.fractions.tolist()
        scaled = reference.rows.tolist(), reference.scales, reference.bounds, reference.fractional
        assert scaled_outcome(text, n) == (*scaled, fractions)


@given(
    st.integers(1, 7),
    st.lists(
        st.tuples(
            st.one_of(st.integers(-1, 7), st.sampled_from([2**62, 2**64, -(2**70)])),
            st.integers(-1, 7),
        ),
        max_size=10,
    ),
)
@example(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
def test_array_graph_matches_validation_loop(n, edges):
    try:
        want = reference_graph(n, edges)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            Graph(n, edges)
        assert str(got.value) == str(exc)
        return
    g = Graph(n, edges)
    assert (g.n, g.edges, g.adj) == want
    assert Graph(n, g.edge_array).edges == g.edges


def test_table_reader_hands_over_what_it_cannot_hold_exactly():
    assert read_int_table("1 2\r\n\n+3 -4\r5\t6\n", (2,)).tolist() == [[1, 2], [3, -4], [5, 6]]
    assert read_int_table(f"{2**60 - 1} {-(2**60) + 1}", (2,)).tolist() == [[2**60 - 1, -(2**60) + 1]]
    for text in ["", " \n\t", "# c\n0 1", "1_0 1", "1 2\n3", "1 2 3\n4 5", "- 1", "1 -",
                 "1-2 3", "--1 2", f"{2**60} 0", f"0 {-(2**60)}", f"{2**63} 0",
                 "99999999999999999999 0", "٣ 1", "1\x0c2"]:
        assert read_int_table(text, (2,)) is None, text
    assert read_int_table("0 1 2\n3 4 5\n", (2, 3)).shape == (2, 3)


def test_ratio_weights_take_the_table(monkeypatch):
    # p/q tokens beside integers are read as arrays; the line reader only
    # sees texts with a fault, a comment, a decimal or a zero denominator
    import topocut.indices as indices

    lines = []
    real = indices._read_weight_lines
    monkeypatch.setattr(indices, "_read_weight_lines", lambda *a: lines.append(a) or real(*a))
    text = "1 -6/4 2/1\n0 3 +1/3\n2 0/7 5\n"
    assert read_values(text, 3) == ((3, Fraction(-3, 2), 0), (Fraction(1, 3), 2, 5))
    weights = read_weights(text, 3)
    assert weights.scales == (2, 3) and weights.rows.tolist() == [[6, -3, 0], [1, 6, 15]]
    assert weights.fractions.tolist() == [[False, True, False], [True, False, False]]
    assert lines == []
    assert read_values("0 1.5\n", 1) == ((Fraction(3, 2),), (1,))
    assert read_values("# c\n0 1/2\n", 1) == ((Fraction(1, 2),), (1,))
    with pytest.raises(ParseError, match="cannot parse weight '3/0'"):
        read_weights("0 3/0\n", 1)
    assert len(lines) == 3


TABLE_BYTES = set(" \t\r\n0123456789+-/")


def reference_ratio_table(text, widths):
    """``read_ratio_table`` line by line: the numerator and denominator
    rows of every non-blank line from ``token_lines``, each token read by
    ``int`` and checked against ``Fraction``, or None for a text the table
    leaves to the line readers."""
    if set(text) - TABLE_BYTES:  # comments, other bytes, non-ASCII digits
        return None
    rows = [parts for _, _, parts in token_lines(text)]
    if not rows or len(rows[0]) not in widths or any(len(r) != len(rows[0]) for r in rows):
        return None
    num, den = [], []
    for row in rows:
        num.append([]), den.append([])
        for token in row:
            if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token):
                return None
            p, _, q = token.partition("/")
            p, q = int(p), int(q or 0)
            if not (abs(p) < 2**60 and q < 2**60) or "/" in token and not q:
                return None
            assert Fraction(token) == Fraction(p, q or 1)
            num[-1].append(p), den[-1].append(q)
    return num, den if any("/" in t for r in rows for t in r) else None


TABLE_TOKENS = [
    "0", "7", "-3", "+12", "007", "-0", "3/4", "-6/4", "+0/5", "3/0", "1/2/3", "/3", "3/", "3/+4",
    "1_0", "٣", "é", "#", "1.5", "-", "+", "--1", "1-2",
    str(2**60 - 1), str(-(2**60) + 1), str(2**60), str(-(2**60)),
    f"{2**60 - 1}/3", f"1/{2**60 - 1}", f"1/{2**60}", f"{2**60}/3",
]


@st.composite
def table_texts(draw):
    """Rows of drawn tokens, of one width or ragged, mostly small integers,
    joined by blanks and one line ending, with blank lines now and then."""
    width = draw(st.integers(1, 3))
    small = st.integers(-20, 20).map(str)
    token = st.one_of(small, small, st.sampled_from(TABLE_TOKENS)) if draw(st.booleans()) else small
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        size = width if draw(st.integers(0, 5)) else draw(st.integers(0, 4))
        rows.append(draw(st.lists(token, min_size=size, max_size=size)))
    lines = [draw(st.sampled_from(SEPARATORS)).join(r) for r in rows]
    end = draw(st.sampled_from(LINE_ENDS))
    pad = st.sampled_from(["", " ", "\t"])
    return end.join(draw(pad) + ln + draw(pad) for ln in lines) + draw(st.sampled_from(["", end]))


@given(table_texts(), st.sampled_from([(2,), (2, 3), (1, 2, 3)]))
@example("", (2,))
@example("\r\n\n \t\r", (2,))
@example("1 2\r\n\r\n+3\t-4\r5 6", (2,))
@example(f"{2**60 - 1} {-(2**60) + 1}\n", (2,))
@example(f"{2**60} 1\n", (2,))
@example(f"1 {-(2**60)}\n", (2,))
@example(f"1/{2**60 - 1} 2\n", (2,))
@example(f"1/{2**60} 2\n", (2,))
@example("3/4 -6/4\n0 1\n", (2,))
@example("3/0 1\n", (2,))
@example("1 2\n3 4 5\n", (2, 3))
@example("1 é\n", (2,))
@example("1 ٣\n", (2,))
def test_table_reader_matches_line_reference(text, widths):
    got = read_ratio_table(text, widths)
    want = reference_ratio_table(text, widths)
    if want is None:
        assert got is None
        return
    num, den = got
    assert num.dtype == np.int64 and num.tolist() == want[0]
    assert den is None if want[1] is None else den.tolist() == want[1]
    ints = read_int_table(text, widths)
    assert (ints is None) if want[1] is not None else ints.tolist() == want[0]


@pytest.mark.parametrize("tokens", [255, 256, 257, 258, 511, 512])
def test_table_reader_counts_long_lines_exactly(tokens):
    # a line's token count is summed in uint8, modulo 256, and checked
    # against the total: a line of 256 tokens must not pass for a blank one,
    # nor one of 258 for a line of 2, nor a wrapped line make up for short
    # ones (2, then 256 lines of 1, then 256 or 258 tokens, totals 2 x 257
    # and 2 x 258); a table is at most 255 tokens wide
    wide = " ".join(["1"] * tokens)
    for text in (f"1 2\n{wide}\n", f"{wide}\n1 2\n", "0 1\n" + "1\n" * 256 + wide):
        assert read_ratio_table(text, (2, tokens % 256)) is None
    table = read_ratio_table(f"{wide}\r\n{wide}\r\n", (2, tokens % 256, tokens))
    if tokens < 256:
        assert table[0].shape == (2, tokens) and table[1] is None
    else:
        assert table is None
