"""Edge canonicalization, parsing, and stream handling."""

from __future__ import annotations

import io
import logging
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_stream
from shadowmatch.graph import (DenseGraph, DuplicateEdgeError, Edge,
                               EdgeStream, StreamFormatError, edge,
                               format_edge, is_matching, open_stream,
                               parse_edge_line, write_stream)


def test_parse_simple_line():
    assert parse_edge_line("3 7 2.5") == edge(3, 7, 2.5)
    assert parse_edge_line("3 7 2.5").key == (3, 7)


def test_canonical_endpoint_order():
    assert edge(7, 3, 2.5) == edge(3, 7, 2.5)
    assert edge(7, 3, 2.5).u == 3


def test_canonicalization_is_idempotent():
    e = edge(9, 4, 1.25)
    assert edge(e.u, e.v, e.w) == e


def test_loop_rejected():
    with pytest.raises(ValueError):
        edge(5, 5, 1.0)
    with pytest.raises(StreamFormatError):
        parse_edge_line("5 5 1.0", 3)


@pytest.mark.parametrize("u, v", [(True, 2), (1, False), (True, False),
                                  (1.0, 2), ("1", 2)])
def test_non_integer_vertex_ids_rejected(u, v):
    # True == 1, but an edge holding it would be traced as [True, 2, 1.0].
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        edge(u, v, 1.0)


@pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_weights_rejected(w):
    with pytest.raises(ValueError):
        edge(1, 2, w)


@pytest.mark.parametrize("line", ["1 2", "1 2 3 4", "a 2 1.0", "1 b 1.0",
                                  "1 2 abc", "-1 2 1.0"])
def test_malformed_lines_rejected(line):
    with pytest.raises(StreamFormatError) as err:
        parse_edge_line(line, 42)
    assert "line 42" in str(err.value)


def test_edge_other_endpoint():
    e = edge(3, 7, 1.0)
    assert e.other(3) == 7
    assert e.other(7) == 3
    with pytest.raises(ValueError):
        e.other(5)


def test_open_stream_basic():
    text = "# a comment\np 4 3\n1 2 1.0\n2 3 10.0\n\n3 4 1.0\n"
    stream = open_stream(io.StringIO(text))
    assert stream.vertex_count == 4
    assert stream.edge_count == 3
    got = list(stream)
    assert got == [edge(1, 2, 1.0), edge(2, 3, 10.0), edge(3, 4, 1.0)]


def test_open_stream_crlf_and_no_header():
    text = "1 2 1.5\r\n2 3 2.5\r\n"
    stream = open_stream(io.StringIO(text))
    assert stream.vertex_count is None
    assert list(stream) == [edge(1, 2, 1.5), edge(2, 3, 2.5)]


def test_open_stream_preserves_order():
    text = "5 6 1.0\n1 2 1.0\n3 4 1.0\n"
    assert [e.key for e in open_stream(io.StringIO(text))] == \
        [(5, 6), (1, 2), (3, 4)]


def test_duplicate_edge_is_hard_error():
    text = "1 2 5.0\n2 1 6.0\n"
    with pytest.raises(DuplicateEdgeError) as err:
        list(open_stream(io.StringIO(text)))
    assert "line 2" in str(err.value)


def test_duplicate_edge_skip_mode(caplog):
    text = "1 2 5.0\n2 1 6.0\n2 3 1.0\n"
    with caplog.at_level("WARNING"):
        got = list(open_stream(io.StringIO(text), on_duplicate="skip"))
    assert got == [edge(1, 2, 5.0), edge(2, 3, 1.0)]
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_parse_error_names_line_number():
    text = "1 2 1.0\n# fine\nbogus line here\n"
    with pytest.raises(StreamFormatError) as err:
        list(open_stream(io.StringIO(text)))
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("# \ud800\n1 2 1.0\n", "line 1: not UTF-8 at character 2 of the line: "),
    ("1 2 1.0\n2 3 \ud800\n", "line 2: not UTF-8 at character 4 of the line: "),
    ("1 2 1.0\n2 3 \udcff\n",
     "line 2: not UTF-8 at byte 4 of the line (0xff): invalid start byte"),
], ids=["comment", "edge", "escaped-byte"])
def test_text_holding_a_lone_surrogate_names_its_line(text, message):
    """Text handed in may hold a lone surrogate, which no UTF-8 encodes:
    a StreamFormatError names its line, in a comment as in an edge
    line; one in the range "surrogateescape" maps bytes to is named as
    the byte it stands for."""
    with pytest.raises(StreamFormatError) as err:
        list(open_stream(io.StringIO(text)))
    assert str(err.value).startswith(message)


def test_bad_header():
    with pytest.raises(StreamFormatError):
        open_stream(io.StringIO("p 4\n1 2 1.0\n"))


def test_empty_stream():
    assert list(open_stream(io.StringIO(""))) == []
    assert list(open_stream(io.StringIO("# only comments\n"))) == []


def test_stream_single_consumption():
    s = EdgeStream([edge(1, 2, 1.0)])
    list(s)
    with pytest.raises(RuntimeError):
        list(s)


def test_open_stream_from_path(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("p 3 2\n1 2 1.0\n2 3 2.0\n", encoding="utf-8")
    stream = open_stream(path)
    assert stream.vertex_count == 3
    assert len(list(stream)) == 2


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        open_stream(tmp_path / "nope.txt")


def test_write_stream_round_trip(tmp_path):
    edges = [edge(1, 2, 1.0), edge(2, 3, 0.125), edge(0, 5, 9.75)]
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_stream(edges, fh, vertex_count=6)
    stream = open_stream(path)
    assert stream.vertex_count == 6
    assert list(stream) == edges


@pytest.mark.parametrize("edges, vertex_count, header", [
    ([edge(3, 97, 1.0), edge(5, 40, 2.5)], None, "p 98 2"),
    ([], None, "p 0 0"),
    ([edge(3, 97, 1.0), edge(5, 40, 2.5)], 500, "p 500 2"),
])
def test_write_stream_header_bounds_every_id(tmp_path, edges, vertex_count,
                                             header):
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_stream(edges, fh, vertex_count=vertex_count)
    assert path.read_text(encoding="utf-8").splitlines()[0] == header
    stream = open_stream(path)
    assert list(stream) == edges
    assert stream.vertex_count == int(header.split()[1])


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.floats(min_value=1e-9, max_value=1e12, allow_nan=False))
def test_format_parse_round_trip(u, v, w):
    if u == v:
        v = u + 1
    e = edge(u, v, w)
    assert parse_edge_line(format_edge(e)) == e


@given(st.integers(0, 100), st.integers(0, 100),
       st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_canonical_is_symmetric(u, v, w):
    if u == v:
        return
    assert edge(u, v, w) == edge(v, u, w)


def test_dense_graph_from_edges():
    g = DenseGraph.from_edges([edge(2, 1, 3.0), edge(3, 4, 1.0)], vertices=[9])
    assert g.n == 5
    assert g.m == 2
    assert g.edges[0] == edge(1, 2, 3.0)
    assert g.edge_set == set(g.edges)
    assert g.edge_set is g.edge_set  # built once per graph
    with pytest.raises(ValueError):
        DenseGraph.from_edges([edge(1, 2, 3.0), edge(2, 1, 4.0)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\) in graph"):
        DenseGraph.from_edges([edge(3, 4, 1.0), edge(4, 3, 1.0),
                               edge(2, 1, 4.0), edge(1, 2, 3.0)])


def test_is_matching():
    assert is_matching([edge(1, 2, 1.0), edge(3, 4, 1.0)])
    assert not is_matching([edge(1, 2, 1.0), edge(2, 3, 1.0)])
    assert is_matching([])


# -- open_stream against the plain line-by-line parser ---------------------

_PAIRS = st.sampled_from([(u, v) for u in range(12) for v in range(12) if u != v])
_ODD_IDS = st.sampled_from(["-1", "-2", "+3", "1_0", "03", "2.0", "x", "1e3"])
# nan, inf and -0.0 get a branch of their own so each shows up often.
_ODD_WEIGHTS = st.one_of(st.floats().map(repr), st.sampled_from([
    "1e3", "+3", "1_0", "-inf", "0", "1e309", "1e-320", "-1", "w", ".5"]),
    st.sampled_from(["nan", "inf", "-0.0"]))
_SEPS = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", " \t"])


@st.composite
def _edge_line(draw, good: int):
    """A good `u v w` line `good` times as often as each of: a loop, an
    odd id or weight spelling, a token too few or too many."""
    u, v = draw(_PAIRS)
    tokens = [str(u), str(v), repr(draw(st.floats(1e-3, 1e6)))]
    odd = draw(st.sampled_from(["none"] * good + ["loop", "id", "weight", "count"]))
    if odd == "loop":
        tokens[1] = tokens[0]
    elif odd == "id":
        tokens[draw(st.integers(0, 1))] = draw(_ODD_IDS)
    elif odd == "weight":
        tokens[2] = draw(_ODD_WEIGHTS)
    elif odd == "count":
        tokens = tokens[:2] if draw(st.booleans()) else tokens + ["7"]
    text = draw(_SEPS).join(tokens)
    return draw(st.sampled_from(["", "", " ", "\t"])) + text + draw(
        st.sampled_from(["", "", " ", "\xa0"]))


_OTHER_LINES = st.sampled_from([
    "# comment", "  # 1 2 3.0", "#", "", "   ", "\t", "\xa0",
    "p 6 3", "p 3", "p x 1", "pq 1 2"])


@st.composite
def _stream_text(draw):
    """Stream text mixing good edge lines with comments, blank lines,
    odd spacing and spellings, bad tokens, loops, duplicates, a `p`
    line in mid-stream, and headers that are malformed or whose edge
    count is off by one."""
    # Some streams are mostly good lines, others mostly odd ones.
    good = draw(st.sampled_from([1, 40]))
    line = st.sampled_from(["edge"] * 24 + ["other"]).flatmap(
        lambda kind: _edge_line(good) if kind == "edge" else _OTHER_LINES)
    body = draw(st.lists(line, max_size=16))
    header = draw(st.sampled_from([None] * 8 + ["count"] * 10
                                  + ["p 4", "p -1 1", "p a b"]))
    if header == "count":
        meaningful = sum(1 for s in body
                         if s.strip() and not s.strip().startswith("#"))
        off = draw(st.sampled_from([0, 0, 0, -1, 1]))
        header = f"p 10 {max(0, meaningful + off)}"
    lines = body if header is None else [header, *body]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(s + end for s, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse):
    try:
        vertex_count, edge_count, edges = parse()
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return vertex_count, edge_count, [(type(e), *e) for e in edges]


@given(_stream_text(), st.sampled_from(["error", "skip"]))
@settings(max_examples=400, deadline=None)
def test_open_stream_matches_reference_parser(text, on_duplicate):
    """The inline fast path and the checked path together yield the
    edges of the plain parser, or raise its error class and message."""
    def ours():
        stream = open_stream(io.StringIO(text, newline=None),
                             on_duplicate=on_duplicate)
        return stream.vertex_count, stream.edge_count, list(stream)

    def reference():
        return reference_stream(io.StringIO(text, newline=None), on_duplicate)

    assert _outcome(ours) == _outcome(reference)


@st.composite
def _dense_stream_text(draw):
    """Stream text under a small `p n m` header, or none, whose pairs
    mostly are new and have both ids below n, so that the parser moves
    the pairs it holds to its byte table once it holds 64.  Up to three
    repeats of earlier pairs, in either order, fall anywhere, before or
    after that point; some ids are n or above, which the table never
    holds; in some streams a few lines take the checked path."""
    n = draw(st.sampled_from([None, 0, 1, 12, 16, 24]))
    below = n if n else 10
    fresh = iter(draw(st.permutations(
        [(u, v) for v in range(below) for u in range(v)])))
    kinds = st.sampled_from(["low"] * 30 + ["high"]
                            + ["odd"] * draw(st.sampled_from([0, 0, 1])))
    length = draw(st.integers(0, 140))
    repeats = draw(st.lists(st.integers(0, length), max_size=3))
    lines: list[str] = []
    pairs: list[tuple[int, int]] = []
    for i in range(length):
        if i in repeats and pairs:
            u, v = draw(st.sampled_from(pairs))
        else:
            kind = draw(kinds)
            if kind == "odd":
                lines.append(draw(_edge_line(1)))
                continue
            if kind == "high":
                u = draw(st.integers(0, below + 2))
                v = draw(st.integers(below, below + 2))
            else:
                u, v = next(fresh, (0, 0))
            if u == v:
                continue
        if draw(st.booleans()):
            u, v = v, u
        pairs.append((u, v))
        lines.append(f"{u} {v} {draw(st.floats(1e-3, 1e6))!r}")
    if n is not None:
        count = len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        lines.insert(0, f"p {n} {max(0, count)}")
    return "".join(f"{line}\n" for line in lines)


@given(_dense_stream_text(), st.sampled_from(["error", "skip"]))
@settings(max_examples=200, deadline=None)
def test_open_stream_matches_reference_parser_on_dense_streams(text,
                                                               on_duplicate):
    """A dense declared stream parses as the plain parser parses it,
    repeats caught or skipped alike before and after the parser moves
    its pairs to the byte table, and for ids at or above n."""
    def ours():
        stream = open_stream(io.StringIO(text), on_duplicate=on_duplicate)
        return stream.vertex_count, stream.edge_count, list(stream)

    def reference():
        return reference_stream(io.StringIO(text), on_duplicate)

    assert _outcome(ours) == _outcome(reference)


def _parse_peak(text: str, on_duplicate: str = "error") -> int:
    """Peak traced bytes of parsing `text`, its edges dropped as read;
    a header's wrong edge count is not an error here."""
    fh = io.StringIO(text)
    tracemalloc.start()
    try:
        try:
            for _ in open_stream(fh, on_duplicate=on_duplicate):
                pass
        except StreamFormatError as exc:
            assert "header declares" in str(exc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_declared_stream_holds_about_n_squared_bytes():
    """Repeats in a declared stream of 8,000 pairs on 200 vertices are
    found in under 2 n*n bytes: one byte per pair once the stream is
    dense, where a set of the pairs would hold over 600 KB."""
    n = 200
    rng = random.Random(7)
    pairs = rng.sample([(u, v) for v in range(n) for u in range(v)], 8000)
    text = f"p {n} {len(pairs)}\n" + "".join(
        f"{v} {u} {rng.uniform(0.1, 10.0)!r}\n" for u, v in pairs)
    assert _parse_peak(text) < 2 * n * n
    for u, v in (pairs[0], pairs[-1]):
        with pytest.raises(DuplicateEdgeError,
                           match=f"line 8002: duplicate edge {u} {v} "):
            list(open_stream(io.StringIO(text + f"{u} {v} 1.0\n")))


def test_pairs_at_or_above_n_stay_in_the_set():
    """Under `p 16 m` the parser first tries the table after 64 edge
    lines, and moves if at most 4 of the 64 pairs held have an id of 16
    or more.  With the pair 3 20 read first and pairs below 16 after
    it, the first 63 of those move to the table and 3 20 stays in the
    set: a repeat of either kind is still found, and so is one of a
    pair read after the move."""
    low = [(u, v) for v in range(16) for u in range(v)]
    pairs = [(3, 20)] + low[:70]
    text = f"p 16 {len(pairs) + 1}\n" + "".join(
        f"{u} {v} 1.0\n" for u, v in pairs)
    for u, v in ((3, 20), low[0], low[62], low[69]):
        with pytest.raises(DuplicateEdgeError,
                           match=f"line 73: duplicate edge {u} {v} "):
            list(open_stream(io.StringIO(text + f"{v} {u} 2.0\n")))


def test_sparse_declared_stream_builds_no_table():
    """A declared stream whose pairs mostly have an id at or above n
    never moves them to a table, even once n*n/64 pairs below n are
    held among them: it peaks within a few KiB of the same lines with
    no header."""
    rng = random.Random(3)
    high = rng.sample([(u, v) for v in range(200, 400) for u in range(v)],
                      3700)
    low = rng.sample([(u, v) for v in range(200) for u in range(v)], 700)
    pairs = high[:700] + low + high[700:]
    body = "".join(f"{u} {v} 1.0\n" for u, v in pairs)
    with_header = _parse_peak(f"p 200 {len(pairs)}\n" + body)
    assert with_header < _parse_peak(body) + 4 * 1024


def test_header_alone_allocates_nothing():
    """A header declaring 100,000 vertices reserves no table: with
    three edge lines behind it, parsing peaks within a few KiB of the
    same three lines with no header."""
    body = "1 2 1.0\n70000 99999 2.0\n5 99999 3.0\n"
    with_header = _parse_peak("p 100000 1000000000\n" + body)
    without = _parse_peak(body)
    assert with_header < without + 4 * 1024


def test_skipped_repeats_build_no_table(caplog):
    """Repeats skipped under `p 256 m` do not count as pairs held: 1,100
    lines of one pair never build the 64 KiB table, and parsing peaks
    within a few KiB of the same lines with no header."""
    caplog.set_level(logging.ERROR, logger="shadowmatch.graph")
    body = "1 2 1.0\n" * 1100
    with_header = _parse_peak("p 256 1100\n" + body, "skip")
    assert with_header < _parse_peak(body, "skip") + 4 * 1024


def test_parsed_golden_edges_are_plain_edges():
    """The parser builds each edge without Edge's own constructor: every
    edge of a golden stream is still exactly an Edge, equal to the one
    the checked factory builds."""
    golden = Path(__file__).parent / "golden" / "gnp.txt"
    edges = list(open_stream(golden))
    assert len(edges) == 1093
    for e in edges:
        assert type(e) is Edge
        assert e == edge(e.u, e.v, e.w)
