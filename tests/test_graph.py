"""Edge canonicalization, parsing, and stream handling."""

from __future__ import annotations

import io
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
