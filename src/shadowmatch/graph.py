"""Edge, stream, and graph primitives shared by all matchers.

Graphs are simple and undirected with positive real edge weights.  An
edge is identified by its endpoint pair; the pair is kept in canonical
(min, max) order so that the same edge always compares and hashes the
same way regardless of how it was written down.

Streams are single-pass: an :class:`EdgeStream` hands out its edges
once, in order, and refuses to be consumed twice.  The text format is
line oriented:

    # comment lines start with a hash
    p 4 3        (optional header: vertex count, edge count)
    1 2 1.0
    2 3 10.0
    3 4 1.0

Blank lines are ignored.  Files are UTF-8 with LF or CRLF endings.

A repeated endpoint pair is found exactly, at the cost of one int per
distinct pair read, and at most n*n bytes for the pairs with both ids
below a declared n once the stream is dense (see :func:`open_stream`).
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple, Union

log = logging.getLogger(__name__)


class StreamFormatError(ValueError):
    """Malformed stream text.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DuplicateEdgeError(StreamFormatError):
    """An edge (by endpoint pair) appeared twice in one stream."""


class Edge(NamedTuple):
    """A weighted undirected edge with endpoints in canonical order.

    Build edges through :func:`edge` (or the parser); the factory
    validates and canonicalizes.  Within a single graph or stream no
    two edges share an endpoint pair, so tuple equality doubles as
    edge identity there.
    """

    u: int
    v: int
    w: float

    @property
    def key(self) -> tuple[int, int]:
        """The identity of the edge: its canonical endpoint pair."""
        return (self.u, self.v)

    def other(self, vertex: int) -> int:
        """Return the endpoint that is not `vertex`.

        Raises ValueError if `vertex` is not an endpoint of this edge.
        """
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of {self}")

    def shares_vertex(self, other: "Edge") -> bool:
        return (self.u == other.u or self.u == other.v
                or self.v == other.u or self.v == other.v)


def edge(u: int, v: int, w: float) -> Edge:
    """Validate and canonicalize an edge description.

    Parameters
    ----------
    u, v : int
        Distinct non-negative vertex ids, not bools.  Order does not
        matter.
    w : float
        Strictly positive, finite weight.

    Returns
    -------
    Edge with endpoints swapped into (min, max) order.

    Raises
    ------
    ValueError
        If the endpoints are not integers, form a loop or are negative,
        or the weight is not a positive finite real.
    """
    # bool is an int subclass, but an Edge holding True would print it
    # as True, which is not JSON.  Plain ints, nearly every call, take
    # the one cheap test.
    if type(u) is not int or type(v) is not int:
        if (not isinstance(u, int) or not isinstance(v, int)
                or isinstance(u, bool) or isinstance(v, bool)):
            raise ValueError(f"vertex ids must be integers, got {u!r}, {v!r}")
    if u < 0 or v < 0:
        raise ValueError(f"vertex ids must be non-negative, got {u}, {v}")
    if u == v:
        raise ValueError(f"loop edge at vertex {u} is not allowed")
    w = float(w)
    if not math.isfinite(w) or w <= 0.0:
        raise ValueError(f"edge weight must be positive and finite, got {w!r}")
    if u > v:
        u, v = v, u
    return Edge(u, v, w)


def parse_edge_line(line: str, line_no: int | None = None) -> Edge:
    """Parse one `u v w` line into a canonical Edge.

    Raises StreamFormatError (naming `line_no` when given) on any
    malformed token, loop, or bad weight.
    """
    parts = line.split()
    if len(parts) != 3:
        raise StreamFormatError(
            f"expected 'u v w', got {line.strip()!r}", line_no)
    try:
        u = int(parts[0])
        v = int(parts[1])
    except ValueError:
        raise StreamFormatError(
            f"vertex ids must be integers, got {parts[0]!r} {parts[1]!r}",
            line_no) from None
    try:
        w = float(parts[2])
    except ValueError:
        raise StreamFormatError(
            f"weight must be a real number, got {parts[2]!r}", line_no) from None
    try:
        return edge(u, v, w)
    except ValueError as exc:
        raise StreamFormatError(str(exc), line_no) from None


def format_edge(e: Edge) -> str:
    """Render an edge as a stream line that parses back to the same value."""
    return f"{e.u} {e.v} {e.w!r}"


class EdgeStream:
    """An ordered, single-pass sequence of edges.

    The stream may be backed by an in-memory list or by a lazily
    parsed file.  Iterating a second time raises RuntimeError; one
    pass is all a streaming matcher gets.
    """

    def __init__(self, edges: Iterable[Edge], *, vertex_count: int | None = None,
                 edge_count: int | None = None, source: str = "<memory>"):
        self._edges = iter(edges)
        self._consumed = False
        self.vertex_count = vertex_count
        self.edge_count = edge_count
        self.source = source

    def __iter__(self) -> Iterator[Edge]:
        if self._consumed:
            raise RuntimeError(f"stream {self.source} was already consumed")
        self._consumed = True
        return self._edges

    def __repr__(self) -> str:
        return f"EdgeStream(source={self.source!r}, n={self.vertex_count})"


def open_stream(source: Union[str, "os.PathLike[str]", IO[str]], *,
                on_duplicate: str = "error") -> EdgeStream:
    """Open a stream file (or readable text object) for one pass.

    The optional header line `p <n> <m>` sets the stream's declared
    vertex and edge counts.  Comment (`#`) and blank lines are
    skipped.  Each edge line must read `u v w`.  When a header is
    present, the number of edge lines (skipped duplicates included)
    must equal m; vertex ids are not checked against n.

    Parameters
    ----------
    source
        A path or an open text file object.
    on_duplicate
        "error" (default) raises DuplicateEdgeError when an endpoint
        pair repeats; "skip" drops the repeat with a logged warning.

    Returns
    -------
    EdgeStream
        Parsing is lazy, so format errors surface during iteration
        with their line numbers, and a wrong edge count at the end.
        A file opened from a path is closed at the end, on an error,
        or when the stream is dropped unread.

    Edge lines take one of two paths.  A well-formed line (three
    tokens, integer ids that are distinct and non-negative, a positive
    finite weight) is split, converted and canonicalized inline.  Any
    other line goes to :func:`parse_edge_line`, the checked path, which
    raises the error naming what is wrong and the line number.  Both
    paths convert with `int` and `float`, so they accept the same lines
    and yield the same edges.

    Both paths then look the pair up among those already read.  Each
    pair u < v is held as the int v*v + u, about 28-32 bytes plus its
    set slot, half what a tuple of the two ids would take.  With a
    header, once n*n/64 or more of the pairs held have both ids below
    n, and at most one in 16 does not, those pairs move to a table of
    n*n bytes, one per pair, about what the set held for them; later
    such pairs cost one byte lookup and nothing more.  This is checked
    after n*n/64 edge lines, and at least 64, and again each time that
    count doubles.  Pairs with an id of n or above stay in the set.  A
    header alone allocates nothing.
    """
    if on_duplicate not in ("error", "skip"):
        raise ValueError(f"on_duplicate must be 'error' or 'skip', got {on_duplicate!r}")

    if hasattr(source, "read"):
        fh: IO[str] = source  # type: ignore[assignment]
        name = getattr(source, "name", "<buffer>")
        owns = False
    else:
        fh = open(source, "r", encoding="utf-8")
        name = str(source)
        owns = True

    # Read up to and including the first meaningful line so a header,
    # if present, is known before anyone iterates.
    numbered = enumerate(fh, 1)
    vertex_count = edge_count = None
    pending: tuple[tuple[int, str], ...] = ()
    try:
        for line_no, raw in numbered:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not stripped.startswith("p"):
                pending = ((line_no, raw),)
                break
            parts = stripped.split()
            if len(parts) != 3 or parts[0] != "p":
                raise StreamFormatError(
                    f"bad header, expected 'p <n> <m>': {stripped!r}", line_no)
            try:
                vertex_count = int(parts[1])
                edge_count = int(parts[2])
            except ValueError:
                raise StreamFormatError(
                    f"header counts must be integers: {stripped!r}",
                    line_no) from None
            if vertex_count < 0 or edge_count < 0:
                raise StreamFormatError(
                    f"header counts must be non-negative: {stripped!r}", line_no)
            break
    except Exception as exc:
        if owns:
            fh.close()
            if isinstance(exc, UnicodeDecodeError):
                raise _not_utf8(source, exc) from None
        raise

    def edges() -> Iterator[Edge]:
        # Each pair u < v is held as the int v*v + u, distinct for every
        # pair since v*v + u < (v+1)**2.  The keys below area = n*n are
        # the pairs with v < n.  After n*n/64 edge lines, and again
        # each time that count doubles, _dense_table is asked to move
        # them to a byte table.  Not before 64 lines: the set is a few
        # KiB until then, and the move costs as much as reading a few
        # edges.
        seen: set[int] = set()
        table = bytearray()
        area = 0
        dense_at = (max(vertex_count * vertex_count >> 6, 64)
                    if vertex_count else 0)
        read = 0
        try:
            # open_stream runs the generator up to here, so that closing
            # or dropping a stream it never read closes the file too.
            yield
            for n, raw in itertools.chain(pending, numbered):
                parts = raw.split()
                if not parts or parts[0][0] == "#":
                    continue
                # The fast path takes a well-formed `u v w` line whole;
                # parse_edge_line parses any other, and raises its error.
                try:
                    x, y, z = parts
                    u, v, w = int(x), int(y), float(z)
                    ok = u >= 0 and v >= 0 and u != v and 0.0 < w < math.inf
                except ValueError:
                    ok = False
                if not ok:
                    u, v, w = parse_edge_line(raw, n)
                elif u > v:
                    u, v = v, u
                read += 1
                key = v * v + u
                if key < area:
                    repeat = table[key]
                    table[key] = 1
                else:
                    repeat = key in seen
                    seen.add(key)
                    if read == dense_at:
                        table = _dense_table(seen, vertex_count)
                        if table:
                            area = len(table)
                            dense_at = 0
                        else:
                            dense_at *= 2
                if repeat:
                    if on_duplicate == "error":
                        raise DuplicateEdgeError(
                            f"duplicate edge {u} {v} (weights may differ)", n)
                    log.warning("%s line %d: skipping duplicate edge %d %d",
                                name, n, u, v)
                    continue
                # Edge(u, v, w) runs the NamedTuple's generated __new__,
                # a Python frame that costs about twice the tuple build.
                yield tuple.__new__(Edge, (u, v, w))
        except UnicodeDecodeError as exc:
            raise (_not_utf8(source, exc) if owns else exc) from None
        finally:
            if owns:
                fh.close()
        if edge_count is not None and read != edge_count:
            raise StreamFormatError(
                f"header declares {edge_count} edges, the stream has {read}")

    parse = edges()
    next(parse)
    return EdgeStream(parse, vertex_count=vertex_count,
                      edge_count=edge_count, source=name)


def _dense_table(seen: set[int], n: int) -> bytearray:
    """Move the keys of `seen` below n*n into a new table of n*n bytes,
    one flag per key, and return it; `seen` keeps the rest.

    The table is built only when it takes n*n/64 keys or more, so that
    it costs about 64 bytes or less per key, near what the set holds
    for each, and at least 15 of every 16 held keys; otherwise `seen`
    is left as it is and the table returned is empty.  The moved keys
    are first copied to an array of 8 bytes each, and `seen` is
    emptied before the table is allocated, so the set, its ints and
    the table are never held at once.
    """
    area = n * n
    low = array("Q", filter(area.__gt__, seen))
    if len(low) < area >> 6 or 16 * len(low) < 15 * len(seen):
        return bytearray()
    high = [key for key in seen if key >= area]
    seen.clear()
    seen.update(high)
    table = bytearray(area)
    for key in low:
        table[key] = 1
    return table


def _not_utf8(path, exc: UnicodeDecodeError) -> StreamFormatError:
    """The error for a stream file that is not UTF-8: the line and file
    offset of its first bad byte, found by reading the file again, split
    as text mode splits it.  A pipe cannot be read again, so its error
    keeps the decoder's message."""
    offset = 0
    if os.path.isfile(path):
        with open(path, encoding="utf-8", errors="surrogateescape",
                  newline="") as fh:
            for line_no, line in enumerate(fh, 1):
                raw = line.encode("utf-8", "surrogateescape")
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    return StreamFormatError(
                        f"not UTF-8 at byte {offset + bad.start} "
                        f"(0x{raw[bad.start]:02x}): {bad.reason}", line_no)
                offset += len(raw)
    return StreamFormatError(str(exc))


def write_stream(edges: Iterable[Edge], fh: IO[str], *,
                 vertex_count: int | None = None) -> int:
    """Write edges in stream text form; returns the number written.

    With no `vertex_count` the header's n is one more than the largest
    id (0 with no edges), so it bounds every id written.
    """
    edges = list(edges)
    if vertex_count is None:
        vertex_count = max((e.v for e in edges), default=-1) + 1
    fh.write(f"p {vertex_count} {len(edges)}\n")
    for e in edges:
        fh.write(format_edge(e) + "\n")
    return len(edges)


@dataclass(frozen=True)
class DenseGraph:
    """A fully materialized weighted graph (vertex set plus edge list).

    Only small instances are ever materialized: the exact oracle and
    the experiment harness work at desk scale, not stream scale.
    Edges are stored canonically sorted and free of duplicates.
    """

    vertices: frozenset[int]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @staticmethod
    def from_edges(edges: Iterable[Edge],
                   vertices: Iterable[int] = ()) -> "DenseGraph":
        """Build a graph, adding any endpoint missing from `vertices`.

        Raises ValueError if two edges share an endpoint pair.
        """
        es = tuple(sorted(edges))
        keys = [e.key for e in es]
        if len(set(keys)) != len(keys):
            # Sorted, so a repeated pair's edges lie next to each other.
            dup = next(a for a, b in zip(keys, keys[1:]) if a == b)
            raise ValueError(f"duplicate edge {dup} in graph")
        verts = set(vertices)
        for e in es:
            verts.add(e.u)
            verts.add(e.v)
        return DenseGraph(frozenset(verts), es)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        """The edges as a set, built on first use and kept."""
        return frozenset(self.edges)


def is_matching(edges: Iterable[Edge]) -> bool:
    """True iff no two of the given edges share a vertex."""
    seen: set[int] = set()
    for e in edges:
        if e.u in seen or e.v in seen:
            return False
        seen.add(e.u)
        seen.add(e.v)
    return True
