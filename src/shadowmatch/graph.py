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
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from dataclasses import dataclass, field
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

    def covers(self, vertex: int) -> bool:
        return vertex == self.u or vertex == self.v

    def shares_vertex(self, other: "Edge") -> bool:
        return (self.u == other.u or self.u == other.v
                or self.v == other.u or self.v == other.v)


def edge(u: int, v: int, w: float) -> Edge:
    """Validate and canonicalize an edge description.

    Parameters
    ----------
    u, v : int
        Distinct non-negative vertex ids.  Order does not matter.
    w : float
        Strictly positive, finite weight.

    Returns
    -------
    Edge with endpoints swapped into (min, max) order.

    Raises
    ------
    ValueError
        If the endpoints form a loop, are negative, or the weight is
        not a positive finite real.
    """
    if not isinstance(u, int) or not isinstance(v, int):
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

    def lines() -> Iterator[tuple[int, str]]:
        for n, raw in enumerate(fh, 1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                yield n, stripped

    # Pull lines up to and including the first meaningful one so a
    # header, if present, is known before anyone iterates.
    numbered = lines()
    vertex_count = edge_count = None
    try:
        first = next(numbered, None)
        if first is not None and first[1].startswith("p"):
            line_no, stripped = first
            first = None
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
    except Exception:
        if owns:
            fh.close()
        raise
    pending = [] if first is None else [first]

    def edges() -> Iterator[Edge]:
        seen: set[tuple[int, int]] = set()
        read = 0
        try:
            for n, stripped in itertools.chain(pending, numbered):
                e = parse_edge_line(stripped, n)
                read += 1
                if e.key in seen:
                    if on_duplicate == "error":
                        raise DuplicateEdgeError(
                            f"duplicate edge {e.u} {e.v} (weights may differ)", n)
                    log.warning("%s line %d: skipping duplicate edge %d %d",
                                name, n, e.u, e.v)
                    continue
                seen.add(e.key)
                yield e
        finally:
            if owns:
                fh.close()
        if edge_count is not None and read != edge_count:
            raise StreamFormatError(
                f"header declares {edge_count} edges, the stream has {read}")

    return EdgeStream(edges(), vertex_count=vertex_count,
                      edge_count=edge_count, source=name)


def write_stream(edges: Iterable[Edge], fh: IO[str], *,
                 vertex_count: int | None = None) -> int:
    """Write edges in stream text form; returns the number written."""
    edges = list(edges)
    if vertex_count is None:
        vertex_count = len({x for e in edges for x in e.key})
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
            dup = next(k for k in keys if keys.count(k) > 1)
            raise ValueError(f"duplicate edge {dup} in graph")
        verts = set(vertices)
        for e in es:
            verts.add(e.u)
            verts.add(e.v)
        return DenseGraph(frozenset(verts), es)

    def total_weight(self) -> float:
        return math.fsum(e.w for e in self.edges)


def is_matching(edges: Iterable[Edge]) -> bool:
    """True iff no two of the given edges share a vertex."""
    seen: set[int] = set()
    for e in edges:
        if e.u in seen or e.v in seen:
            return False
        seen.add(e.u)
        seen.add(e.v)
    return True


def matching_weight(edges: Iterable[Edge]) -> float:
    """Total weight of an edge set, summed stably."""
    return math.fsum(e.w for e in edges)
