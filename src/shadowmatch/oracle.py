"""Exact maximum weight matching for small graphs, by one of two paths.

This is the reference the streaming matchers are measured against.  The
path is chosen by a property of the input: whether the graph has a
cycle.  A forest (m < n, and a search meets no cycle) is solved by the
textbook tree DP in O(n + m), with every weight an integer over one
power-of-two denominator, so it is exact by construction.  The DP needs
acyclicity: it decides each subtree apart from the rest, which a cycle
would tie together.  It pays off because slices of a sparse stream are
mostly forests, where the branch-and-bound size bound below seldom
binds and the search makes hundreds of calls per instance.  Every
graph with a cycle goes to branch and bound.

Branch and bound enumerates include/exclude decisions over the edges in
descending weight order, pruning branches whose remaining weight cannot
beat the incumbent.  A greedy matching seeds the incumbent so pruning
bites early.  Exponential in the worst case, which is fine at desk
scale; anything past `edge_limit` is refused, on either path, rather
than silently crawling.  It prunes on float sums, so unlike the DP it
is exact only up to their rounding.

A branch at edge i with `chosen` edges taken is bounded by the weight
of the `room = n // 2 - len(chosen)` heaviest edges left, which are
edges i .. i + room - 1 of the descending order.  That bound is valid
because a matching on n vertices holds at most n // 2 edges, so any
completion adds at most `room` of the remaining edges, and no `room`
of them outweigh the `room` heaviest.  It never exceeds the sum of all
remaining edges, and it is read in O(1) as a difference of suffix
sums, padded with zeros past the last edge.  Suffix sums, not prefix
sums: a prefix difference carries the rounding error of the heavy
edges already passed, which can swamp a light tail and stop a prune.

Either path reports the `fsum` of its matching's weights.  That sum is
correctly rounded, so every exact optimum reports the same float, and
a sum past the float range raises OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import DenseGraph, Edge


class OracleCapacityError(RuntimeError):
    """The instance exceeds the configured oracle edge budget."""


@dataclass(frozen=True)
class OptimalResult:
    """An optimal matching and its weight.

    The weight is the global maximum.  When several matchings attain
    it, which one is returned is unspecified (but deterministic
    for a given input).
    """

    weight: float
    matching: tuple[Edge, ...]


def max_weight_matching(graph: DenseGraph, *, edge_limit: int = 40) -> OptimalResult:
    """Compute a maximum weight matching of `graph` exactly.

    A forest is solved by tree DP in exact integers, any graph with a
    cycle by branch and bound; see the module docstring.

    Parameters
    ----------
    graph : DenseGraph
        The instance; edge order does not influence the result weight.
    edge_limit : int
        Refuse instances with more edges than this (default 40; below
        0 is a ValueError) by raising OracleCapacityError, forests included.

    Returns
    -------
    OptimalResult
    """
    if edge_limit < 0:
        raise ValueError(f"edge_limit must be at least 0, got {edge_limit}")
    m = len(graph.edges)
    if m > edge_limit:
        raise OracleCapacityError(
            f"instance has {m} edges, oracle budget is {edge_limit}")
    if m == 0:
        return OptimalResult(0.0, ())
    found = _forest_matching(graph) if m < graph.n else None
    if found is None:
        found = _branch_and_bound(graph)
    matching = tuple(sorted(found))
    return OptimalResult(math.fsum(e.w for e in matching), matching)


def _forest_matching(graph: DenseGraph) -> list[Edge] | None:
    """A maximum weight matching of `graph` by tree DP, or None if the
    graph has a cycle.

    Root each tree anywhere.  Matching x to a child c instead of
    leaving x free adds `w(x, c) - gain[c]`, so the most it can add is
    `gain[x] = max(0, max over children c of w(x, c) - gain[c])`, won
    at child `pick[x]`.  Weights are integers over one power-of-two
    denominator, so every comparison is exact.
    """
    # adj[x] holds a link (y, x, e) per edge e between x and y
    adj: dict[int, list] = {x: [] for x in sorted(graph.vertices)}
    for e in graph.edges:
        adj[e.u].append((e.v, e.u, e))
        adj[e.v].append((e.u, e.v, e))
    up = {}            # vertex -> link from its parent, None at a root
    order = []         # every parent before its children
    for root in adj:
        if root in up:
            continue
        up[root] = None
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for link in adj[x]:
                if link[0] not in up:
                    up[link[0]] = link
                    stack.append(link[0])
    links = [up[y] for y in reversed(order) if up[y] is not None]
    if len(links) != len(graph.edges):
        return None    # some edge closed a cycle

    ratios = [e.w.as_integer_ratio() for _, _, e in links]
    den = max(d for _, d in ratios)
    gain = dict.fromkeys(order, 0)
    pick = {}
    for (y, x, e), (num, d) in zip(links, ratios):
        g = num * (den // d) - gain[y]
        if g > gain[x]:
            gain[x] = g
            pick[x] = (y, e)
    taken: list[Edge] = []
    matched = set()    # vertices matched to their parent
    for x in order:
        if x in pick and x not in matched:
            y, e = pick[x]
            matched.add(y)
            taken.append(e)
    return taken


def _branch_and_bound(graph: DenseGraph) -> list[Edge]:
    """A maximum weight matching of a non-empty `graph` by branch and
    bound; see the module docstring."""
    m = len(graph.edges)
    edges = sorted(graph.edges, key=lambda e: (-e.w, e.u, e.v))
    suffix = [0.0] * (m + 1 + graph.n // 2)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + edges[i].w

    # Greedy incumbent: heaviest-first, take what fits.
    best_set: list[Edge] = []
    used: set[int] = set()
    for e in edges:
        if e.u not in used and e.v not in used:
            best_set.append(e)
            used.add(e.u)
            used.add(e.v)
    best_w = sum(e.w for e in best_set)

    chosen: list[Edge] = []
    occupied: set[int] = set()

    def walk(i: int, current: float, room: int) -> None:
        nonlocal best_w, best_set
        if current > best_w:
            best_w = current
            best_set = list(chosen)
        while i < m:
            if current + (suffix[i] - suffix[i + room]) <= best_w:
                return
            e = edges[i]
            if e.u not in occupied and e.v not in occupied:
                chosen.append(e)
                occupied.add(e.u)
                occupied.add(e.v)
                walk(i + 1, current + e.w, room - 1)
                chosen.pop()
                occupied.discard(e.u)
                occupied.discard(e.v)
            i += 1

    walk(0, 0.0, graph.n // 2)
    return best_set
