"""Exact maximum weight matching by branch and bound, for small graphs.

This is the reference the streaming matchers are measured against.  It
enumerates include/exclude decisions over the edges in descending
weight order, pruning branches whose remaining weight cannot beat the
incumbent.  A greedy matching seeds the incumbent so pruning bites
early.  Exponential in the worst case, which is fine at desk scale;
anything past `edge_limit` is refused rather than silently crawling.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import DenseGraph, Edge


class OracleCapacityError(RuntimeError):
    """The instance exceeds the configured branch-and-bound edge budget."""


@dataclass(frozen=True)
class OptimalResult:
    """An optimal matching and its weight.

    The weight is the global maximum.  When several matchings attain
    it, which witness is returned is unspecified (but deterministic
    for a given input).
    """

    weight: float
    matching: tuple[Edge, ...]


def max_weight_matching(graph: DenseGraph, *, edge_limit: int = 40) -> OptimalResult:
    """Compute a maximum weight matching of `graph` exactly.

    Parameters
    ----------
    graph : DenseGraph
        The instance; edge order does not influence the result weight.
    edge_limit : int
        Refuse instances with more edges than this (default 40) by
        raising OracleCapacityError.

    Returns
    -------
    OptimalResult
    """
    m = len(graph.edges)
    if m > edge_limit:
        raise OracleCapacityError(
            f"instance has {m} edges, oracle budget is {edge_limit}")
    if m == 0:
        return OptimalResult(0.0, ())

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
    witness = tuple(sorted(best_set))
    return OptimalResult(math.fsum(e.w for e in witness), witness)
