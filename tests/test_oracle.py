"""The exact branch-and-bound oracle against independent references."""

from __future__ import annotations

import math
import random

import pytest

from helpers import naive_max_matching_weight, random_edge_list
from shadowmatch.baseline import run_baseline
from shadowmatch.graph import DenseGraph, edge, is_matching
from shadowmatch.oracle import (OracleCapacityError, max_weight_matching)
from shadowmatch.shadow import run_stream


def test_empty_graph():
    res = max_weight_matching(DenseGraph.from_edges([]))
    assert res.weight == 0.0
    assert res.matching == ()


def test_single_edge():
    res = max_weight_matching(DenseGraph.from_edges([edge(1, 2, 3.5)]))
    assert res.weight == 3.5


def test_triangle_takes_heaviest():
    g = DenseGraph.from_edges([edge(1, 2, 1.0), edge(2, 3, 2.0),
                               edge(1, 3, 3.0)])
    res = max_weight_matching(g)
    assert res.weight == 3.0
    assert res.matching == (edge(1, 3, 3.0),)


def test_path_prefers_middle():
    # the four matchings weigh 0, 1, 5, 1, and 2; the middle edge wins
    g = DenseGraph.from_edges([edge(1, 2, 1.0), edge(2, 3, 5.0),
                               edge(3, 4, 1.0)])
    res = max_weight_matching(g)
    assert res.weight == 5.0
    assert res.matching == (edge(2, 3, 5.0),)


def test_path_prefers_ends_when_they_add_up():
    g = DenseGraph.from_edges([edge(1, 2, 3.0), edge(2, 3, 5.0),
                               edge(3, 4, 3.0)])
    assert max_weight_matching(g).weight == 6.0


def test_witness_is_a_matching_from_the_instance():
    rng = random.Random(2)
    for _ in range(30):
        edges = random_edge_list(rng, max_n=9)
        g = DenseGraph.from_edges(edges)
        res = max_weight_matching(g)
        assert is_matching(res.matching)
        assert set(res.matching) <= set(g.edges)


def test_capacity_error():
    edges = [edge(i, i + 1, 1.0) for i in range(45)]
    with pytest.raises(OracleCapacityError):
        max_weight_matching(DenseGraph.from_edges(edges))
    # a bigger budget admits the same instance
    res = max_weight_matching(DenseGraph.from_edges(edges), edge_limit=50)
    assert res.weight == 23.0


def test_oracle_vs_naive_enumeration():
    rng = random.Random(13)
    done = 0
    while done < 120:
        edges = random_edge_list(rng, max_n=6,
                                 integer_weights=done % 3 == 0)
        if len(edges) > 10:
            continue
        done += 1
        g = DenseGraph.from_edges(edges)
        expect = naive_max_matching_weight(edges)
        got = max_weight_matching(g).weight
        assert abs(got - expect) < 1e-12, (edges, got, expect)


def _near_complete_graph(rng: random.Random, weight) -> DenseGraph:
    """Complete on 2-6 vertices less up to two edges, plus up to three
    isolated vertices, which raise the matching-size bound's room."""
    k = rng.randint(2, 6)
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for _ in range(rng.randint(0, min(2, len(pairs) - 1))):
        pairs.pop(rng.randrange(len(pairs)))
    isolated = range(k, k + rng.randint(0, 3))
    return DenseGraph.from_edges([edge(u, v, weight(rng)) for u, v in pairs],
                                 vertices=isolated)


@pytest.mark.parametrize("weight", [
    lambda rng: math.exp(rng.uniform(0, 150)),
    lambda rng: float(rng.randint(1, 3)),
    lambda rng: 1.0 - rng.random(),
], ids=["exp-wide", "integer-ties", "uniform"])
def test_oracle_vs_naive_on_near_complete_graphs(weight):
    rng = random.Random(29)
    for _ in range(400):
        g = _near_complete_graph(rng, weight)
        expect = naive_max_matching_weight(list(g.edges))
        assert max_weight_matching(g).weight == expect, g


def test_order_independence():
    rng = random.Random(17)
    edges = random_edge_list(rng, max_n=10)
    g1 = DenseGraph.from_edges(edges)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    g2 = DenseGraph.from_edges(shuffled)
    assert max_weight_matching(g1).weight == max_weight_matching(g2).weight


def test_oracle_dominates_streaming_matchers():
    rng = random.Random(19)
    for _ in range(40):
        edges = random_edge_list(rng, max_n=10)
        g = DenseGraph.from_edges(edges)
        opt = max_weight_matching(g).weight
        assert opt >= run_stream(list(edges), 1.717).weight - 1e-9
        assert opt >= run_baseline(list(edges), 1.0).weight - 1e-9


def test_cross_check_against_networkx_blossom():
    # third, independent route; integer weights keep it exact
    import networkx as nx

    rng = random.Random(23)
    for _ in range(40):
        edges = random_edge_list(rng, max_n=9, integer_weights=True)
        g = DenseGraph.from_edges(edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(10))
        for e in edges:
            nxg.add_edge(e.u, e.v, weight=e.w)
        mate = nx.max_weight_matching(nxg)
        expect = sum(nxg[u][v]["weight"] for u, v in mate)
        assert max_weight_matching(g).weight == expect
    # complete graphs on 11 vertices, the shape of desk's compare files
    for _ in range(4):
        nxg = nx.complete_graph(11)
        for u, v in nxg.edges:
            nxg[u][v]["weight"] = rng.randint(1, 100)
        g = DenseGraph.from_edges(edge(u, v, float(d["weight"]))
                                  for u, v, d in nxg.edges(data=True))
        mate = nx.max_weight_matching(nxg)
        expect = sum(nxg[u][v]["weight"] for u, v in mate)
        assert max_weight_matching(g, edge_limit=55).weight == expect
