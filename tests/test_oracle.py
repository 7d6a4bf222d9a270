"""The exact oracle, on both its paths, against independent references."""

from __future__ import annotations

import math
import random

import pytest

from helpers import naive_max_matching_weight, random_edge_list
from shadowmatch import oracle
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


WEIGHTS = pytest.mark.parametrize("weight", [
    lambda rng: math.exp(rng.uniform(0, 150)),
    lambda rng: float(rng.randint(1, 3)),
    lambda rng: 1.0 - rng.random(),
], ids=["exp-wide", "integer-ties", "uniform"])


@WEIGHTS
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


def _tree_pairs(rng: random.Random, vertices: list[int]) -> list[tuple]:
    """A random tree, path or star spanning `vertices`."""
    shape = rng.choice(["tree", "path", "star"])
    pairs = []
    for i in range(1, len(vertices)):
        j = {"tree": rng.randrange(i), "path": i - 1, "star": 0}[shape]
        pairs.append((vertices[j], vertices[i]))
    return pairs


def _random_forest(rng: random.Random, weight) -> DenseGraph:
    """One to three trees on shuffled ids, at most 16 edges in all, plus
    up to three isolated vertices."""
    ids = list(range(40))
    rng.shuffle(ids)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        room = 16 - len(pairs)
        if room < 1:
            break
        size = rng.randint(2, room + 1)
        tree, ids = ids[:size], ids[size:]
        pairs += _tree_pairs(rng, tree)
    isolated = ids[:rng.randint(0, 3)]
    return DenseGraph.from_edges([edge(u, v, weight(rng)) for u, v in pairs],
                                 vertices=isolated)


def _branch_and_bound_weight(g: DenseGraph) -> float:
    return math.fsum(e.w for e in sorted(oracle._branch_and_bound(g)))


@WEIGHTS
def test_forest_path_vs_naive_and_branch_and_bound(weight):
    rng = random.Random(31)
    for _ in range(60):
        g = _random_forest(rng, weight)
        assert g.m <= 16
        assert oracle._forest_matching(g) is not None
        res = max_weight_matching(g)
        assert is_matching(res.matching)
        assert set(res.matching) <= set(g.edges)
        assert res.weight == naive_max_matching_weight(list(g.edges)), g
        assert res.weight == _branch_and_bound_weight(g), g


def test_forest_path_compares_in_exact_integers():
    # a path rooted at 0: in floats 2**55 - 1.5 rounds to 2**55, which
    # ties the heavy edges and loses the 4.5 that makes the optimum
    heavy = 2.0 ** 55
    edges = [edge(0, 1, heavy), edge(1, 2, heavy), edge(2, 3, 4.5),
             edge(3, 4, 3.0)]
    res = max_weight_matching(DenseGraph.from_edges(edges))
    assert res.matching == (edge(0, 1, heavy), edge(2, 3, 4.5))
    assert res.weight == heavy + 8 == naive_max_matching_weight(edges)


@pytest.mark.parametrize("edges, isolated", [
    # a triangle beside isolated vertices
    ([edge(0, 1, 2.0), edge(1, 2, 3.0), edge(0, 2, 2.5)], [3, 4, 5]),
    # a 4-cycle with a pendant path, and a disjoint edge
    ([edge(0, 1, 1.0), edge(1, 2, 4.0), edge(2, 3, 1.0), edge(0, 3, 4.0),
      edge(3, 4, 2.0), edge(4, 5, 3.0), edge(6, 7, 0.5)], []),
], ids=["triangle", "cycle-pendant"])
def test_graphs_with_a_cycle_take_branch_and_bound(monkeypatch, edges,
                                                   isolated):
    g = DenseGraph.from_edges(edges, vertices=isolated)
    assert g.m < g.n
    assert oracle._forest_matching(g) is None
    branch_and_bound = oracle._branch_and_bound
    calls = []

    def counted(graph):
        calls.append(graph)
        return branch_and_bound(graph)

    monkeypatch.setattr(oracle, "_branch_and_bound", counted)
    assert max_weight_matching(g).weight == naive_max_matching_weight(edges)
    assert calls == [g]


def _blossom_weight(g: DenseGraph) -> float:
    import networkx as nx

    nxg = nx.Graph()
    for e in g.edges:
        nxg.add_edge(e.u, e.v, weight=int(e.w))
    mate = nx.max_weight_matching(nxg)
    return float(sum(nxg[u][v]["weight"] for u, v in mate))


def test_large_forests_match_networkx_blossom():
    rng = random.Random(37)
    tree = [edge(rng.randrange(i), i, float(rng.randint(1, 1000)))
            for i in range(1, 301)]
    # a 100-vertex spine, each spine vertex with four legs
    spine = [edge(i, i + 1, float(rng.randint(1, 1000))) for i in range(99)]
    legs = [edge(i, 100 + 4 * i + j, float(rng.randint(1, 1000)))
            for i in range(100) for j in range(4)]
    for edges in (tree, spine + legs):
        g = DenseGraph.from_edges(edges)
        res = max_weight_matching(g, edge_limit=len(edges))
        assert is_matching(res.matching)
        assert res.weight == _blossom_weight(g)
