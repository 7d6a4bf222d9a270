"""Seeded generators: shapes, weights, determinism, stream orders."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from shadowmatch.generators import (GADGET_EDGES, GRAPH_KINDS, WEIGHT_KINDS,
                                    GeneratorSpec, WeightSpec, generate,
                                    stream_orders)
from shadowmatch.graph import DenseGraph, edge
from shadowmatch.shadow import run_stream


def test_path_shape():
    graph, stream = generate(GeneratorSpec("path", n=4, seed=3))
    assert [e.key for e in graph.edges] == [(0, 1), (1, 2), (2, 3)]
    assert sorted(stream) == list(graph.edges)


def test_cycle_shape():
    graph, _ = generate(GeneratorSpec("cycle", n=5, seed=3))
    pairs = [(e.u, e.v) for e in graph.edges]
    assert len(pairs) == 5
    degree = Counter(x for p in pairs for x in p)
    assert all(degree[x] == 2 for x in range(5))


def test_cycle_too_small():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("cycle", n=2))


def test_complete_shape():
    graph, _ = generate(GeneratorSpec("complete", n=6, seed=1))
    assert len(graph.edges) == 15


def test_gnp_edge_count_and_probability_extremes():
    empty, _ = generate(GeneratorSpec("gnp-random", n=8, p=0.0, seed=5))
    assert empty.edges == ()
    full, _ = generate(GeneratorSpec("gnp-random", n=8, p=1.0, seed=5))
    assert len(full.edges) == 28


def test_geometric_chain_is_ascending_in_stream_order():
    graph, stream = generate(GeneratorSpec("geometric-chain", n=6, q=2.0))
    order = list(stream)
    assert [e.w for e in order] == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert [(e.u, e.v) for e in order] == [(0, 1), (1, 2), (2, 3), (3, 4),
                                           (4, 5)]
    assert set(order) == set(graph.edges)


def test_gadget_shape_and_fixed_order():
    graph, stream = generate(GeneratorSpec("shadow-gadget"))
    order = list(stream)
    assert tuple(order) == GADGET_EDGES
    assert len(graph.vertices) == 8
    # the final edge arrives last and pairs with the parked heavy edge
    result = run_stream(list(GADGET_EDGES), 1.5)
    assert edge(0, 1, 6.0) in result.matching
    assert edge(2, 4, 6.0) in result.matching


def test_stream_is_permutation_of_graph():
    for kind in ("gnp-random", "complete", "path", "cycle"):
        n = 6 if kind != "cycle" else 5
        graph, stream = generate(GeneratorSpec(kind, n=n, seed=9))
        assert sorted(stream) == list(graph.edges)


def test_generation_is_deterministic():
    spec = GeneratorSpec("gnp-random", n=10, p=0.4, seed=77)
    g1, s1 = generate(spec)
    g2, s2 = generate(spec)
    assert g1.edges == g2.edges
    assert list(s1) == list(s2)


def test_seed_changes_the_draw():
    a, _ = generate(GeneratorSpec("gnp-random", n=10, p=0.5, seed=1))
    b, _ = generate(GeneratorSpec("gnp-random", n=10, p=0.5, seed=2))
    assert a.edges != b.edges


def test_weight_kinds_inventory():
    assert set(WEIGHT_KINDS) == {"uniform", "integer-uniform", "powers-of-q"}
    assert "shadow-gadget" in GRAPH_KINDS


def test_uniform_weights_respect_bounds():
    spec = GeneratorSpec("complete", n=6, seed=4,
                         weights=WeightSpec("uniform", lo=0.5, hi=2.0))
    graph, _ = generate(spec)
    assert all(0.5 <= e.w < 2.0 for e in graph.edges)


def test_integer_weights_are_integral():
    spec = GeneratorSpec("complete", n=6, seed=4,
                         weights=WeightSpec("integer-uniform", lo=1, hi=10))
    graph, _ = generate(spec)
    assert all(e.w == int(e.w) and 1 <= e.w <= 10 for e in graph.edges)


def test_power_weights_are_powers():
    spec = GeneratorSpec("complete", n=6, seed=4,
                         weights=WeightSpec("powers-of-q", q=2.0,
                                            max_exponent=8))
    graph, _ = generate(spec)
    for e in graph.edges:
        j = math.log2(e.w)
        assert j == int(j) and 0 <= j <= 8


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("nope")
    with pytest.raises(ValueError):
        WeightSpec("uniform", lo=5.0, hi=1.0)
    with pytest.raises(ValueError):
        WeightSpec("powers-of-q", q=1.0)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nope", n=3)
    with pytest.raises(ValueError):
        GeneratorSpec("gnp-random", n=3, p=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec("path", n=-1)


def test_instance_id_distinguishes_parameters():
    ids = {GeneratorSpec("gnp-random", n=8, p=0.5, seed=s).instance_id()
           for s in range(5)}
    assert len(ids) == 5
    assert "p0.5" in GeneratorSpec("gnp-random", n=8, p=0.5).instance_id()


def test_stream_orders_exhaustive_when_small():
    graph = DenseGraph.from_edges(
        [edge(0, 1, 1.0), edge(1, 2, 5.0), edge(2, 3, 1.0)], range(4))
    orders = stream_orders(graph, count=6, seed=0)
    assert len(orders) == 6
    assert {label for label, _ in orders} == {f"perm{i}" for i in range(6)}
    assert len({order for _, order in orders}) == 6
    for _, order in orders:
        assert sorted(order) == list(graph.edges)


def test_stream_orders_shuffled_when_large():
    graph, _ = generate(GeneratorSpec("complete", n=6, seed=2))
    orders = stream_orders(graph, count=4, seed=11)
    assert [label for label, _ in orders] == ["shuf0", "shuf1", "shuf2",
                                              "shuf3"]
    for _, order in orders:
        assert sorted(order) == list(graph.edges)
    again = stream_orders(graph, count=4, seed=11)
    assert orders == again
    other = stream_orders(graph, count=4, seed=12)
    assert orders != other


def test_stream_orders_count_validation():
    graph = DenseGraph.from_edges([edge(0, 1, 1.0)])
    with pytest.raises(ValueError):
        stream_orders(graph, count=0, seed=0)
