"""Experiment harness: runs, reports, serialization, corpus plumbing."""

from __future__ import annotations

import csv
import io
import math
from itertools import islice
from pathlib import Path

import pytest

from helpers import audited_run
from shadowmatch import harness, shadow
from shadowmatch.bound import optimal_k
from shadowmatch.generators import GeneratorSpec, generate
from shadowmatch.graph import DenseGraph, edge, open_stream
from shadowmatch.harness import (CSV_COLUMNS, AlgorithmSpec, aggregate,
                                 check_run_validity, default_algorithms,
                                 default_corpus, emit_report, execute,
                                 random_instances, ratio_of,
                                 read_reports_json, run_experiment,
                                 small_graph_instances)
from shadowmatch.oracle import max_weight_matching
from shadowmatch.shadow import run_stream
from shadowmatch.verify import check_locally_k_exceeding

ASCENDING = Path(__file__).parent / "golden" / "ascending.txt"
DISJOINT = [edge(0, 1, 3.0), edge(2, 3, 4.0), edge(4, 5, 5.0)]


def _path_graph():
    return DenseGraph.from_edges([edge(0, 1, 1.0), edge(1, 2, 5.0),
                                  edge(2, 3, 1.0), edge(3, 4, 4.0)], range(5))


def test_algorithm_spec_validation():
    with pytest.raises(ValueError):
        AlgorithmSpec("greedy", 2.0)
    with pytest.raises(TypeError):
        AlgorithmSpec("shadow")
    assert AlgorithmSpec("shadow", 2.0).param == 2.0
    assert AlgorithmSpec("baseline", 1.0).param == 1.0
    assert AlgorithmSpec("shadow", 2.0).label == "shadow[k=2]"
    assert AlgorithmSpec("baseline", 1.0).label == "baseline[gamma=1]"


def test_default_algorithms_lineup():
    algos = default_algorithms(1.75)
    assert [a.name for a in algos] == ["shadow", "baseline", "baseline"]
    assert algos[0].param == 1.75
    assert algos[1].param == 1.0
    assert algos[2].param == pytest.approx(0.7071067811865476)


def test_lineup_labels_the_bench_keys_on():
    """The benchmark keys its summed weights by these labels, at k*."""
    algos = default_algorithms(optimal_k()[0])
    assert [(a.label, a.param) for a in algos] == [
        ("shadow[k=1.71719]", 1.717191779457857),
        ("baseline[gamma=1]", 1.0),
        ("baseline[gamma=0.707107]", 0.7071067811865476)]


def test_execute_matches_direct_run():
    algo = AlgorithmSpec("shadow", 2.0)
    out = execute(DISJOINT, algo, verify=True)
    direct, audit = audited_run(DISJOINT, algo)
    assert out.weight == direct.weight == 12.0
    assert out.insertions == 3
    assert out.verifier_failures == 0
    assert audit.checked == 3 and audit.not_increasing == 0


def test_execute_baseline():
    algo = AlgorithmSpec("baseline", 1.0)
    out = execute(DISJOINT, algo)
    direct, audit = audited_run(DISJOINT, algo)
    assert out.weight == direct.weight == 12.0
    assert audit.checked == out.insertions == 3
    assert audit.not_increasing == 0


@pytest.mark.parametrize("algo", [AlgorithmSpec("shadow", 1.75),
                                  AlgorithmSpec("baseline", 1.0)])
def test_monotone_reads_the_exact_change_not_the_float_total(algo):
    # the second insertion adds 1.0, but 1e16 + 1.0 rounds back to 1e16
    order = [edge(0, 1, 1e16), edge(2, 3, 1.0)]
    out = execute(order, algo)
    assert out.insertions == 2
    assert out.weight == 1e16
    _, audit = audited_run(order, algo)
    assert audit.checked == 2 and audit.not_increasing == 0


@pytest.fixture
def decisions_built(monkeypatch):
    """Every InsertionDecision the step builds, in order."""
    built = []

    class Counted(shadow.InsertionDecision):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(shadow, "InsertionDecision", Counted)
    return built


def test_only_certified_runs_build_decisions(decisions_built, monkeypatch):
    """An unverified run, shadow or baseline, hands no hook a decision;
    a verified one builds one per insertion, and certifies each."""
    edges = tuple(open_stream(ASCENDING))
    k = optimal_k()[0]
    baseline = execute(edges, AlgorithmSpec("baseline", 1.0))
    plain = execute(edges, AlgorithmSpec("shadow", k))
    assert baseline.insertions > 0 and plain.insertions > 0
    graph = DenseGraph.from_edges(edges)
    run_experiment(graph, default_algorithms(k), file_order=edges,
                   oracle=False)
    assert decisions_built == []

    certified = []

    def certify(decision, param):
        certified.append(decision)
        return check_locally_k_exceeding(decision, param)

    monkeypatch.setattr(harness, "check_locally_k_exceeding", certify)
    out = execute(edges, AlgorithmSpec("shadow", k), verify=True)
    assert out.insertions == plain.insertions
    assert len(decisions_built) == out.insertions
    reports = run_experiment(graph, default_algorithms(k), file_order=edges,
                             oracle=False, verify=True)
    shadow_report, = [r for r in reports if r.algorithm == "shadow"]
    assert len(decisions_built) == out.insertions + shadow_report.insertions
    assert list(map(id, certified)) == list(map(id, decisions_built))


def test_ratio_of():
    assert ratio_of(None, 5.0) is None
    assert ratio_of(0.0, 0.0) == 1.0
    assert ratio_of(6.0, 4.0) == 1.5


def test_run_experiment_disjoint_instance_is_optimal():
    graph = DenseGraph.from_edges(DISJOINT)
    reports = run_experiment(graph, default_algorithms(2.0),
                             instance_id="disjoint", verify=True)
    assert len(reports) == 3
    for r in reports:
        assert r.instance_id == "disjoint"
        assert r.opt_weight == 12.0
        assert r.ratio == 1.0
        assert r.verifier_failures == 0


def test_run_experiment_exhaustive_orders():
    graph = _path_graph()
    reports = run_experiment(graph, default_algorithms(2.0), orders=24,
                             seed=0)
    assert len(reports) == 72
    labels = {r.order_seed for r in reports}
    assert labels == {f"perm{i}" for i in range(24)}
    per_algo = [r for r in reports if r.algorithm == "shadow"]
    assert len(per_algo) == 24
    opt = max_weight_matching(graph).weight
    for r in reports:
        assert r.opt_weight == opt
        assert r.ratio is not None and r.ratio >= 1.0 - 1e-12


def test_run_experiment_file_order():
    graph = DenseGraph.from_edges(DISJOINT)
    reports = run_experiment(graph, [AlgorithmSpec("shadow", 2.0)],
                             file_order=tuple(reversed(DISJOINT)))
    assert len(reports) == 1
    assert reports[0].order_seed == "file"


def test_run_experiment_without_oracle():
    graph = DenseGraph.from_edges(DISJOINT)
    (report,) = run_experiment(graph, [AlgorithmSpec("shadow", 2.0)],
                               oracle=False)
    assert report.opt_weight is None
    assert report.ratio is None


def test_run_experiment_oracle_capacity_degrades_gracefully():
    edges = [edge(i, i + 1, float(i + 1)) for i in range(12)]
    graph = DenseGraph.from_edges(edges)
    (report,) = run_experiment(graph, [AlgorithmSpec("shadow", 2.0)],
                               oracle_limit=5)
    assert report.opt_weight is None


def test_run_experiment_parallel_matches_serial():
    graph, _ = generate(GeneratorSpec("gnp-random", n=9, p=0.5, seed=21))
    kwargs = dict(instance_id="par", orders=6, seed=3, verify=True)
    serial = run_experiment(graph, default_algorithms(1.717), jobs=1,
                            **kwargs)
    parallel = run_experiment(graph, default_algorithms(1.717), jobs=4,
                              **kwargs)
    assert serial == parallel


def test_run_experiment_starts_no_more_workers_than_runs(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in
        process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    graph = _path_graph()
    serial = run_experiment(graph, default_algorithms(2.0), jobs=1)
    pooled = run_experiment(graph, default_algorithms(2.0), jobs=64)
    assert sizes == [3]    # one order, three algorithms
    assert pooled == serial


def test_aggregate_groups_and_stats():
    graph = _path_graph()
    reports = run_experiment(graph, default_algorithms(2.0), orders=24,
                             seed=0)
    rows = aggregate(reports)
    assert len(rows) == 3
    for row in rows:
        assert row.runs == 24
        assert row.worst_ratio is not None
        assert row.mean_ratio is not None
        assert 1.0 - 1e-12 <= row.mean_ratio <= row.worst_ratio + 1e-12


def test_emit_csv_shape_and_precision():
    graph = DenseGraph.from_edges(DISJOINT)
    reports = run_experiment(graph, default_algorithms(2.0),
                             instance_id="csvcase")
    text = emit_report(reports, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(reports)
    for row, rep in zip(rows[1:], reports):
        assert float(row[4]) == rep.final_weight
        assert float(row[6]) == rep.ratio
        assert int(row[9]) == rep.verifier_failures


def test_emit_csv_empty_optimum_field():
    graph = DenseGraph.from_edges(DISJOINT)
    reports = run_experiment(graph, [AlgorithmSpec("shadow", 2.0)],
                             oracle=False)
    rows = list(csv.reader(io.StringIO(emit_report(reports, "csv"))))
    assert rows[1][5] == "" and rows[1][6] == ""


def test_emit_json_round_trips():
    graph = _path_graph()
    reports = run_experiment(graph, default_algorithms(1.717), orders=4,
                             seed=1)
    text = emit_report(reports, "json")
    assert read_reports_json(text) == reports


def test_emit_table_contains_aggregates():
    graph = DenseGraph.from_edges(DISJOINT)
    reports = run_experiment(graph, default_algorithms(2.0))
    text = emit_report(reports, "table")
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["instance", "order", "algorithm"]
    assert sum(1 for ln in lines if ln.startswith("aggregate ")) == 3


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_check_run_validity():
    graph = DenseGraph.from_edges(DISJOINT)
    result = run_stream(list(DISJOINT), 2.0)
    assert check_run_validity(result.matching, graph)
    # an edge that is not in the instance fails the check
    assert not check_run_validity([edge(0, 1, 99.0)], graph)
    # two edges sharing a vertex fail the check
    bad = [edge(0, 1, 3.0), edge(1, 2, 1.0)]
    assert not check_run_validity(bad, DenseGraph.from_edges(bad))


def test_small_graph_instances_cover_every_class_once():
    ids = [inst.instance_id
           for inst in small_graph_instances(seed=0, draws=1)]
    assert len(ids) == 209
    assert len(set(ids)) == 209


def test_small_graph_instances_orders():
    insts = list(islice(small_graph_instances(seed=0, draws=2), 0, 40))
    for inst in insts:
        m = len(inst.graph.edges)
        labels = [label for label, _ in inst.orders]
        if inst.instance_id.endswith("-d0") and m <= 6:
            assert len(labels) == math.factorial(m)
            assert all(label.startswith("perm") for label in labels)
        else:
            assert labels == ["shuf0"]
        for _, order in inst.orders:
            assert sorted(order) == list(inst.graph.edges)


def test_small_graph_instances_deterministic():
    a = list(islice(small_graph_instances(seed=5, draws=1), 0, 30))
    b = list(islice(small_graph_instances(seed=5, draws=1), 0, 30))
    assert [x.graph.edges for x in a] == [y.graph.edges for y in b]
    assert [x.orders for x in a] == [y.orders for y in b]


def test_random_instances_shape():
    insts = list(islice(random_instances(seed=0, count=8), 0, 8))
    assert len(insts) == 8
    for inst in insts:
        n = len(inst.graph.vertices)
        assert 4 <= n <= 12
        assert len(inst.orders) == 10 or all(
            label.startswith("perm") for label, _ in inst.orders)
        for _, order in inst.orders:
            assert sorted(order) == list(inst.graph.edges)


def test_random_instances_vary_weight_distributions():
    insts = list(islice(random_instances(seed=2, count=10), 0, 10))
    integral = [all(e.w == int(e.w) for e in inst.graph.edges)
                for inst in insts if inst.graph.edges]
    # the 5-cycle of weight specs guarantees both kinds appear
    assert any(integral) and not all(integral)


def test_default_corpus_is_both_parts_chained():
    insts = list(default_corpus(seed=0, draws=1, random_count=2))
    assert len(insts) == 211
    assert insts[0].instance_id.startswith("atlas")
    assert insts[-1].instance_id.startswith("rand")
