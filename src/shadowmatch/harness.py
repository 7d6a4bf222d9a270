"""Experiment harness: run matchers over instances, measure, report.

A run feeds one edge order of one instance to one algorithm and
produces a RunReport: final weight, the exact optimum (when the oracle
is allowed to run), their ratio, and work counters.  Only a verified
shadow run is hooked, to certify each insertion; every other run
builds no per-insertion decision.  Reports serialize to an aligned
text table, CSV with a fixed column set, or JSON that round-trips
losslessly.

The default desk corpus used by the acceptance checks lives here too:
every graph on up to six vertices (one representative per isomorphism
class) under repeated weight draws and edge orders, plus a large batch
of random instances on up to twelve vertices.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

from .baseline import GAMMA_RATIO_5_828, GAMMA_RATIO_SIX, run_baseline
from .generators import WeightSpec, stream_orders
from .graph import DenseGraph, Edge, edge, is_matching
from .oracle import OracleCapacityError, max_weight_matching
from .shadow import run_stream
from .verify import check_locally_k_exceeding

CSV_COLUMNS = ("instance_id", "order_seed", "algorithm", "k_or_gamma",
               "final_weight", "opt_weight", "ratio", "insertions",
               "max_stored_edges", "verifier_failures")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which matcher to run, at which threshold: k or gamma."""

    name: str  # "shadow" or "baseline"
    param: float

    def __post_init__(self):
        if self.name not in ("shadow", "baseline"):
            raise ValueError(f"unknown algorithm {self.name!r}")

    @property
    def label(self) -> str:
        if self.name == "shadow":
            return f"shadow[k={self.param:g}]"
        return f"baseline[gamma={self.param:g}]"


def default_algorithms(k: float) -> tuple[AlgorithmSpec, ...]:
    """The standard comparison lineup: shadow at `k` plus both baselines."""
    return (AlgorithmSpec("shadow", k),
            AlgorithmSpec("baseline", GAMMA_RATIO_SIX),
            AlgorithmSpec("baseline", GAMMA_RATIO_5_828))


@dataclass
class RunReport:
    """One (instance, order, algorithm) measurement."""

    instance_id: str
    order_seed: str
    algorithm: str
    k_or_gamma: float
    final_weight: float
    opt_weight: float | None
    ratio: float | None
    insertions: int
    max_stored_edges: int
    max_candidate_sets: int
    verifier_failures: int


@dataclass
class RunOutcome:
    """Raw result of one run before it is folded into a report.
    `verifier_failures` is 0 on a run that was not verified."""

    weight: float
    matching: tuple[Edge, ...]
    insertions: int
    max_stored_edges: int
    max_candidate_sets: int
    max_touched_edges: int
    verifier_failures: int


def execute(order: Iterable[Edge], algo: AlgorithmSpec, *,
            verify: bool = False) -> RunOutcome:
    """Run one algorithm over one edge order, collecting counters.

    With `verify` set (shadow only), every insertion is certified by
    the exact allocation check; failures are counted, never raised.
    Only such a run is hooked: any other builds no decision at all.
    """
    failures = 0

    def certify(decision):
        nonlocal failures
        failures += not check_locally_k_exceeding(decision, algo.param)

    if algo.name == "shadow":
        result = run_stream(order, algo.param,
                            on_insert=certify if verify else None)
    else:
        result = run_baseline(order, algo.param)

    m = result.metrics
    return RunOutcome(result.weight, result.matching, m.insertions,
                      m.max_stored_edges, m.max_candidate_sets,
                      m.max_touched_edges, failures)


def ratio_of(opt_weight: float | None, final_weight: float) -> float | None:
    """Optimal over achieved; 1.0 on empty instances by convention."""
    if opt_weight is None:
        return None
    if opt_weight == 0.0:
        return 1.0
    return opt_weight / final_weight


def run_experiment(graph: DenseGraph, algorithms: Iterable[AlgorithmSpec], *,
                   instance_id: str = "instance",
                   orders: int = 1,
                   seed: int | str = 0,
                   file_order: tuple[Edge, ...] | None = None,
                   oracle: bool = True,
                   oracle_limit: int = 40,
                   verify: bool = False,
                   jobs: int = 1) -> list[RunReport]:
    """Run every algorithm over every edge order of one instance.

    Orders come from :func:`generators.stream_orders` (exhaustive when
    the instance is small enough and `orders` asks for them all),
    except that `orders=1` with an explicit `file_order` replays that
    order verbatim.  The oracle runs once per instance; if the
    instance exceeds `oracle_limit` edges (a negative limit is a
    ValueError) the reports carry no optimum and no ratio.  `jobs > 1`
    fans runs out over processes; reports come back sorted either way.
    """
    if oracle_limit < 0:
        raise ValueError(f"oracle_limit must be at least 0, got {oracle_limit}")
    algorithms = list(algorithms)
    if file_order is not None and orders == 1:
        labeled = [("file", tuple(file_order))]
    else:
        labeled = stream_orders(graph, orders, seed)

    opt_weight: float | None = None
    if oracle:
        try:
            opt_weight = max_weight_matching(graph, edge_limit=oracle_limit).weight
        except OracleCapacityError:
            opt_weight = None

    tasks = [(label, order, algo) for label, order in labeled
             for algo in algorithms]
    run = partial(execute, verify=verify)
    orders = [order for _, order, _ in tasks]
    algos = [algo for _, _, algo in tasks]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(run, orders, algos, chunksize=8))
    else:
        outcomes = list(map(run, orders, algos))

    reports = []
    for (label, order, algo), out in zip(tasks, outcomes):
        reports.append(RunReport(
            instance_id=instance_id,
            order_seed=label,
            algorithm=algo.name,
            k_or_gamma=algo.param,
            final_weight=out.weight,
            opt_weight=opt_weight,
            ratio=ratio_of(opt_weight, out.weight),
            insertions=out.insertions,
            max_stored_edges=out.max_stored_edges,
            max_candidate_sets=out.max_candidate_sets,
            verifier_failures=out.verifier_failures,
        ))
    reports.sort(key=lambda r: (r.instance_id, r.order_seed,
                                r.algorithm, r.k_or_gamma))
    return reports


@dataclass(frozen=True)
class AggregateRow:
    """Per-algorithm summary over a report list."""

    algorithm: str
    k_or_gamma: float
    runs: int
    worst_ratio: float | None
    mean_ratio: float | None
    mean_weight: float


def aggregate(reports: Iterable[RunReport]) -> list[AggregateRow]:
    """Fold reports into one row per (algorithm, parameter)."""
    groups: dict[tuple[str, float], list[RunReport]] = {}
    for r in reports:
        groups.setdefault((r.algorithm, r.k_or_gamma), []).append(r)
    rows = []
    for (name, param), rs in sorted(groups.items()):
        ratios = [r.ratio for r in rs if r.ratio is not None]
        rows.append(AggregateRow(
            algorithm=name,
            k_or_gamma=param,
            runs=len(rs),
            worst_ratio=max(ratios) if ratios else None,
            mean_ratio=math.fsum(ratios) / len(ratios) if ratios else None,
            mean_weight=math.fsum(r.final_weight for r in rs) / len(rs),
        ))
    return rows


def emit_report(reports: list[RunReport], fmt: str = "table") -> str:
    """Serialize reports as "table", "csv", or "json".

    CSV has exactly the columns in CSV_COLUMNS, one row per run, with
    full-precision float repr; absent optima serialize as empty
    fields.  JSON carries every RunReport field plus the aggregate
    rows and round-trips through :func:`read_reports_json`.  The table
    is for eyeballs and includes the aggregates at the bottom.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow([
                r.instance_id, r.order_seed, r.algorithm,
                repr(r.k_or_gamma), repr(r.final_weight),
                "" if r.opt_weight is None else repr(r.opt_weight),
                "" if r.ratio is None else repr(r.ratio),
                r.insertions, r.max_stored_edges, r.verifier_failures,
            ])
        return buf.getvalue()

    if fmt == "json":
        payload = {
            "reports": [vars(r) for r in reports],
            "aggregates": [vars(a) for a in aggregate(reports)],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    if fmt == "table":
        headers = ("instance", "order", "algorithm", "param", "weight",
                   "opt", "ratio", "ins", "stored", "vfail")
        body = []
        for r in reports:
            body.append((
                r.instance_id, r.order_seed, r.algorithm,
                f"{r.k_or_gamma:g}", f"{r.final_weight:.6f}",
                "-" if r.opt_weight is None else f"{r.opt_weight:.6f}",
                "-" if r.ratio is None else f"{r.ratio:.6f}",
                str(r.insertions), str(r.max_stored_edges),
                str(r.verifier_failures),
            ))
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for row in body:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        lines.append("")
        for a in aggregate(reports):
            worst = "-" if a.worst_ratio is None else f"{a.worst_ratio:.6f}"
            mean = "-" if a.mean_ratio is None else f"{a.mean_ratio:.6f}"
            lines.append(f"aggregate {a.algorithm}[{a.k_or_gamma:g}] "
                         f"runs={a.runs} worst_ratio={worst} "
                         f"mean_ratio={mean} mean_weight={a.mean_weight:.6f}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown report format {fmt!r}")


def read_reports_json(text: str) -> list[RunReport]:
    """Parse the JSON emitted by emit_report back into RunReports."""
    payload = json.loads(text)
    return [RunReport(**row) for row in payload["reports"]]


def check_run_validity(matching: Iterable[Edge], graph: DenseGraph) -> bool:
    """Independent sanity check of a matcher's output.

    The edges must form a matching and every one of them must occur in
    the instance (same endpoints, same weight).
    """
    out = tuple(matching)
    if not is_matching(out):
        return False
    available = graph.edge_set
    return all(e in available for e in out)


# ---------------------------------------------------------------------------
# Default desk corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusInstance:
    """One weighted instance plus the edge orders to replay over it."""

    instance_id: str
    graph: DenseGraph
    orders: tuple[tuple[str, tuple[Edge, ...]], ...]


def _draw_weights(pairs, spec: WeightSpec, rng: random.Random) -> list[Edge]:
    return [edge(u, v, spec.draw(rng)) for u, v in pairs]


def _weight_spec_for(i: int) -> WeightSpec:
    # Rotate distributions so ties and wide dynamic ranges both occur.
    r = i % 5
    if r == 3:
        return WeightSpec(kind="powers-of-q", q=2.0, max_exponent=8)
    if r == 4:
        return WeightSpec(kind="integer-uniform", lo=1, hi=10)
    return WeightSpec(kind="uniform", lo=0.1, hi=10.0)


def _atlas_pairs() -> list[tuple[int, list[tuple[int, int]]]]:
    """Edge lists of every graph on at most six vertices, one per
    isomorphism class, with contiguous integer vertex labels."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        if g.number_of_nodes() > 6:
            break
        pairs = sorted((min(u, v), max(u, v)) for u, v in g.edges())
        out.append((g.number_of_nodes(), pairs))
    return out


def small_graph_instances(seed: int | str = 0, draws: int = 50
                          ) -> Iterator[CorpusInstance]:
    """Corpus part one: exhaustive small graphs.

    Every graph on up to six vertices gets `draws` independent weight
    draws.  The first draw of each graph with at most six edges is
    replayed under every edge permutation; every other draw gets one
    seeded shuffle.
    """
    for gi, (nn, pairs) in enumerate(_atlas_pairs()):
        for d in range(draws):
            rng = random.Random(f"shadowmatch:corpus:{seed}:atlas{gi}:d{d}")
            spec = _weight_spec_for(d)
            edges = _draw_weights(pairs, spec, rng)
            graph = DenseGraph.from_edges(edges, range(nn))
            if d == 0 and len(pairs) <= 6:
                orders = stream_orders(graph, math.factorial(len(pairs)),
                                       f"{seed}:atlas{gi}:d{d}")
            else:
                order = list(graph.edges)
                rng.shuffle(order)
                orders = [("shuf0", tuple(order))]
            yield CorpusInstance(f"atlas{gi}-d{d}", graph, tuple(orders))


def random_instances(seed: int | str = 0, count: int = 10_000
                     ) -> Iterator[CorpusInstance]:
    """Corpus part two: random graphs on 4 to 12 vertices, each pair an
    edge with probability 1/2, each in 10 orders (all, if fewer)."""
    for i in range(count):
        rng = random.Random(f"shadowmatch:corpus:{seed}:rand{i}")
        n = rng.randint(4, 12)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.5]
        spec = _weight_spec_for(i)
        edges = _draw_weights(pairs, spec, rng)
        graph = DenseGraph.from_edges(edges, range(n))
        labeled = stream_orders(graph, 10, f"{seed}:rand{i}")
        yield CorpusInstance(f"rand{i}-n{n}", graph, tuple(labeled))


def default_corpus(seed: int | str = 0, *, draws: int = 50,
                   random_count: int = 10_000) -> Iterator[CorpusInstance]:
    """The full desk corpus: exhaustive small graphs, then random ones."""
    yield from small_graph_instances(seed, draws)
    yield from random_instances(seed, random_count)
