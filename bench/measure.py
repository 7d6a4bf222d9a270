"""Measured phases of one benchmark run, timed and traced.

The timed run measures five phases over the workload's inputs:

``shadow``
    ``run_stream(open_stream(FILE), k*)`` per stream file, with the
    iterator handed to ``run_stream`` stamped every `window` edges;
``baseline``
    ``run_baseline(open_stream(FILE), 1.0)`` per stream file;
``verify_trace``
    in-process ``shadowmatch run FILE --verify --trace T``;
``sweep``
    the acceptance sweep's inner loop over the sweep corpus: oracle,
    then ``harness.execute`` for each order and algorithm of the
    standard lineup, with verify and validity checks;
``compare``
    in-process ``shadowmatch compare FILE --verify --format json``.

Every operation (one matcher pass, one CLI invocation, one sweep run)
is checked, and failures are counted, never dropped.  The traced run
replays each phase once with spans around the calls into each module's
public functions, then runs probe loops for the finer per-step costs.
"""

from __future__ import annotations

import gc
import io
import json
import math
import statistics
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

from shadowmatch import baseline, cli, graph, harness, oracle, shadow
from shadowmatch.bound import optimal_k
from shadowmatch.verify import check_locally_k_exceeding

from inputs import ORACLE_LIMIT, Inputs, StreamInput, Workload, build
from refclock import RawClock, RefClock
from spans import Tracer

K_STAR, BOUND_STAR = optimal_k()
RATIO_TOL = 1e-9
WORK_LIMIT = 7
SETUP_REPEATS = 5
TURN_S = 0.5
TICK_EDGES = 32
RAW = RawClock()
MATCHING_WEIGHT_SAMPLES = 64


class Checks:
    """Operations attempted and failed, with the reasons seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.update(problems)


def _matching_problems(matching, edges: frozenset, limit: int,
                       stored: int) -> list[str]:
    problems = []
    if not graph.is_matching(matching) or not all(e in edges for e in matching):
        problems.append("output is not a matching drawn from the input")
    if stored > limit:
        problems.append("stored edges over the memory bound")
    return problems


def windowed(edges, size: int, stamps: list[float], clock=RAW):
    """Pass edges through; every `size` edges, tick `clock` and take a
    timestamp."""
    stamps.append(clock.now())
    for i, e in enumerate(edges, 1):
        yield e
        if i % size == 0:
            clock.tick()
            stamps.append(clock.now())


def ticking(edges, clock):
    """Pass edges through, ticking `clock` every TICK_EDGES edges."""
    for i, e in enumerate(edges, 1):
        yield e
        if i % TICK_EDGES == 0:
            clock.tick()


def window_us(stamps: list[float], size: int) -> list[float]:
    return [(b - a) * 1e6 / size for a, b in zip(stamps, stamps[1:])]


def late_and_early(windows: list[float]) -> tuple[float, float]:
    """Mean of the last and of the first tenth of the windows."""
    tenth = max(1, len(windows) // 10)
    return statistics.fmean(windows[-tenth:]), statistics.fmean(windows[:tenth])


# -- phases ---------------------------------------------------------------

def shadow_pass(s: StreamInput, window: int, checks: Checks, clock=RAW):
    """One library pass; returns (seconds, weight, window stamps)."""
    stamps: list[float] = []
    clock.refresh()
    t0 = clock.now()
    result = shadow.run_stream(windowed(graph.open_stream(s.path), window,
                                        stamps, clock), K_STAR)
    elapsed = clock.now() - t0
    m = result.metrics
    problems = _matching_problems(result.matching, s.edges,
                                  3 * (s.vertex_count // 2), m.max_stored_edges)
    if m.max_candidate_sets > WORK_LIMIT or m.max_touched_edges > WORK_LIMIT:
        problems.append("more than 7 candidate sets or touched edges")
    if m.edges_processed != s.edge_count:
        problems.append("edge count differs from the input")
    checks.record(problems)
    return elapsed, result.weight, stamps


def baseline_pass(s: StreamInput, checks: Checks, clock=RAW):
    clock.refresh()
    t0 = clock.now()
    result = baseline.run_baseline(ticking(graph.open_stream(s.path), clock),
                                   baseline.GAMMA_RATIO_SIX)
    elapsed = clock.now() - t0
    checks.record(_matching_problems(result.matching, s.edges,
                                     s.vertex_count // 2,
                                     result.metrics.max_stored_edges))
    return elapsed, result.weight


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@contextmanager
def _ticking_cli(clock):
    """Have the CLI's stream tick `clock` as it is read."""
    if isinstance(clock, RawClock):
        yield
        return
    saved = cli.open_stream

    def open_stream(*args, **kwargs):
        stream = saved(*args, **kwargs)
        return graph.EdgeStream(ticking(stream, clock),
                                vertex_count=stream.vertex_count,
                                edge_count=stream.edge_count,
                                source=stream.source)
    cli.open_stream = open_stream
    try:
        yield
    finally:
        cli.open_stream = saved


def verify_trace_pass(s: StreamInput, trace_path: Path, library_weight: float,
                      checks: Checks, clock=RAW) -> float:
    with _ticking_cli(clock):
        clock.refresh()
        t0 = clock.now()
        code, out = _cli(["run", str(s.path), "--verify", "--trace",
                          str(trace_path)])
        elapsed = clock.now() - t0
    problems = [] if code == 0 else [f"shadowmatch run exited {code}"]
    lines = out.splitlines()
    if not lines or lines[0] != f"weight {library_weight!r}":
        problems.append("CLI and library final weights differ")
    if not lines or lines[-1] != "verifier_failures 0":
        problems.append("verifier failures")
    checks.record(problems)
    return elapsed


def sweep_pass(corpus: list[harness.CorpusInstance], checks: Checks,
               clock=RAW):
    """Returns (seconds, runs, shadow ratios per instance, weight per
    algorithm)."""
    algorithms = harness.default_algorithms(K_STAR)
    ratios: list[list[float]] = []
    weights = Counter()
    runs = 0
    clock.refresh()
    t0 = clock.now()
    for inst in corpus:
        clock.tick()
        ratios.append([])
        opt = oracle.max_weight_matching(inst.graph,
                                         edge_limit=ORACLE_LIMIT).weight
        n = inst.graph.n
        for _, order in inst.orders:
            for algo in algorithms:
                out = harness.execute(order, algo,
                                      verify=algo.name == "shadow")
                runs += 1
                problems = []
                if out.verifier_failures:
                    problems.append("verifier failures")
                if not harness.check_run_validity(out.matching, inst.graph):
                    problems.append("output is not a matching drawn from the input")
                ratio = harness.ratio_of(opt, out.weight)
                weights[algo.label] += out.weight
                if algo.name == "shadow":
                    ratios[-1].append(ratio)
                    if out.max_stored_edges > 3 * (n // 2):
                        problems.append("stored edges over the memory bound")
                    if (out.max_candidate_sets > WORK_LIMIT
                            or out.max_touched_edges > WORK_LIMIT):
                        problems.append("more than 7 candidate sets or touched edges")
                    if ratio > BOUND_STAR + RATIO_TOL:
                        problems.append("desk ratio above R(k*)")
                elif out.max_stored_edges > n // 2:
                    problems.append("stored edges over the memory bound")
                checks.record(problems)
    return clock.now() - t0, runs, ratios, weights


def compare_pass(paths: list[Path], checks: Checks,
                 clock=RAW) -> tuple[float, int]:
    """Returns (seconds, reports emitted)."""
    reports = 0
    clock.refresh()
    t0 = clock.now()
    for path in paths:
        clock.tick()
        code, out = _cli(["compare", str(path), "--verify", "--format", "json",
                          "--oracle-limit", str(ORACLE_LIMIT)])
        problems = [] if code == 0 else [f"shadowmatch compare exited {code}"]
        try:
            rows = json.loads(out)["reports"]
        except (ValueError, KeyError):
            rows = []
            problems.append("compare output is not report JSON")
        reports += len(rows)
        for r in rows:
            if r["verifier_failures"]:
                problems.append("verifier failures")
            if r["ratio"] is None:
                problems.append("compare reported no optimum")
            elif r["algorithm"] == "shadow" and r["ratio"] > BOUND_STAR + RATIO_TOL:
                problems.append("desk ratio above R(k*)")
        checks.record(problems)
    return clock.now() - t0, reports


# -- set-up ---------------------------------------------------------------

def set_up(w: Workload, seed: int, workdir: Path) -> tuple[Inputs, float]:
    """Build the inputs several times; returns the last and the median
    time, at the reference speed (refclock.py)."""
    clock = RefClock()
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        clock.refresh()
        t0 = clock.now()
        inputs = build(w, seed, workdir, tick=clock.tick)
        times.append(clock.now() - t0)
    _freeze()
    return inputs, statistics.median(times)


def _freeze() -> None:
    # The benchmark's own inputs are not part of any measured program's
    # heap; keep the garbage collector from walking them inside timings.
    gc.collect()
    gc.freeze()


# -- timed run ------------------------------------------------------------

def timed_run(w: Workload, inputs: Inputs, setup_s: float, seconds: float,
              workdir: Path, checks: Checks) -> dict[str, float]:
    """Measure for about `seconds`.  The phases take turns; in each turn
    a phase repeats its pass over all its inputs until it has run for at
    least TURN_S.  Every pass is timed on a clock at the reference speed
    (refclock.py) and is one sample; each timing metric is the median of
    its samples."""
    trace_path = workdir / "trace.jsonl"
    edges = sum(s.edge_count for s in inputs.streams)
    weights: dict[Path, float] = {}
    base_weights: dict[Path, float] = {}
    sweep_weights: Counter = Counter()
    samples: dict[str, list[float]] = {name: [] for name in (
        "shadow", "baseline", "verify_trace", "sweep", "compare")}
    windows: list[float] = []
    ratios: list[list[float]] = []
    clock = RefClock()

    def shadow_once() -> float:
        t_all = 0.0
        for s in inputs.streams:
            t, weights[s.path], stamps = shadow_pass(s, w.window, checks, clock)
            windows.extend(window_us(stamps, w.window))
            t_all += t
        return t_all

    def baseline_once() -> float:
        t_all = 0.0
        for s in inputs.streams:
            t, base_weights[s.path] = baseline_pass(s, checks, clock)
            t_all += t
        return t_all

    def verify_trace_once() -> float:
        return sum(verify_trace_pass(s, trace_path, weights[s.path], checks,
                                     clock)
                   for s in inputs.streams)

    runs_per_pass = 0

    def sweep_once() -> float:
        nonlocal ratios, runs_per_pass, sweep_weights
        t, runs_per_pass, ratios, sweep_weights = sweep_pass(inputs.corpus,
                                                             checks, clock)
        return t

    def compare_once() -> float:
        return compare_pass(inputs.compare_files, checks, clock)[0]

    per_edge = 1e6 / edges
    phases = (
        ("shadow", shadow_once, lambda t: t * per_edge),
        ("baseline", baseline_once, lambda t: t * per_edge),
        ("verify_trace", verify_trace_once, lambda t: t * per_edge),
        ("sweep", sweep_once, lambda t: runs_per_pass / t),
        ("compare", compare_once, lambda t: t),
    )

    def turn(name: str, once, sample) -> None:
        gc.collect()
        t0 = perf_counter()
        while perf_counter() - t0 < TURN_S:
            samples[name].append(sample(once()))

    # Cycle through the phases until the next one would overrun; every
    # phase runs at least once.
    deadline = perf_counter() + seconds
    last: dict[str, float] = {}
    running = True
    while running:
        for name, once, sample in phases:
            t0 = perf_counter()
            if name in last and t0 + last[name] > deadline:
                running = False
                break
            turn(name, once, sample)
            last[name] = perf_counter() - t0

    algorithms = harness.default_algorithms(K_STAR)
    weight_shadow = math.fsum(weights.values()) + sweep_weights[algorithms[0].label]
    weight_base = (math.fsum(base_weights.values())
                   + sweep_weights[algorithms[1].label])
    return {
        "setup_s": setup_s,
        "shadow_us_per_edge": statistics.median(samples["shadow"]),
        "shadow_window_us_p50": statistics.median(windows),
        "shadow_window_us_p90": statistics.quantiles(windows, n=10)[-1],
        "baseline_us_per_edge": statistics.median(samples["baseline"]),
        "verify_trace_us_per_edge": statistics.median(samples["verify_trace"]),
        "shadow_weight_vs_baseline": weight_shadow / weight_base,
        "sweep_runs_per_s": statistics.median(samples["sweep"]),
        "compare_s": statistics.median(samples["compare"]),
        "shadow_mean_ratio": statistics.fmean(map(statistics.fmean, ratios)),
        "peak_heap_mb": peak_heap_mb(w, inputs, checks),
    }


def peak_heap_mb(w: Workload, inputs: Inputs, checks: Checks) -> float:
    """Peak traced heap of one shadow pass per stream file and one
    shadow run per sweep instance, whichever is largest."""
    algo = harness.default_algorithms(K_STAR)[0]
    gc.collect()
    tracemalloc.start()
    try:
        peak = 0
        for s in inputs.streams:
            tracemalloc.reset_peak()
            shadow_pass(s, w.window, checks)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        for inst in inputs.corpus:
            tracemalloc.reset_peak()
            harness.execute(inst.orders[0][1], algo)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


# -- traced run -----------------------------------------------------------

def _traced_open_stream(tracer: Tracer, original):
    def open_stream(*args, **kwargs):
        stream = original(*args, **kwargs)
        return graph.EdgeStream(tracer.iterate("graph.next", stream),
                                vertex_count=stream.vertex_count,
                                edge_count=stream.edge_count,
                                source=stream.source)
    return open_stream


def _patches(tracer: Tracer):
    """Every public call the phases make, by the attribute they use."""
    targets = [
        (shadow.ShadowMatcher, "process_edge", "shadow.process_edge"),
        (shadow.ShadowMatcher, "process_edge_traced", "shadow.process_edge_traced"),
        (shadow.ShadowMatcher, "stored_edge_count", "shadow.stored_edge_count"),
        (shadow.ShadowMatcher, "matching_weight", "shadow.matching_weight"),
        (baseline.BaselineMatcher, "process_edge", "baseline.process_edge"),
        (baseline.BaselineMatcher, "matching_weight", "baseline.matching_weight"),
        (shadow, "run_stream", "shadow.run_stream"),
        (baseline, "run_baseline", "baseline.run_baseline"),
        (oracle, "max_weight_matching", "oracle.max_weight_matching"),
        (cli, "main", "cli.main"),
        (cli, "trace_to_dict", "shadow.trace_to_dict"),
        (cli, "check_locally_k_exceeding", "verify.check_locally_k_exceeding"),
        (cli, "run_experiment", "harness.run_experiment"),
        (cli, "emit_report", "harness.emit_report"),
        (harness, "execute", "harness.execute"),
        (harness, "check_run_validity", "harness.check_run_validity"),
        (harness, "run_stream", "shadow.run_stream"),
        (harness, "run_baseline", "baseline.run_baseline"),
        (harness, "max_weight_matching", "oracle.max_weight_matching"),
        (harness, "check_locally_k_exceeding", "verify.check_locally_k_exceeding"),
    ]
    return tracer.patched(*targets)


@contextmanager
def _traced_streams(tracer: Tracer):
    """Route `open_stream` in the benchmark and the CLI through spans."""
    saved = graph.open_stream, cli.open_stream
    graph.open_stream = _traced_open_stream(tracer, saved[0])
    cli.open_stream = _traced_open_stream(tracer, saved[1])
    try:
        yield
    finally:
        graph.open_stream, cli.open_stream = saved


def traced_run(w: Workload, seed: int, workdir: Path, checks: Checks,
               tracer: Tracer) -> dict[str, float]:
    with tracer.span("bench.setup"):
        inputs = build(w, seed, workdir, tracer)
    _freeze()
    edges = sum(s.edge_count for s in inputs.streams)
    trace_path = workdir / "trace.jsonl"
    metrics: dict[str, float] = {}

    # Untraced passes: late/early windows and driver overhead.  The
    # first of the two rounds warms the interpreter up and is dropped.
    for _ in range(2):
        untraced = bare = 0.0
        windows_late = windows_early = 0.0
        for s in inputs.streams:
            gc.collect()
            t, _, stamps = shadow_pass(s, w.window, checks)
            untraced += t
            ws = window_us(stamps, w.window)
            if ws:
                late, early = late_and_early(ws)
                windows_late += late
                windows_early += early
            gc.collect()
            t0 = perf_counter()
            matcher = shadow.ShadowMatcher(K_STAR)
            for e in graph.open_stream(s.path):
                matcher.process_edge(e)
            bare += perf_counter() - t0
    metrics["shadow.late_over_early"] = (windows_late / windows_early
                                         if windows_early else 1.0)
    metrics["shadow.driver_overhead_us_per_edge"] = (untraced - bare) * 1e6 / edges

    # One traced round of the measured phases.
    gc.collect()
    with _patches(tracer), _traced_streams(tracer):
        for s in inputs.streams:
            with tracer.span("bench.shadow"):
                _, weight, _ = shadow_pass(s, w.window, checks)
            with tracer.span("bench.baseline"):
                baseline_pass(s, checks)
            with tracer.span("bench.verify_trace"):
                verify_trace_pass(s, trace_path, weight, checks)
        with tracer.span("bench.sweep"):
            _, runs, ratios, _ = sweep_pass(inputs.corpus, checks)
        with tracer.span("bench.compare"):
            _, reports = compare_pass(inputs.compare_files, checks)
    traced = sum(tracer.durations_us("bench.shadow")) / edges
    metrics["shadow_worst_ratio"] = max(map(max, ratios))
    metrics["trace.overhead_us_per_edge"] = traced - untraced * 1e6 / edges

    metrics.update(_probe(inputs, tracer))

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    sweep_oracle = tracer.durations_us("oracle.max_weight_matching", "bench.sweep")
    compare_oracle = tracer.durations_us("oracle.max_weight_matching", "bench.compare")
    metrics["oracle.sweep_us_per_instance"] = mean(sweep_oracle)
    metrics["oracle.compare_us_per_instance"] = mean(compare_oracle)
    metrics["oracle.edges_mean"] = statistics.fmean(
        [inst.graph.m for inst in inputs.corpus]
        + [sum(1 for _ in graph.open_stream(p)) for p in inputs.compare_files])
    metrics["harness.execute_us_per_run"] = sum(
        tracer.durations_us("harness.execute", "bench.sweep")) / runs
    metrics["harness.run_experiment_s"] = mean(
        tracer.durations_us("harness.run_experiment", "bench.compare")) / 1e6
    metrics["harness.emit_json_us_per_report"] = sum(
        tracer.durations_us("harness.emit_report", "bench.compare")) / reports
    setup_spans = (tracer.durations_us("generators.default_corpus")
                   or tracer.durations_us("graph.slice_instance"))
    metrics["generators.corpus_us_per_instance"] = sum(setup_spans) / len(
        inputs.corpus)

    for phase, layers in SPLITS.items():
        shares = tracer.layer_shares(f"bench.{phase}")
        for layer in layers:
            metrics[f"split.{phase}.{layer}"] = shares.get(layer, 0.0)
    return metrics


SPLITS = {
    "shadow": ("graph", "shadow"),
    "verify_trace": ("graph", "shadow", "verify", "cli"),
    "sweep": ("harness", "oracle", "shadow", "baseline", "verify"),
    "compare": ("cli", "harness", "oracle", "shadow", "baseline", "verify"),
}


def _probe(inputs: Inputs, tracer: Tracer) -> dict[str, float]:
    """Per-step costs: each public step function timed on live state."""
    edges = 0
    parse_ns = 0
    steps = inserts = multi = single = sets_total = evictions = 0
    max_stored = 0
    apply_ns: list[int] = []
    verify_single: list[int] = []
    verify_multi: list[int] = []
    trace_bytes = 0
    b_steps = b_inserts = 0
    open_ = tracer.open
    close = tracer.close
    with tracer.span("bench.parse"):
        for s in inputs.streams:
            open_("graph.parse")
            for _ in graph.open_stream(s.path):
                pass
            parse_ns += close()
            edges += s.edge_count

    for s in inputs.streams:
        stream = list(graph.open_stream(s.path))
        sample = max(1, len(stream) // MATCHING_WEIGHT_SAMPLES)
        matcher = shadow.ShadowMatcher(K_STAR)
        gc.collect()
        with tracer.span("bench.steps"):
            for i, e in enumerate(stream):
                open_("shadow.neighborhood")
                nb = matcher.neighborhood(e)
                t_nb = close()
                open_("shadow.score")
                sets = shadow.enumerate_augmenting_sets(nb)
                scored = tuple((a, matcher.gain_of(a)[0]) for a in sets)
                t_score = close()
                open_("shadow.process_edge")
                decision = matcher.process_edge(e)
                t_step = close()
                steps += 1
                sets_total += len(sets)
                single += len(sets) == 1
                if decision.inserted:
                    inserts += 1
                    multi += len(decision.chosen) > 1
                    evictions += len(decision.removed)
                    apply_ns.append(t_step - t_nb - t_score)
                    open_("verify.check_locally_k_exceeding")
                    check_locally_k_exceeding(decision, K_STAR)
                    t = close()
                    (verify_multi if len(decision.chosen) > 1
                     else verify_single).append(t)
                open_("cli.trace_encode")
                line = json.dumps(shadow.trace_to_dict(
                    shadow.TraceEvent(i, nb, scored, decision)), sort_keys=True)
                close()
                trace_bytes += len(line) + 1
                open_("shadow.stored_edge_count")
                stored = matcher.stored_edge_count()
                close()
                max_stored = max(max_stored, stored)
                if i % sample == 0:
                    tracer.call("shadow.matching_weight", matcher.matching_weight)
        bm = baseline.BaselineMatcher(baseline.GAMMA_RATIO_SIX)
        gc.collect()
        with tracer.span("bench.baseline_steps"):
            for e in stream:
                b_steps += 1
                b_inserts += tracer.call("baseline.process_edge",
                                         bm.process_edge, e).inserted

    def mean_us(name: str, root: str = "bench.steps") -> float:
        xs = tracer.durations_us(name, root)
        return statistics.fmean(xs) if xs else 0.0

    def mean_ns_as_us(xs: list[int]) -> float:
        return statistics.fmean(xs) / 1e3 if xs else 0.0

    return {
        "graph.parse_us_per_edge": parse_ns / 1e3 / edges,
        "shadow.neighborhood_us": mean_us("shadow.neighborhood"),
        "shadow.score_us": mean_us("shadow.score"),
        "shadow.step_us": mean_us("shadow.process_edge"),
        "shadow.apply_us": mean_ns_as_us(apply_ns),
        "shadow.insert_share": inserts / steps,
        "shadow.multi_insert_share": multi / inserts if inserts else 0.0,
        "shadow.single_candidate_share": single / steps,
        "shadow.candidate_sets_mean": sets_total / steps,
        "shadow.evictions_per_insert": evictions / inserts if inserts else 0.0,
        "shadow.max_stored_edges": max_stored,
        "shadow.stored_edge_count_us": mean_us("shadow.stored_edge_count"),
        "shadow.matching_weight_us": mean_us("shadow.matching_weight"),
        "baseline.step_us": mean_us("baseline.process_edge", "bench.baseline_steps"),
        "baseline.insert_share": b_inserts / b_steps,
        "verify.single_us": mean_ns_as_us(verify_single),
        "verify.multi_us": mean_ns_as_us(verify_multi),
        "verify.checks": len(verify_single) + len(verify_multi),
        "cli.trace_encode_us": mean_us("cli.trace_encode"),
        "cli.trace_bytes_per_edge": trace_bytes / steps,
    }

