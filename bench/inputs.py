"""Workload definitions and their seeded inputs.

Set-up turns (workload, seed) into files and in-memory instances; the
measured phases only ever see those.  Every workload has the same three
parts, so every metric is defined on every workload:

* stream files, fed to the matchers and to ``shadowmatch run``;
* a sweep corpus of desk-sized instances, each run through
  ``harness.execute`` under the standard lineup with the oracle;
* compare files, fed to ``shadowmatch compare --verify``.

For the stream workloads the sweep corpus and the compare files are
slices of the streams: induced subgraphs on vertex sets grown in
breadth-first order until they hold about 24 edges, streamed in the
order of the big stream.  That keeps them within the oracle's reach.
A workload of several streams takes its slices from each in turn.
For ``desk`` the sweep corpus is a stride through the default desk
corpus and the compare files are complete graphs on 11 vertices (55
edges) with random weights and order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from shadowmatch import generators, harness
from shadowmatch.graph import DenseGraph, Edge, edge, write_stream

SLICE_TARGET_EDGES = 24
SLICE_MAX_EDGES = 36
ORACLE_LIMIT = 70


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; BENCHMARK.json and README.md say why each
    workload exists."""

    name: str
    kind: str                 # "uniform", "ascending" or "desk"
    n: int = 0                # stream vertex count
    m: int = 0                # edge count of each stream
    streams: int = 1          # independent streams, each drawn alike
    window: int = 500         # edges per latency window
    slices: int = 0           # sweep instances cut from the stream
    compare_files: int = 8
    # desk only: default_corpus(seed, draws=, random_count=)[::stride]
    draws: int = 0
    random_count: int = 0
    stride: int = 1
    compare_n: int = 11
    compare_p: float = 1.0


WORKLOADS = {w.name: w for w in (
    Workload("uniform-n300", "uniform", n=300, m=12_000, streams=2,
             window=400, slices=256, compare_files=128),
    Workload("uniform-n30k", "uniform", n=30_000, m=20_000, window=400,
             slices=384, compare_files=192),
    Workload("ascending-n300", "ascending", n=300, m=6_000, window=120,
             slices=256, compare_files=128),
    Workload("desk", "desk", window=16, compare_files=30,
             draws=5, random_count=500, stride=7),
)}


def scaled(w: Workload, factor: float) -> Workload:
    """A smaller copy of a workload, for the benchmark's own tests."""
    def size(x: int) -> int:
        return max(1, int(x * factor)) if x else 0
    return replace(w, m=size(w.m), slices=size(w.slices),
                   random_count=size(w.random_count),
                   compare_files=min(w.compare_files, 2),
                   draws=min(w.draws, 1), stride=max(w.stride, 50),
                   compare_n=min(w.compare_n, 9),
                   window=max(1, min(w.window, size(w.m) // 8 or 1)))


@dataclass
class StreamInput:
    path: Path
    vertex_count: int
    edge_count: int
    edges: frozenset[Edge]    # for the output checks only


@dataclass
class Inputs:
    streams: list[StreamInput]
    corpus: list[harness.CorpusInstance]
    compare_files: list[Path]


def _no_tick() -> None:
    pass


def draw_stream(w: Workload, rng: random.Random, tick=_no_tick) -> list[Edge]:
    """Distinct random pairs, in draw order or by ascending weight."""
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < w.m:
        tick()
        u = rng.randrange(w.n)
        v = rng.randrange(w.n)
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            continue
        seen.add(key)
        if w.kind == "uniform":
            weight = rng.uniform(0.1, 10.0)
        else:
            weight = math.exp(rng.uniform(0.0, 150.0))
        out.append(edge(u, v, weight))
    if w.kind == "ascending":
        out.sort(key=lambda e: (e.w, e.u, e.v))
    return out


def cut_slices(stream: list[Edge], count: int, rng: random.Random,
               tick=_no_tick) -> list[tuple[Edge, ...]]:
    """Induced sub-streams on breadth-first vertex sets (module doc)."""
    adj: dict[int, dict[int, int]] = {}
    for pos, e in enumerate(stream):
        adj.setdefault(e.u, {})[e.v] = pos
        adj.setdefault(e.v, {})[e.u] = pos
    starts = sorted(adj)
    out = []
    for _ in range(count):
        tick()
        start = rng.choice(starts)
        members = {start}
        queue = [start]
        positions: list[int] = []
        head = 0
        while head < len(queue) and len(positions) < SLICE_TARGET_EDGES:
            around = sorted(adj[queue[head]])
            rng.shuffle(around)
            for x in around:
                if x in members:
                    continue
                new = [p for y, p in adj[x].items() if y in members]
                if len(positions) + len(new) > SLICE_MAX_EDGES:
                    continue
                members.add(x)
                queue.append(x)
                positions.extend(new)
                if len(positions) >= SLICE_TARGET_EDGES:
                    break
            head += 1
        out.append(tuple(stream[p] for p in sorted(positions)))
    return out


def _write(path: Path, edges, vertex_count: int | None = None) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        write_stream(edges, fh, vertex_count=vertex_count)
    return path


def build(w: Workload, seed: int, workdir: Path, tracer=None,
          tick=_no_tick) -> Inputs:
    """Draw every input of workload `w` for `seed` into `workdir`.
    `tick` is called often; the timed set-up passes its clock's."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"shadowmatch-bench:{w.name}:{seed}")

    if w.kind == "desk":
        corpus_iter = harness.default_corpus(seed, draws=w.draws,
                                             random_count=w.random_count)
        if tracer is not None:
            corpus_iter = tracer.iterate("generators.default_corpus",
                                         corpus_iter)
        corpus = []
        for i, inst in enumerate(corpus_iter):
            tick()
            if i % w.stride == 0:
                corpus.append(inst)
        streams = []
        for i in range(w.compare_files):
            tick()
            spec = generators.GeneratorSpec(
                kind="gnp-random", n=w.compare_n, p=w.compare_p,
                seed=seed * 1000 + i)
            graph, stream = generators.generate(spec)
            edges = list(stream)
            path = _write(workdir / f"compare{i}.txt", edges, graph.n)
            streams.append(StreamInput(path, graph.n, len(edges),
                                       frozenset(edges)))
        return Inputs(streams, corpus, [s.path for s in streams])

    streams = []
    cuts = []
    for j in range(w.streams):
        stream = draw_stream(w, rng, tick)
        path = _write(workdir / f"stream{j}.txt", stream, w.n)
        streams.append(StreamInput(path, w.n, len(stream), frozenset(stream)))
        cuts.append(cut_slices(stream, w.slices // w.streams, rng, tick))
    slices = [piece for group in zip(*cuts) for piece in group]
    corpus = []
    for i, order in enumerate(slices):
        tick()
        if tracer is not None:
            tracer.open("graph.slice_instance")
        graph = DenseGraph.from_edges(order)
        corpus.append(harness.CorpusInstance(f"slice{i}", graph,
                                             (("file", order),)))
        if tracer is not None:
            tracer.close()
    compare = [_write(workdir / f"compare{i}.txt", slices[i])
               for i in range(min(w.compare_files, len(slices)))]
    return Inputs(streams, corpus, compare)

