"""Seeded instance generators for experiments and tests.

Every generator is a pure function of its spec: same spec, same seed,
same instance, same stream order.  Randomness comes from a private
`random.Random` seeded with a string derived from the spec, which is
stable across platforms and processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import permutations

from .graph import DenseGraph, Edge, EdgeStream, edge

WEIGHT_KINDS = ("uniform", "integer-uniform", "powers-of-q")

GRAPH_KINDS = ("gnp-random", "complete", "path", "cycle",
               "geometric-chain", "shadow-gadget")


@dataclass(frozen=True)
class WeightSpec:
    """How edge weights are drawn.

    kind "uniform" draws reals from [lo, hi); "integer-uniform" draws
    integers from [lo, hi] (handy for forcing ties); "powers-of-q"
    draws q**j with j uniform in [0, max_exponent], giving a wide
    dynamic range with many exact repeats.
    """

    kind: str = "uniform"
    lo: float = 0.1
    hi: float = 10.0
    q: float = 2.0
    max_exponent: int = 10

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "uniform" and not 0 < self.lo < self.hi:
            raise ValueError(f"need 0 < lo < hi, got {self.lo!r}, {self.hi!r}")
        if self.kind == "integer-uniform" and not 1 <= int(self.lo) <= int(self.hi):
            raise ValueError(f"need 1 <= lo <= hi, got {self.lo!r}, {self.hi!r}")
        if self.kind == "powers-of-q" and (self.q <= 0 or self.q == 1):
            raise ValueError(f"need positive q != 1, got {self.q!r}")

    def draw(self, rng: random.Random) -> float:
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi)
        if self.kind == "integer-uniform":
            return float(rng.randint(int(self.lo), int(self.hi)))
        return float(self.q) ** rng.randint(0, self.max_exponent)


@dataclass(frozen=True)
class GeneratorSpec:
    """A reproducible instance description."""

    kind: str
    n: int = 0
    p: float = 0.5
    q: float = 2.0
    weights: WeightSpec = field(default_factory=WeightSpec)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.kind == "gnp-random" and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")
        if self.kind == "geometric-chain" and (self.q <= 0 or self.q == 1):
            raise ValueError(f"need positive q != 1, got {self.q!r}")

    def instance_id(self) -> str:
        bits = [self.kind, f"n{self.n}"]
        if self.kind == "gnp-random":
            bits.append(f"p{self.p}")
        if self.kind in ("geometric-chain",):
            bits.append(f"q{self.q}")
        bits.append(f"s{self.seed}")
        return "-".join(bits)


# The fixed two-sided gadget: a path-of-attachments configuration
# where, once the first six edges have shaped the matcher's state, the
# last input edge is best handled by inserting it together with a
# previously evicted edge.  Vertex roles, in order: y1=0, y2=1, g1=2,
# g2=3, a1=4, a2=5, c1=6, c2=7.
GADGET_EDGES: tuple[Edge, ...] = (
    edge(4, 6, 1.0),   # a1c1
    edge(0, 2, 2.0),   # g1y1
    edge(2, 4, 6.0),   # a1g1
    edge(1, 3, 1.0),   # g2y2
    edge(3, 5, 1.0),   # a2g2
    edge(5, 7, 1.0),   # a2c2
    edge(0, 1, 6.0),   # y1y2
)


def generate(spec: GeneratorSpec) -> tuple[DenseGraph, EdgeStream]:
    """Materialize a spec into a graph and a stream over its edges.

    The stream order is a seeded permutation of the edge list, except
    for "geometric-chain", which streams its path edges in increasing
    weight order on purpose (each new edge tempts the matcher to drop
    the previous one), and "shadow-gadget", which keeps its fixed
    construction order.
    """
    rng = random.Random(f"shadowmatch:{spec.kind}:{spec.n}:{spec.p}:"
                        f"{spec.q}:{spec.seed}")
    n = spec.n

    if spec.kind == "shadow-gadget":
        graph = DenseGraph.from_edges(GADGET_EDGES, range(8))
        order = list(GADGET_EDGES)
        return graph, EdgeStream(order, vertex_count=8,
                                 edge_count=len(order),
                                 source=spec.instance_id())

    if spec.kind in ("path", "geometric-chain"):
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif spec.kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif spec.kind == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif spec.kind == "gnp-random":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < spec.p]
    else:  # pragma: no cover - guarded by __post_init__
        raise AssertionError(spec.kind)

    if spec.kind == "geometric-chain":
        weights = [float(spec.q) ** i for i in range(len(pairs))]
    else:
        weights = [spec.weights.draw(rng) for _ in pairs]
    edges = [edge(u, v, w) for (u, v), w in zip(pairs, weights)]
    graph = DenseGraph.from_edges(edges, range(n))
    order = list(edges)
    if spec.kind != "geometric-chain":
        rng.shuffle(order)
    return graph, EdgeStream(order, vertex_count=n, edge_count=len(order),
                             source=spec.instance_id())


def stream_orders(graph: DenseGraph, count: int, seed: int | str
                  ) -> list[tuple[str, tuple[Edge, ...]]]:
    """Produce labeled edge orders for repeated runs over one instance.

    Small instances get the exhaustive treatment: when the graph has
    at most six edges and `count` covers all m! permutations, every
    permutation is returned exactly once (labels "perm0"..).
    Otherwise `count` independent seeded shuffles are returned
    (labels "shuf0"..).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = tuple(sorted(graph.edges))
    m = len(base)
    if m <= 6 and count >= math.factorial(m):
        return [(f"perm{i}", perm)
                for i, perm in enumerate(permutations(base))]
    out = []
    for i in range(count):
        rng = random.Random(f"shadowmatch:order:{seed}:{i}")
        order = list(base)
        rng.shuffle(order)
        out.append((f"shuf{i}", tuple(order)))
    return out
