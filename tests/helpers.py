"""Shared test utilities: independent reference implementations.

Everything here is deliberately written the dumb way (exhaustive
enumeration, no pruning, no shared code with the package internals)
so it can serve as an oracle for the clever versions.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import shadowmatch
from shadowmatch.baseline import run_baseline
from shadowmatch.graph import (DuplicateEdgeError, Edge, StreamFormatError,
                               edge, parse_edge_line)
from shadowmatch.shadow import run_stream
from shadowmatch.verify import _TOUCHED, _slack, check_locally_k_exceeding


def naive_max_matching_weight(edges: list[Edge]) -> float:
    """Maximum weight matching by trying every subset of edges."""
    m = len(edges)
    assert m <= 16, "naive checker is exponential, keep it small"
    best = 0.0
    for size in range(1, m + 1):
        for subset in combinations(edges, size):
            seen = set()
            ok = True
            for e in subset:
                if e.u in seen or e.v in seen:
                    ok = False
                    break
                seen.add(e.u)
                seen.add(e.v)
            if ok:
                w = math.fsum(e.w for e in subset)
                if w > best:
                    best = w
    return best


def brute_force_disjoint(edges: tuple[Edge, ...]) -> bool:
    """Quadratic pairwise-disjointness check."""
    for a, b in combinations(edges, 2):
        if a.u in (b.u, b.v) or a.v in (b.u, b.v):
            return False
    return True


def random_edge_list(rng: random.Random, max_n: int = 10,
                     integer_weights: bool = False) -> list[Edge]:
    """A duplicate-free random edge list in random stream order."""
    n = rng.randint(2, max_n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    rng.shuffle(pairs)
    out = []
    for u, v in pairs:
        if integer_weights:
            w = float(rng.randint(1, 10))
        else:
            w = rng.uniform(0.05, 20.0)
        out.append(edge(u, v, w))
    return out


def reference_stream(fh, on_duplicate: str = "error"):
    """Parse stream text the plain way: strip every line, skip blank and
    comment lines, read an optional `p <n> <m>` first line, then hand
    each remaining line to `parse_edge_line`.  Returns (vertex_count,
    edge_count, edges), or raises the error `open_stream` must raise."""
    numbered = [(n, raw.strip()) for n, raw in enumerate(fh, 1)]
    numbered = [(n, s) for n, s in numbered if s and not s.startswith("#")]
    vertex_count = edge_count = None
    if numbered and numbered[0][1].startswith("p"):
        line_no, stripped = numbered.pop(0)
        parts = stripped.split()
        if len(parts) != 3 or parts[0] != "p":
            raise StreamFormatError(
                f"bad header, expected 'p <n> <m>': {stripped!r}", line_no)
        try:
            vertex_count = int(parts[1])
            edge_count = int(parts[2])
        except ValueError:
            raise StreamFormatError(
                f"header counts must be integers: {stripped!r}",
                line_no) from None
        if vertex_count < 0 or edge_count < 0:
            raise StreamFormatError(
                f"header counts must be non-negative: {stripped!r}", line_no)
    seen = set()
    edges = []
    for n, stripped in numbered:
        e = parse_edge_line(stripped, n)
        if e.key in seen:
            if on_duplicate == "error":
                raise DuplicateEdgeError(
                    f"duplicate edge {e.u} {e.v} (weights may differ)", n)
            continue
        seen.add(e.key)
        edges.append(e)
    if edge_count is not None and len(numbered) != edge_count:
        raise StreamFormatError(
            f"header declares {edge_count} edges, the stream has {len(numbered)}")
    return vertex_count, edge_count, edges


def reference_conflict_score(matching: dict[int, Edge], chosen: tuple[Edge, ...],
                             t: float):
    """(r, removed, key) of `shadow.conflict_score`, for any set size:
    collect the conflicts in a set, sort them, sum in float, and redo
    the score in Fraction when the float lies within its rounding
    bound of zero."""
    conflicts = {matching.get(x) for f in chosen for x in (f.u, f.v)}
    conflicts.discard(None)
    removed = tuple(sorted(conflicts))
    w_chosen = 0.0
    for f in chosen:
        w_chosen += f.w
    w_removed = 0.0
    for d in removed:
        w_removed += d.w
    w_removed *= t
    r = w_chosen - w_removed
    if abs(r) > 4 * math.ulp(1.0) * (w_chosen + w_removed) + 8 * math.ulp(0.0):
        return r, removed, r
    exact = (sum(Fraction(f.w) for f in chosen)
             - Fraction(t) * sum(Fraction(d.w) for d in removed))
    if not exact:
        return 0.0, removed, exact
    try:
        r = max(float(abs(exact)), math.ulp(0.0))
    except OverflowError:
        r = math.inf
    return (-r if exact < 0 else r), removed, exact


def reference_rank(matching: dict[int, Edge], candidates, t: float):
    """A step's ranking, record by record: every pairwise disjoint
    subset of the distinct `candidates` (the input edge and the
    shadows), in bitmask order over the sorted candidates, scored by
    reference_conflict_score against `matching`.  The best set has the
    highest ranking key, then the larger weight, then fewer edges, then
    the smaller sorted tuple.  A best set of two or three edges that
    would insert gives way to the exactly best of its proper subsets
    whose float score lies within both sets' rounding bounds of its own
    and whose exact score is higher.

    Returns (sets, chosen, removed, r, inserted)."""
    cands = sorted(set(candidates))
    subsets = (tuple(c for i, c in enumerate(cands) if mask >> i & 1)
               for mask in range(1, 1 << len(cands)))
    sets = [subset for subset in subsets if brute_force_disjoint(subset)]
    records = []
    for subset in sets:
        r, removed, key = reference_conflict_score(matching, subset, t)
        w_chosen = w_removed = 0.0
        for f in subset:
            w_chosen += f.w
        for d in removed:
            w_removed += d.w
        bound = 4 * math.ulp(1.0) * (w_chosen + t * w_removed)
        records.append((subset, r, removed, key, bound))

    def order(subset, key):
        return (-key, -sum(f.w for f in subset), len(subset), subset)

    def exact(subset, removed):
        return (sum(Fraction(f.w) for f in subset)
                - Fraction(t) * sum(Fraction(d.w) for d in removed))

    chosen, r, removed, key, bound = min(records,
                                         key=lambda x: order(x[0], x[3]))
    inserted = key > 0
    if inserted and len(chosen) > 1:
        q_chosen = exact(chosen, removed)
        better = [(exact(sub, rem), sub, r_sub, rem)
                  for sub, r_sub, rem, _, bound_sub in records
                  if len(sub) < len(chosen) and set(sub) <= set(chosen)
                  and abs(r_sub - r) <= bound + 8 * math.ulp(0.0) + bound_sub
                  and exact(sub, rem) > q_chosen]
        if better:
            _, chosen, r, removed = min(better, key=lambda x: order(x[1],
                                                                    x[0]))
    return sets, chosen, removed, r, inserted


def check_matcher_invariants(matcher, n: int) -> None:
    """Assert the structural invariants of a ShadowMatcher state."""
    matching = matcher.matching
    slots = matcher.shadow_slots
    # every matching edge is keyed under exactly its two endpoints
    for v, e in matching.items():
        assert v in e.key
        assert matching[e.u] is e and matching[e.v] is e
    edges = set(matching.values())
    # it is a matching: 2 keys per edge
    assert len(matching) == 2 * len(edges)
    assert matcher.matched_edge_count == len(edges)
    # slot hygiene: host vertex matched, slot edge contains the vertex,
    # and no edge is both matched and parked
    for v, s in slots.items():
        assert v in matching, f"slot at unmatched vertex {v}"
        assert v in s.key
        assert s.key != matching[v].key
    slot_edges = {s.key for s in slots.values()}
    assert not (slot_edges & {e.key for e in edges}), \
        "edge is in the matching and in a slot at once"
    # memory bound
    assert matcher.stored_edge_count() <= 3 * (n // 2)


class InsertionAudit:
    """An `on_insert` hook that checks every insertion it is handed.

    Each insertion's exact weight change, w(chosen) - w(removed), must
    be positive; `fsum` is correctly rounded, so its sign is the exact
    sign even where the float total would not move.  With `k` set, each
    insertion must also pass the exact allocation check at `k`.
    `checked` counts the insertions seen, so an unattached hook reads 0.
    """

    def __init__(self, k: float | None = None):
        self.k = k
        self.checked = 0
        self.not_increasing = 0
        self.not_certified = 0

    def __call__(self, decision) -> None:
        self.checked += 1
        if not math.fsum([e.w for e in decision.chosen]
                         + [-d.w for d in decision.removed]) > 0:
            self.not_increasing += 1
        if (self.k is not None
                and not check_locally_k_exceeding(decision, self.k)):
            self.not_certified += 1


def audited_run(order, algo):
    """Run `algo` (a harness AlgorithmSpec) over `order` through the
    public run_stream or run_baseline with an InsertionAudit attached;
    a shadow run's audit also certifies.  Returns (result, audit)."""
    shadow = algo.name == "shadow"
    audit = InsertionAudit(algo.param if shadow else None)
    run = run_stream if shadow else run_baseline
    return run(order, algo.param, on_insert=audit), audit


def package_env() -> dict[str, str]:
    """Environment for a child `python -m shadowmatch` process.

    The child must import the same `shadowmatch` this session imported,
    whatever its working directory: a relative `PYTHONPATH` such as `src`
    does not survive a changed `cwd`, so the absolute directory holding
    the imported package goes first and existing entries follow it.
    """
    env = dict(os.environ)
    root = str(Path(shadowmatch.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def reference_trace_record(event, feasible: bool | None = None) -> dict:
    """The trace record of one TraceEvent, built field by field as a
    dict; `json.dumps(record, sort_keys=True)` is its trace line."""
    def enc(e):
        return None if e is None else [e.u, e.v, e.w]

    nb = event.neighborhood
    record = {
        "index": event.index,
        "input": enc(nb.y1y2),
        "S": {"y1y2": enc(nb.y1y2),
              "g1y1": enc(nb.g1y1), "a1g1": enc(nb.a1g1),
              "a1c1": enc(nb.a1c1),
              "g2y2": enc(nb.g2y2), "a2g2": enc(nb.a2g2),
              "a2c2": enc(nb.a2c2)},
        "candidates": [{"edges": [enc(e) for e in subset], "r": r}
                       for subset, r in event.candidates],
        "decision": {"A": [enc(e) for e in event.decision.chosen],
                     "removed": [enc(e) for e in event.decision.removed],
                     "r": event.decision.gain,
                     "inserted": event.decision.inserted},
    }
    if feasible is not None:
        record["decision"]["allocation_feasible"] = feasible
    return record


def reference_baseline(edges: list[Edge], gamma: float) -> dict:
    """The (1 + gamma) replacement rule on a plain dict matching.

    An edge goes in exactly when Fraction(w) > Fraction(1.0 + gamma)
    times the exact sum of the matching edges it meets, which then go
    out for good.  Returns the per-step (inserted, removed) pairs and
    the final matching, weight, insertion count and peak edge count.
    """
    t = Fraction(1.0 + gamma)
    matching: dict[int, Edge] = {}
    steps = []
    insertions = peak = 0
    for e in edges:
        conflicts = {matching[x] for x in (e.u, e.v) if x in matching}
        inserted = Fraction(e.w) > t * sum(Fraction(c.w) for c in conflicts)
        if inserted:
            for c in conflicts:
                del matching[c.u], matching[c.v]
            matching[e.u] = matching[e.v] = e
            insertions += 1
            peak = max(peak, len(matching) // 2)
        steps.append((inserted, tuple(sorted(conflicts))))
    final = tuple(sorted(set(matching.values())))
    return {"steps": steps, "matching": final,
            "weight": math.fsum(e.w for e in final),
            "insertions": insertions, "max_stored_edges": peak}


def reference_witness(decision, k: float) -> dict[int, Fraction] | None:
    """An exact allocation f for the insertion `decision` at threshold
    k, on the vertices its inserted edges cover, or None when Gale's
    subset slacks (`verify._slack`) show there is none.

    f = 1, but for the shared removed edges (both ends covered), which
    are fixed one at a time, each at the midpoint of the shares its
    first end c can take while every subset condition stays true, with
    f(c) = share / w(cd) and f(d) = 1 - f(c).  The midpoint leaves room
    for the edges fixed after it, so a cycle of shared edges splits
    each one strictly when it can.
    """
    p, q = float(k).as_integer_ratio()
    slack, den, bit = _slack(decision.chosen, decision.removed, p, q)
    if min(slack) < 0:
        return None
    witness = dict.fromkeys(sorted(bit), Fraction(1))
    shared = [d for d in decision.removed if d.u in bit and d.v in bit]
    # Scaled by 2**len(shared), so that the halvings below stay integral.
    slack = [s << len(shared) for s in slack]
    p <<= len(shared)
    size = len(slack)
    for c, d, w in shared:
        num, r = w.as_integer_ratio()
        w = p * num * (den // r)
        bc = bit[c] & ~_TOUCHED
        bd = bit[d] & ~_TOUCHED
        # The sets holding c's inserted edge and not d's are {c} and,
        # with a third inserted edge, {c, third}; likewise for d.
        third = size - 1 - bc - bd
        hi = min(w, slack[bc], slack[bc | third])
        lo = w - min(w, slack[bd], slack[bd | third])
        share = (lo + hi) // 2
        slack[bc] -= share
        slack[bd] -= w - share
        if third:
            slack[bc | third] -= share
            slack[bd | third] -= w - share
        witness[c] = Fraction(share, w)
        witness[d] = 1 - witness[c]
    return witness


# One linear constraint: sum(coeffs[i] * x[i]) <= rhs.
_Constraint = tuple[tuple[Fraction, ...], Fraction]


def reference_feasible(decision, k: float) -> bool:
    """The allocation system of `shadowmatch.verify`, written out as an
    LP over the covered vertices and decided by Fourier-Motzkin
    elimination, with no use of its structure."""
    kq = Fraction(float(k))
    chosen = decision.chosen
    removed = decision.removed
    covered = sorted({x for e in chosen for x in (e.u, e.v)})
    index = {x: i for i, x in enumerate(covered)}
    removed_weight = {}
    for d in removed:
        for x in (d.u, d.v):
            if x in index:
                removed_weight[x] = Fraction(d.w)

    nvars = len(covered)
    zero = Fraction(0)
    one = Fraction(1)
    constraints: list[_Constraint] = []

    def row(entries: dict[int, Fraction], rhs: Fraction) -> _Constraint:
        coeffs = [zero] * nvars
        for x, c in entries.items():
            coeffs[index[x]] += c
        return tuple(coeffs), rhs

    for e in chosen:
        entries = {x: removed_weight[x] for x in (e.u, e.v)
                   if x in removed_weight}
        constraints.append(row(entries, Fraction(e.w) / kq))
    for d in removed:
        # f is zero off the covered set, so missing endpoints drop out.
        entries = {x: -one for x in (d.u, d.v) if x in index}
        constraints.append(row(entries, -one))
    for x in covered:
        constraints.append(row({x: one}, one))
        constraints.append(row({x: -one}, zero))
    return _fourier_motzkin(constraints, nvars) is not None


def _dedup(constraints: list[_Constraint]) -> list[_Constraint]:
    # Keep only the tightest rhs per coefficient vector.
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for coeffs, rhs in constraints:
        cur = best.get(coeffs)
        if cur is None or rhs < cur:
            best[coeffs] = rhs
    return [(c, b) for c, b in best.items()]


def _fourier_motzkin(constraints: list[_Constraint], nvars: int
                     ) -> list[Fraction] | None:
    """Decide `Ax <= b` over the rationals; return a witness or None.

    Variables are eliminated in index order.  The constraint sets seen
    just before each elimination are kept so a satisfying point can be
    rebuilt by walking them backwards, picking the midpoint of each
    variable's residual interval.
    """
    stages: list[tuple[int, list[_Constraint], list[_Constraint]]] = []
    cons = _dedup(constraints)
    for j in range(nvars):
        pos: list[_Constraint] = []
        neg: list[_Constraint] = []
        rest: list[_Constraint] = []
        for coeffs, rhs in cons:
            cj = coeffs[j]
            if cj > 0:
                pos.append((coeffs, rhs))
            elif cj < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        stages.append((j, pos, neg))
        combined = rest
        for cp, bp in pos:
            ap = cp[j]
            for cn, bn in neg:
                an = -cn[j]
                coeffs = tuple(cp[t] / ap + cn[t] / an for t in range(nvars))
                combined.append((coeffs, bp / ap + bn / an))
        cons = _dedup(combined)

    if any(rhs < 0 for _, rhs in cons):
        return None

    values = [Fraction(0)] * nvars

    def bound(j: int, coeffs: tuple[Fraction, ...], rhs: Fraction) -> Fraction:
        residual = rhs - sum(
            (coeffs[t] * values[t] for t in range(j + 1, nvars)), Fraction(0))
        return residual / coeffs[j]  # coeffs[j] < 0 flips to a lower bound

    for j, pos, neg in reversed(stages):
        upper = min((bound(j, *c) for c in pos), default=None)
        lower = max((bound(j, *c) for c in neg), default=None)
        if upper is None and lower is None:
            values[j] = Fraction(0)
        elif upper is None:
            values[j] = lower  # type: ignore[assignment]
        elif lower is None:
            values[j] = upper
        else:
            values[j] = (lower + upper) / 2
    return values
