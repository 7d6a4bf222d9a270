"""One-pass weighted matching that keeps evicted edges as "shadows".

The matcher holds a matching M and, per matched vertex, one optional
shadow slot.  When edges are thrown out of M to make room for better
ones they are not always gone for good: each removed edge is parked in
the slots of the vertices it shares with the newly inserted edges.  A
later input edge can then be combined with up to two parked shadow
edges into a set of two or three disjoint insertions, which is what
lets the matcher undo part of an earlier eviction.

Processing one input edge looks at a bounded local neighborhood only:

* the input edge itself,
* the matching edges at its two endpoints,
* the shadow slot at each matched partner vertex,
* and the matching edges covering the far ends of those shadows.

That is at most seven edges, so each step costs constant time and the
whole pass stores at most 3 * floor(n/2) edges.

An insertion candidate A (a set of one to three pairwise disjoint
non-matching edges from the neighborhood) is scored by

    r(A) = w(A) - k * w(M(A))

where M(A) is the set of matching edges sharing a vertex with A and
k > 1 is the replacement threshold.  The best-scoring A is inserted
iff r(A) > 0; M(A) is removed and parked in shadow slots.

Scores are floats; one within its rounding bound of zero is recomputed
in exact rationals, so r(A) > 0 agrees with the exact certificate in
verify.py, and such scores are also ranked exactly.  Ties on r(A) are
broken deterministically: larger w(A) first, then fewer edges, then the
lexicographically smallest sorted edge list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .graph import Edge, EdgeStream, is_matching

# A float score w(A) - t*w(M(A)) sums up to three and up to four weights,
# then takes one product and one difference: its rounding error is under
# 8 units of 2**-53 times w(A) + t*w(M(A)), plus a few subnormal units.
_ROUNDING = 4 * math.ulp(1.0)
_UNDERFLOW = 8 * math.ulp(0.0)


@dataclass(frozen=True, slots=True)
class SideView:
    """What the matcher can see from one endpoint of the input edge.

    `anchor` is the input edge's endpoint.  If the matching covers it,
    `matched` is that matching edge and `partner` the far endpoint.
    If the slot at `partner` is occupied, `shadow` is the parked edge,
    `shadow_far` its endpoint away from `partner`, and `far_cover` the
    matching edge covering `shadow_far` (if any).
    """

    anchor: int
    matched: Edge | None = None
    partner: int | None = None
    shadow: Edge | None = None
    shadow_far: int | None = None
    far_cover: Edge | None = None


@dataclass(frozen=True, slots=True)
class Neighborhood:
    """The bounded local view used to decide one step.

    Role names follow the two sides of the input edge: side 1 hangs off
    the smaller endpoint, side 2 off the larger one.  The same edge may
    appear under several roles (the two shadows can coincide on a
    4-cycle, and a far cover can equal the other side's matching edge);
    `distinct_edges` collapses those.
    """

    input_edge: Edge
    side1: SideView
    side2: SideView

    def roles(self) -> dict[str, Edge | None]:
        """Map role label -> edge (or None) for tracing and tests."""
        return {
            "y1y2": self.input_edge,
            "g1y1": self.side1.matched,
            "a1g1": self.side1.shadow,
            "a1c1": self.side1.far_cover,
            "g2y2": self.side2.matched,
            "a2g2": self.side2.shadow,
            "a2c2": self.side2.far_cover,
        }

    def distinct_edges(self) -> tuple[Edge, ...]:
        """All distinct edges in view, canonically sorted."""
        out = {}
        for e in self.roles().values():
            if e is not None:
                out[e.key] = e
        return tuple(sorted(out.values()))

    def candidates(self) -> tuple[Edge, ...]:
        """The distinct non-matching edges available for insertion.

        These are the input edge and the two shadows; the four other
        roles are matching edges and can only ever be removed.
        """
        out = {self.input_edge.key: self.input_edge}
        for side in (self.side1, self.side2):
            if side.shadow is not None:
                out[side.shadow.key] = side.shadow
        return tuple(sorted(out.values()))


@dataclass(frozen=True, slots=True)
class InsertionDecision:
    """Outcome of one step: the best candidate set and what it did.

    `chosen` is the argmax candidate set A (present even when it was
    rejected), `removed` the matching edges adjacent to it, `gain` the
    score r(A), and `inserted` says whether the step mutated the state
    (exactly when gain > 0).
    """

    chosen: tuple[Edge, ...]
    removed: tuple[Edge, ...]
    gain: float
    inserted: bool


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One step of a traced run: the view, all scored sets, the decision."""

    index: int
    neighborhood: Neighborhood
    candidates: tuple[tuple[tuple[Edge, ...], float], ...]
    decision: InsertionDecision


def check_input(matching: dict[int, Edge], e: Edge) -> None:
    """Raise ValueError unless `e` has a positive finite weight and is
    not in `matching` already (streams never repeat an edge)."""
    if not e.w > 0 or not math.isfinite(e.w):
        raise ValueError(f"input edge weight must be positive and finite: {e}")
    cov = matching.get(e.u)
    if cov is not None and cov.key == e.key:
        raise ValueError(f"edge {e.u} {e.v} is already in the matching")


def conflict_score(matching: dict[int, Edge], chosen: tuple[Edge, ...],
                   t: float) -> tuple[float, tuple[Edge, ...], float | Fraction]:
    """Score the candidate set `chosen` against `matching` at threshold t.

    Returns (r, removed, key) where removed is the sorted tuple of
    matching edges sharing a vertex with the set and
    r = w(set) - t * w(removed) is a float with the exact sign.  `key`
    ranks candidate sets: it is r, or the exact Fraction when the float
    lies within its rounding bound of zero.
    """
    conflicts = set()
    w_chosen = 0.0
    for f in chosen:
        w_chosen += f.w
        conflicts.add(matching.get(f.u))
        conflicts.add(matching.get(f.v))
    conflicts.discard(None)
    removed = tuple(sorted(conflicts))
    w_removed = 0.0
    for d in removed:
        w_removed += d.w
    w_removed *= t
    r = w_chosen - w_removed
    if abs(r) > _ROUNDING * (w_chosen + w_removed) + _UNDERFLOW:
        return r, removed, r
    exact = (sum(Fraction(f.w) for f in chosen)
             - Fraction(t) * sum(Fraction(d.w) for d in removed))
    return _signed_float(exact), removed, exact


def _signed_float(q: Fraction) -> float:
    """`q` as a float of its sign: 0.0 only if q is zero, and an
    infinity past the float range."""
    try:
        r = max(float(abs(q)), math.ulp(0.0)) if q else 0.0
    except OverflowError:
        r = math.inf
    return -r if q < 0 else r


def enumerate_augmenting_sets(nb: Neighborhood) -> list[tuple[Edge, ...]]:
    """All non-empty pairwise-disjoint subsets of the candidate edges.

    Enumeration order is the subset bitmask over the canonically
    sorted candidates, so replays are bit-identical.  At most three
    candidates exist, hence at most seven subsets.
    """
    cands = nb.candidates()
    out = []
    for mask in range(1, 1 << len(cands)):
        subset = tuple(c for i, c in enumerate(cands) if mask >> i & 1)
        if is_matching(subset):
            out.append(subset)
    return out


class ShadowMatcher:
    """Streaming matcher state: the matching plus per-vertex shadow slots.

    Parameters
    ----------
    k : float
        Replacement threshold, must be finite and > 1.  A candidate
        set is inserted only when its weight exceeds k times the
        weight it displaces.

    Attributes
    ----------
    matching : dict[int, Edge]
        Vertex -> covering matching edge; every edge appears under
        both endpoints.
    shadow_slots : dict[int, Edge]
        Vertex -> parked edge.  A slot exists only at a matched
        vertex, and the parked edge contains that vertex.  No edge is
        ever in the matching and in a slot at the same time.
    matched_edge_count, parked_edge_count : int
        Distinct edges in the matching and in the slots, kept by the
        step so a driver can read the stored-edge count in O(1).
    """

    def __init__(self, k: float):
        if not isinstance(k, (int, float)) or isinstance(k, bool):
            raise ValueError(f"k must be a real number, got {k!r}")
        k = float(k)
        if not math.isfinite(k) or k <= 1.0:
            raise ValueError(f"k must be finite and > 1, got {k!r}")
        self.k = k
        self.matching: dict[int, Edge] = {}
        self.shadow_slots: dict[int, Edge] = {}
        self.matched_edge_count = 0
        self.parked_edge_count = 0
        self.insertions = 0
        # Per-step work counters, refreshed by process_edge.
        self.last_candidate_sets = 0
        self.last_touched_edges = 0

    # -- inspection ---------------------------------------------------

    def matching_edges(self) -> tuple[Edge, ...]:
        """The current matching as a sorted edge tuple."""
        return tuple(sorted(set(self.matching.values())))

    def matching_weight(self) -> float:
        return math.fsum(e.w for e in set(self.matching.values()))

    def stored_edge_count(self) -> int:
        """Distinct edges held right now (matching plus parked shadows),
        recounted from the slots; `drive` reads the O(1) counters."""
        return self.matched_edge_count + len(set(self.shadow_slots.values()))

    # -- the step -----------------------------------------------------

    def neighborhood(self, e: Edge) -> Neighborhood:
        """Assemble the bounded local view for input edge `e`."""
        return Neighborhood(e, self._side(e.u), self._side(e.v))

    def _side(self, anchor: int) -> SideView:
        matched = self.matching.get(anchor)
        if matched is None:
            return SideView(anchor)
        partner = matched.other(anchor)
        shadow = self.shadow_slots.get(partner)
        if shadow is None:
            return SideView(anchor, matched, partner)
        far = shadow.other(partner)
        return SideView(anchor, matched, partner, shadow, far,
                        self.matching.get(far))

    def gain_of(self, candidate_set: Iterable[Edge]) -> tuple[float, tuple[Edge, ...]]:
        """Score a candidate set against the current state.

        Returns (r, removed) as :func:`conflict_score` does, at t = k.
        """
        return conflict_score(self.matching, tuple(candidate_set), self.k)[:2]

    def process_edge(self, e: Edge) -> InsertionDecision:
        """Process one input edge and return what was decided.

        Preconditions: `e` has positive weight and its endpoint pair is
        not already in the matching (streams never repeat an edge).
        Violations raise ValueError.
        """
        decision, _, _ = self._step(e)
        return decision

    def process_edge_traced(self, e: Edge, index: int) -> TraceEvent:
        """Like process_edge, but capture the full step for tracing."""
        decision, nb, scored = self._step(e)
        return TraceEvent(index, nb, tuple(scored), decision)

    def _step(self, e: Edge):
        check_input(self.matching, e)
        nb = self.neighborhood(e)
        self.last_touched_edges = len(nb.distinct_edges())

        # The input edge alone is always the first candidate set.
        best = None
        scored: list[tuple[tuple[Edge, ...], float]] = []
        for subset in enumerate_augmenting_sets(nb):
            r, removed, key = conflict_score(self.matching, subset, self.k)
            scored.append((subset, r))
            if best is None or _better(key, subset, best[0], best[2]):
                best = (key, r, subset, removed)
        self.last_candidate_sets = len(scored)

        key, r, chosen, removed = best
        decision = InsertionDecision(chosen, removed, r, key > 0)
        if decision.inserted:
            self._apply(chosen, removed)
        return decision, nb, scored

    def _apply(self, chosen: tuple[Edge, ...], removed: tuple[Edge, ...]) -> None:
        # Mutation order matters for the slot bookkeeping: first forget
        # everything hanging off the removed edges, then insert, then
        # park the removed edges next to their replacements.
        matching = self.matching
        slots = self.shadow_slots
        parked = self.parked_edge_count
        for d in removed:
            for x in (d.u, d.v):
                shadow = slots.pop(x, None)
                # A parked edge sits in at most two slots and stops
                # counting when its last one is cleared.
                if shadow is not None and slots.get(shadow.other(x)) != shadow:
                    parked -= 1
                del matching[x]
        for f in chosen:
            matching[f.u] = f
            matching[f.v] = f
        for d in removed:
            # matching[v] exists here iff an inserted edge covers v,
            # because every old edge at v would have been removed.
            if d.u in matching:
                slots[d.u] = d
            if d.v in matching:
                slots[d.v] = d
        # Each removed edge shares a vertex with an inserted one, so it
        # is parked in one slot or two.
        self.parked_edge_count = parked + len(removed)
        self.matched_edge_count += len(chosen) - len(removed)
        self.insertions += 1


def _better(key: float | Fraction, subset: tuple[Edge, ...],
            best_key: float | Fraction, best_subset: tuple[Edge, ...]) -> bool:
    """Strict preference order on scored candidate sets, by the ranking
    keys of :func:`conflict_score`."""
    if key != best_key:
        return key > best_key
    w = sum(f.w for f in subset)
    best_w = sum(f.w for f in best_subset)
    if w != best_w:
        return w > best_w
    if len(subset) != len(best_subset):
        return len(subset) < len(best_subset)
    return subset < best_subset


@dataclass(slots=True)
class RunMetrics:
    """Counters accumulated over one streamed run."""

    edges_processed: int = 0
    insertions: int = 0
    max_stored_edges: int = 0
    max_candidate_sets: int = 0
    max_touched_edges: int = 0


@dataclass(slots=True)
class RunResult:
    """Final matching of a run and its work counters."""

    matching: tuple[Edge, ...]
    weight: float
    metrics: RunMetrics


DecisionHook = Callable[[int, InsertionDecision, "ShadowMatcher"], None]
TraceSink = Callable[[TraceEvent], None]


def drive(matcher, stream: EdgeStream | Iterable[Edge], *,
          trace: TraceSink | None = None,
          on_decision: DecisionHook | None = None) -> RunResult:
    """Feed a whole stream through `matcher`: the package's one per-edge
    loop, behind run_stream, run_baseline, the harness and the CLI.

    The matcher's counters `last_candidate_sets`, `last_touched_edges`,
    `matched_edge_count` and `parked_edge_count` keep each step's
    bookkeeping O(1).  `trace` and `on_decision` are as in run_stream;
    `trace` needs `matcher.process_edge_traced`.
    """
    max_sets = max_touched = max_stored = 0
    i = -1
    for i, e in enumerate(stream):
        if trace is None:
            decision = matcher.process_edge(e)
        else:
            event = matcher.process_edge_traced(e, i)
            trace(event)
            decision = event.decision
        max_sets = max(max_sets, matcher.last_candidate_sets)
        max_touched = max(max_touched, matcher.last_touched_edges)
        max_stored = max(max_stored, matcher.matched_edge_count
                         + matcher.parked_edge_count)
        if on_decision is not None:
            on_decision(i, decision, matcher)
    metrics = RunMetrics(i + 1, matcher.insertions, max_stored, max_sets,
                         max_touched)
    return RunResult(matcher.matching_edges(), matcher.matching_weight(),
                     metrics)


def run_stream(stream: EdgeStream | Iterable[Edge], k: float, *,
               trace: TraceSink | None = None,
               on_decision: DecisionHook | None = None) -> RunResult:
    """Feed a whole stream through a fresh matcher.

    Parameters
    ----------
    stream
        EdgeStream or any iterable of canonical edges (consumed once).
    k
        Replacement threshold, > 1.
    trace
        Optional sink called with each step's TraceEvent as soon as the
        step is done.  Nothing is buffered, so tracing takes O(1)
        memory; pass `list.append` to keep the events.
    on_decision
        Optional hook called after every step with (index, decision,
        matcher); the matcher is already mutated.  Used for invariant
        checking and verification without paying for a full trace.
    """
    return drive(ShadowMatcher(k), stream, trace=trace, on_decision=on_decision)


def trace_to_dict(event: TraceEvent) -> dict:
    """Render one TraceEvent as a JSON-ready dict.

    Edges serialize as [u, v, w] triples; role names key the local
    view.  Extra findings (for example verifier verdicts) can be added
    to the returned dict before dumping.
    """
    def enc(e: Edge | None):
        return None if e is None else [e.u, e.v, e.w]

    return {
        "index": event.index,
        "input": enc(event.neighborhood.input_edge),
        "S": {role: enc(e) for role, e in event.neighborhood.roles().items()},
        "candidates": [
            {"edges": [enc(e) for e in subset], "r": r}
            for subset, r in event.candidates
        ],
        "decision": {
            "A": [enc(e) for e in event.decision.chosen],
            "removed": [enc(e) for e in event.decision.removed],
            "r": event.decision.gain,
            "inserted": event.decision.inserted,
        },
    }
