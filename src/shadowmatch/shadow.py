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
whole pass stores at most 3 * floor(n/2) edges.  The step is written
once, as the body of the loop `drive` runs, traced or not
(`process_edge` and `process_edge_traced` run it over one edge).  It
reads the view straight from the matching and slot dicts into locals,
and knows each candidate's conflicts from it with no further read of
the matching: the input edge removes the matching edges at its ends,
each shadow the one it is parked behind and the one at its far end.
When the candidates are pairwise disjoint (the input edge alone, or
with one or two shadows that meet neither it nor each other), the step
scores its one, three or seven sets inline; `_rank` ranks any other
view, and one with a score within rounding of zero.  Only a traced
step packs those locals into a Neighborhood of the seven roles and
hands over a TraceEvent for each step; an untraced step builds an
InsertionDecision only for an insertion hook, and only when it
inserts.  Tracing changes what a step reports, not what it decides.

A step is not scored when three comparisons settle it
(`_no_set_wins`).  Every candidate removes a matching edge at an end
of the input edge: the input edge removes both, each shadow the one it
is parked behind.  So a lone shadow scores at most its weight minus t
times that edge, and any other set at most the candidates' total
weight minus t times both.  When each bound lies below zero by more
than its rounding bound, no set can score above zero and the step is
an exact rejection: it leaves the state alone, as a scored rejection
does, and only counts its sets and touched edges.  No step with a
shadow in view counts once a step has touched seven edges, and an
untraced settled one then ends at once; a traced one still reads its
far covers for its event.  Seven distinct edges in view make the
three candidates pairwise disjoint, since a shadow that meets the
input edge or the other shadow has a far cover equal to a matching
edge at the input edge or to the other far cover.  So that step also
counted seven sets, and no later count can raise either maximum: a
run's metrics are the same traced or not.  A traced step's
TraceEvent carries the step's decision, or None when the step was
settled; `process_edge` ranks a settled view for the decision it
returns.

A trace is a header line (`trace_header`) and then one line per step
(`trace_line`), written from the step's TraceEvent with no state kept
between lines.  A line holds only what cannot be derived from the
header and the lines before it: the input edge and the inserted set's
position, which the step passes in its TraceEvent.  `read_trace`
replays the run: it feeds each line's input edge to one matcher built
from the header, checks that the step writes that very line, and gives
back the step's TraceEvent, roles and all, so it holds what the run
holds.  `trace_to_dict` renders an event whose caller gave it its
candidates and decision as its full version 1 record.

An insertion candidate A (a set of one to three pairwise disjoint
non-matching edges from the neighborhood) is scored by

    r(A) = w(A) - k * w(M(A))

where M(A) is the set of matching edges sharing a vertex with A and
k > 1 is the replacement threshold.  The best-scoring A is inserted
iff r(A) > 0; M(A) is removed and parked in shadow slots.

Scores are floats; one within its rounding bound of zero is recomputed
in exact rationals, so r(A) > 0 agrees with the exact certificate in
verify.py, and such scores are also ranked exactly.  A winning set of
two or three edges is also compared exactly against its own subsets
whose float scores lie within rounding of its own, so an edge whose
exact marginal is negative is never inserted; that settle step reuses
the rounding bound each set's score record keeps.  Ties on r(A) are broken
deterministically: larger w(A) first, then fewer edges, then the
lexicographically smallest sorted edge list.

The class attribute `parks` is the policy: whether removed edges are
parked.  The baseline (baseline.py) is this step at t = 1 + gamma with
parking off, so the input edge is its only candidate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import Edge, EdgeStream, edge

# A float score w(A) - t*w(M(A)) sums up to three and up to four weights,
# then takes one product and one difference: its rounding error is under
# 8 units of 2**-53 times w(A) + t*w(M(A)), plus a few subnormal units.
_ROUNDING = 4 * math.ulp(1.0)
_UNDERFLOW = 8 * math.ulp(0.0)


class Neighborhood(NamedTuple):
    """The bounded local view of one step, as a traced step hands it
    over and `read_trace` gives it back: the seven roles, None where a
    role is empty.

    Side 1 hangs off the smaller endpoint y1 of the input edge y1y2,
    side 2 off the larger one y2.  On side i, `giyi` is the matching
    edge covering yi, `aigi` the shadow parked at its far end gi, and
    `aici` the matching edge covering the shadow's far end ai.  The
    same edge may appear under several roles: the two shadows can
    coincide on a 4-cycle, and a far cover can equal the other side's
    matching edge.  `_asdict()` maps each role name to its edge.
    """

    y1y2: Edge
    g1y1: Edge | None = None
    a1g1: Edge | None = None
    a1c1: Edge | None = None
    g2y2: Edge | None = None
    a2g2: Edge | None = None
    a2c2: Edge | None = None


@dataclass(slots=True)
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


@dataclass(slots=True)
class TraceEvent:
    """One step of a traced run, as the step hands it over.

    `neighborhood` is the step's view and `decision` what it decided, or
    None when the reject bound settled the step unscored: it inserted
    nothing.  `inserted` says whether the step changed the state, and
    `position` where its set is in `enumerate_augmenting_sets` order, or
    None.  `candidates`, every candidate set in that order with its score
    r, is None unless a caller gives it: a step scores no set it need not
    rank.  `trace_to_dict` renders an event that carries both.
    """

    index: int
    neighborhood: Neighborhood
    candidates: tuple[tuple[tuple[Edge, ...], float], ...] | None = None
    decision: InsertionDecision | None = None
    inserted: bool = False
    position: int | None = None


def real_parameter(name: str, x, floor: float, strict: bool) -> float:
    """`x` as a float; ValueError unless it is a finite real number
    above `floor`, or equal to it when not `strict`."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    x = float(x)
    if not math.isfinite(x) or x < floor or strict and x == floor:
        rule = ">" if strict else ">="
        raise ValueError(f"{name} must be finite and {rule} {floor:g}, got {x!r}")
    return x


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
    """Score the candidate set `chosen`, of any size, against `matching`
    at threshold t.

    Returns (r, removed, key): removed is the sorted tuple of matching
    edges sharing a vertex with the set, and r = w(set) - t * w(removed),
    each sum taken from 0.0 in tuple order, is a float with the exact
    sign.  `key` ranks candidate sets: it is r, or the exact Fraction
    when the float lies within its rounding bound of zero.  The score
    is `_score`'s, as a step scores its sets.
    """
    conflicts = set()
    w_chosen = 0.0
    for f in chosen:
        w_chosen += f.w
        conflicts.add(matching.get(f.u))
        conflicts.add(matching.get(f.v))
    conflicts.discard(None)
    return _score(chosen, w_chosen, tuple(sorted(conflicts)), t)[:3]


def _score(chosen: tuple[Edge, ...], w_chosen: float,
           removed: tuple[Edge, ...], t: float):
    """The score record of the candidate set `chosen`, of weight
    `w_chosen` summed from 0.0 in tuple order, whose conflicts are the
    sorted `removed`: (r, removed,
    key) as conflict_score returns them, then `bound`, how far the
    float r can lie from the exact score short of the underflow term.
    conflict_score and `_rank` score through it; a step whose
    candidates are pairwise disjoint scores inline as it does."""
    w_removed = 0.0
    for d in removed:
        w_removed += d.w
    w_removed *= t
    r = w_chosen - w_removed
    bound = _ROUNDING * (w_chosen + w_removed)
    if abs(r) > bound + _UNDERFLOW:
        return r, removed, r, bound
    exact = _exact_score(chosen, removed, t)
    return _signed_float(exact), removed, exact, bound


def _exact_score(chosen: tuple[Edge, ...], removed: tuple[Edge, ...],
                 t: float) -> Fraction:
    """w(chosen) - t * w(removed) in exact rationals."""
    return (sum(Fraction(f.w) for f in chosen)
            - Fraction(t) * sum(Fraction(d.w) for d in removed))


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

    The candidates are the distinct non-matching edges in view: the
    input edge and the two shadows.  Enumeration order is the subset
    bitmask over the canonically sorted candidates, so replays are
    bit-identical.  At most three candidates exist, hence at most seven
    subsets.
    """
    cands = _candidates(nb.y1y2, nb.a1g1, nb.a2g2)
    cands.sort()
    return _disjoint_subsets(cands)


def _candidates(e: Edge, s1: Edge | None, s2: Edge | None) -> list[Edge]:
    """The distinct candidate edges of a view: the input edge `e` and
    the shadows that are present, once each (they coincide on a
    4-cycle); a shadow never equals the input edge."""
    cands = [e]
    if s1 is not None:
        cands.append(s1)
    if s2 is not None and s2 != s1:
        cands.append(s2)
    return cands


def _disjoint_subsets(cands: list[Edge]) -> list[tuple[Edge, ...]]:
    """The non-empty pairwise-disjoint subsets of the one to three
    sorted `cands`, in subset bitmask order.

    Bitmask order puts the subsets holding the j-th candidate right
    after those of the first j - 1: first the j-th alone, then each
    earlier subset plus it.  A subset that is not disjoint has no
    disjoint superset, so it is dropped as soon as it appears.
    """
    x = cands[0]
    if len(cands) == 1:
        return [(x,)]
    y = cands[1]
    xy = not x.shares_vertex(y)
    out = [(x,), (y,), (x, y)] if xy else [(x,), (y,)]
    if len(cands) == 3:
        z = cands[2]
        xz = not x.shares_vertex(z)
        yz = not y.shares_vertex(z)
        out.append((z,))
        if xz:
            out.append((x, z))
        if yz:
            out.append((y, z))
        if xy and xz and yz:
            out.append((x, y, z))
    return out


def _disjoint_subset_count(cands: list[Edge]) -> int:
    """len(_disjoint_subsets(cands)) for two or three distinct
    candidates, counted without building the subsets."""
    if len(cands) == 2:
        x, y = cands
        return 2 + (not x.shares_vertex(y))
    x, y, z = cands
    xy = not x.shares_vertex(y)
    xz = not x.shares_vertex(z)
    yz = not y.shares_vertex(z)
    return 3 + xy + xz + yz + (xy and xz and yz)


def _no_set_wins(t: float, w: float, a: Edge | None, b: Edge | None,
                 s1: Edge | None, s2: Edge | None) -> bool:
    """Whether three comparisons prove that no candidate set of a step
    with a shadow in view scores above zero at threshold t.

    The input edge (weight `w`) removes both matching edges at its ends,
    `a` and `b`; the shadow `s1` parked behind `a` removes `a`, and `s2`
    behind `b` removes `b`.  So a set holding the input edge, or both
    shadows, scores at most W - t*(w(a) + w(b)), where W sums the
    distinct candidates' weights, and a lone shadow scores at most its
    weight minus t times its own side's matching edge.  Each bound is
    trusted below zero as conflict_score trusts a float's sign: past its
    rounding bound, which covers every float the bound takes.  An
    infinite product fails every comparison, so it proves nothing.
    """
    ta = t * a.w if a is not None else 0.0
    tb = t * b.w if b is not None else 0.0
    total = w
    if s1 is not None:
        if not s1.w - ta < -(_ROUNDING * (s1.w + ta) + _UNDERFLOW):
            return False
        total += s1.w
    if s2 is not None:
        if not s2.w - tb < -(_ROUNDING * (s2.w + tb) + _UNDERFLOW):
            return False
        if s2 != s1:
            total += s2.w
    removed = ta + tb
    return total - removed < -(_ROUNDING * (total + removed) + _UNDERFLOW)


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
    parks : bool
        Policy, per class: park removed edges in the slots.
    threshold : float
        The t the step scores at: k here.
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

    parks = True

    def __init__(self, k: float):
        self.k = real_parameter("k", k, 1.0, strict=True)
        self._start(self.k)

    def _start(self, threshold: float) -> None:
        """Set up the empty state, scoring at `threshold`."""
        self.threshold = threshold
        self.matching: dict[int, Edge] = {}
        self.shadow_slots: dict[int, Edge] = {}
        self.matched_edge_count = 0
        self.parked_edge_count = 0
        self.insertions = 0

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
        """Read the bounded local view for input edge `e` from the state:
        the Neighborhood a traced step on `e` would record."""
        matching = self.matching
        roles = [e]
        for y in e.u, e.v:
            g = matching.get(y)
            a = c = None
            if g is not None:
                partner = g.other(y)
                a = self.shadow_slots.get(partner)
                if a is not None:
                    c = matching.get(a.other(partner))
            roles += (g, a, c)
        return Neighborhood(*roles)

    def gain_of(self, candidate_set: Iterable[Edge]) -> tuple[float, tuple[Edge, ...]]:
        """Score a candidate set against the current state.

        Returns (r, removed) as :func:`conflict_score` does, at t = threshold.
        """
        return conflict_score(self.matching, tuple(candidate_set), self.threshold)[:2]

    def process_edge(self, e: Edge) -> InsertionDecision:
        """Process one input edge and return what was decided.

        Preconditions: `e` has positive weight and its endpoint pair is
        not already in the matching (streams never repeat an edge).
        Violations raise ValueError.

        It returns the decision of process_edge_traced, the loop `drive`
        runs, as only a trace carries a rejected step's decision.  A step
        that `_no_set_wins` settled carries none, so its view is ranked
        here as the step would have ranked it: its best set, rejected.
        """
        event = self.process_edge_traced(e, 0)
        if event.decision is not None:
            return event.decision
        e, a, s1, c1, b, s2, c2 = event.neighborhood
        _, chosen, removed, r, _ = _rank(self.threshold, e, a, b, s1, c1, s2, c2)
        return InsertionDecision(chosen, removed, r, False)

    def _steps(self, edges: Iterable[Edge], on_insert: InsertHook | None,
               trace: TraceSink | None = None):
        """The step, run over `edges`: the one copy of it, behind `drive`
        and `process_edge_traced`.

        Returns (edges processed, most candidate sets, most touched edges,
        most stored edges) over the steps.  A traced step hands its
        TraceEvent to `trace`, then, if it inserted, the event's
        InsertionDecision to `on_insert`; an untraced step builds one only
        for `on_insert`, and only when it inserts.

        The view is read straight from the dicts into locals before the
        step changes the state; a traced step builds its Neighborhood
        from those locals and reads nothing more.  A shadow always
        differs from the input edge (its pair would be the matching edge
        at the anchor) and from every matching edge, so only the two
        shadows can coincide.  With no shadow in view the input edge is
        the only candidate, always so when nothing is parked, hence on
        every step of a policy that never parks.  It is scored here as
        `_score` scores it: the same float, as 0.0 + x is x and x + y is
        y + x, the same exact fallback near zero and the same `removed`
        order.  With a shadow in view, a step that `_no_set_wins`
        settles is rejected without scoring: no set could score above
        zero, so only its counts of sets and touched edges are kept, and
        a traced one hands over a TraceEvent with no decision.  Once a
        step has touched seven edges, no step keeps either count, and an
        untraced settled one reads no far cover: the step that touched
        seven also counted seven sets (see the module docstring), so no
        count can raise either maximum.  A step whose candidates are
        pairwise disjoint, e with one shadow (three sets) or two (seven),
        scores each set here from the roles as `_score` would and, when
        all are clear of zero, ranks them and settles an insertion as
        `_rank` does.  Otherwise the step hands `_rank` the view it read,
        e, a, b, s1, c1, s2 and c2.  Either way it applies the set picked
        if it scores above zero, and a traced step hands its event the
        view, that decision and the set's position.
        """
        matching = self.matching
        get = matching.get
        slots = self.shadow_slots
        t = self.threshold
        inf = math.inf
        rounding = _ROUNDING
        underflow = _UNDERFLOW
        max_sets = max_touched = max_stored = 0
        i = -1
        ranked = None
        for i, e in enumerate(edges):
            u, v, w = e
            a = get(u)
            b = get(v)
            # One matching edge covers both endpoints iff e is already in.
            if not 0.0 < w < inf or (a is not None and a == b):
                check_input(matching, e)
            s1 = s2 = c1 = c2 = None
            if slots:
                if a is not None:
                    p1 = a.v if a.u == u else a.u
                    s1 = slots.get(p1)
                if b is not None:
                    p2 = b.v if b.u == v else b.u
                    s2 = slots.get(p2)
            if s1 is None and s2 is None:
                # A lone edge meets at most one matching edge per end.
                if a is None:
                    if b is None:
                        removed = ()
                        w_removed = 0.0
                    else:
                        removed = (b,)
                        w_removed = t * b.w
                elif b is None:
                    removed = (a,)
                    w_removed = t * a.w
                else:
                    removed = (a, b) if a < b else (b, a)
                    w_removed = t * (a.w + b.w)
                r = w - w_removed
                if abs(r) > rounding * (w + w_removed) + underflow:
                    inserted = r > 0
                else:
                    exact = _exact_score((e,), removed, t)
                    r = _signed_float(exact)
                    inserted = exact > 0
                chosen = (e,)
                if inserted:
                    self._apply(chosen, removed)
                touched = 1 + len(removed)
                settled = False
            else:
                settled = _no_set_wins(t, w, a, b, s1, s2)
                # Nothing reads a step's counts once they cannot raise
                # either maximum any more.
                counted = max_touched < 7
                if settled and not counted and trace is None:
                    continue
                if s1 is not None:
                    f1 = s1.v if s1.u == p1 else s1.u
                    c1 = get(f1)
                if s2 is not None:
                    f2 = s2.v if s2.u == p2 else s2.u
                    c2 = get(f2)
                if counted:
                    view = {e, a, b, s1, c1, s2, c2}
                    view.discard(None)
                    touched = len(view)
                else:
                    touched = 7  # what max_touched is already
                if settled:
                    inserted = False
                    sets = (_disjoint_subset_count(_candidates(e, s1, s2))
                            if counted else 7)
                else:
                    chosen = None
                    # Pairwise disjoint candidates are scored here: e, a
                    # shadow s behind g and, if distinct, z = s2 behind o
                    # (a shadow can meet e or z only at its far end).  e
                    # removes g and o, s g and its far cover c, z o and c2,
                    # and a set the union, summed sorted as `_score` does.
                    z = s2 if s1 is not None and s2 is not None and s2 != s1 else None
                    if (f1 != v if z is None and s1 is not None else
                            f2 != u if s1 is None else f1 != v and f2 != u
                            and f1 != p2 and f2 != p1 and f1 != f2):
                        s, g, c, o = ((s1, a, c1, b) if s1 is not None
                                      else (s2, b, c2, a))
                        rem_e = (g,) if o is None else (g, o) if g < o else (o, g)
                        rem_s = (g,) if c is None else (g, c) if g < c else (c, g)
                        t_e = t * (g.w if o is None else g.w + o.w)
                        t_s = t * (g.w if c is None else g.w + c.w)
                        if c is None or c is o:
                            rem_p, t_p = rem_e, t_e
                        elif o is None:
                            rem_p, t_p = rem_s, t_s
                        else:
                            x, y, q = rem_p = tuple(sorted((g, o, c)))
                            t_p = t * (x.w + y.w + q.w)
                        w_p = w + s.w
                        r_e, b_e = w - t_e, rounding * (w + t_e)
                        r_s, b_s = s.w - t_s, rounding * (s.w + t_s)
                        r_p, b_p = w_p - t_p, rounding * (w_p + t_p)
                        pair = (e, s) if e < s else (s, e)
                        sets, cands = 3, pair
                        # Clear of rounding, the floats rank as in `_rank`.
                        clear = (abs(r_e) > b_e + underflow
                                 and abs(r_s) > b_s + underflow
                                 and abs(r_p) > b_p + underflow)
                        if clear and z is not None:
                            if c2 is None:
                                rem_z, t_z, rem_ez, t_ez = (o,), t * o.w, rem_e, t_e
                            else:
                                rem_z = (o, c2) if o < c2 else (c2, o)
                                t_z = t * (o.w + c2.w)
                                x, y, q = rem_ez = tuple(sorted((g, o, c2)))
                                t_ez = t * (x.w + y.w + q.w)
                            if c is None:
                                rem_sz, t_sz = rem_ez, t_ez
                            elif c2 is None or c2 is c:
                                rem_sz, t_sz = rem_p, t_p
                            else:
                                x, y, q, h = rem_sz = tuple(sorted((g, o, c, c2)))
                                t_sz = t * (x.w + y.w + q.w + h.w)
                            x, y, q = cands = tuple(sorted((e, s, z)))
                            sets = 7
                            w_3 = x.w + y.w + q.w
                            r_z, b_z = z.w - t_z, rounding * (z.w + t_z)
                            r_ez, b_ez = w + z.w - t_ez, rounding * (w + z.w + t_ez)
                            r_sz, b_sz = s.w + z.w - t_sz, rounding * (s.w + z.w + t_sz)
                            r_3, b_3 = w_3 - t_sz, rounding * (w_3 + t_sz)
                            clear = (abs(r_z) > b_z + underflow
                                     and abs(r_ez) > b_ez + underflow
                                     and abs(r_sz) > b_sz + underflow
                                     and abs(r_3) > b_3 + underflow)
                        if clear:
                            chosen, r, removed, bound = (e,), r_e, rem_e, b_e
                            if r_s > r or r_s == r and _better(r, (s,), r, chosen):
                                chosen, r, removed, bound = (s,), r_s, rem_s, b_s
                            if r_p > r or r_p == r and _better(r, pair, r, chosen):
                                chosen, r, removed, bound = pair, r_p, rem_p, b_p
                            if z is not None:
                                if r_z > r or r_z == r and _better(r, (z,), r, chosen):
                                    chosen, r, removed, bound = (z,), r_z, rem_z, b_z
                                ez = (e, z) if e < z else (z, e)
                                if r_ez > r or r_ez == r and _better(r, ez, r, chosen):
                                    chosen, r, removed, bound = ez, r_ez, rem_ez, b_ez
                                sz = (s, z) if s < z else (z, s)
                                if r_sz > r or r_sz == r and _better(r, sz, r, chosen):
                                    chosen, r, removed, bound = sz, r_sz, rem_sz, b_sz
                                if r_3 > r or r_3 == r and _better(r, cands, r, chosen):
                                    chosen, r, removed, bound = cands, r_3, rem_sz, b_3
                            # Settle an insertion if a lone edge, or under all
                            # three a pair, scores within both bounds below it.
                            if r > 0 and len(chosen) > 1 and (
                                    r - r_e <= bound + underflow + b_e
                                    or r - r_s <= bound + underflow + b_s
                                    or z is not None and (
                                        r - r_z <= bound + underflow + b_z
                                        or chosen is cands and (
                                            r - r_p <= bound + underflow + b_p
                                            or r - r_ez <= bound + underflow + b_ez
                                            or r - r_sz <= bound + underflow + b_sz))):
                                r, chosen, removed = _settle_near_ties(
                                    t, chosen, (r, removed, r, bound),
                                    [(e,), (s,), pair]
                                    + ([] if z is None else [(z,), ez, sz]),
                                    [(r_e, rem_e, r_e, b_e), (r_s, rem_s, r_s, b_s),
                                     (r_p, rem_p, r_p, b_p)]
                                    + ([] if z is None else [
                                        (r_z, rem_z, r_z, b_z),
                                        (r_ez, rem_ez, r_ez, b_ez),
                                        (r_sz, rem_sz, r_sz, b_sz)]))
                    if chosen is None:
                        ranked, chosen, removed, r, inserted = _rank(
                            t, e, a, b, s1, c1, s2, c2)
                        sets = len(ranked)
                    else:
                        inserted = r > 0
                    if inserted:
                        self._apply(chosen, removed)
                if sets > max_sets:
                    max_sets = sets
            if touched > max_touched:
                max_touched = touched
            if trace is not None:
                # A settled step has no decision.  The inserted set is a
                # lone edge's, one of `ranked`, this step's `_rank` sets,
                # or the inline set of `cands` at its bitmask.
                decision = pos = None
                if not settled:
                    decision = InsertionDecision(chosen, removed, r, inserted)
                if inserted:
                    pos = (0 if s1 is None and s2 is None else
                           ranked.index(chosen) if ranked is not None else
                           sum(1 << cands.index(f) for f in chosen) - 1)
                ranked = None
                trace(TraceEvent(i, tuple.__new__(
                    Neighborhood, (e, a, s1, c1, b, s2, c2)), None, decision,
                    inserted, pos))
            # Only an insertion can grow the stored-edge count.
            if inserted:
                stored = self.matched_edge_count + self.parked_edge_count
                if stored > max_stored:
                    max_stored = stored
                if on_insert is not None:
                    on_insert(decision if trace is not None else
                              InsertionDecision(chosen, removed, r, True))
        # A lone step scores one set; a step with a shadow in view, more.
        if i >= 0 and not max_sets:
            max_sets = 1
        return i + 1, max_sets, max_touched, max_stored

    def process_edge_traced(self, e: Edge, index: int) -> TraceEvent:
        """Process one input edge as process_edge does, but return the
        step's TraceEvent, numbered `index`: the loop `drive` runs, over
        the one edge with a trace sink.  `read_trace` replays a trace
        through it."""
        events = []
        self._steps((e,), None, events.append)
        event = events[0]
        event.index = index
        return event

    def _apply(self, chosen: tuple[Edge, ...], removed: tuple[Edge, ...]) -> None:
        matching = self.matching
        for d in removed:
            del matching[d.u]
            del matching[d.v]
        for f in chosen:
            matching[f.u] = f
            matching[f.v] = f
        if self.parks:
            # At each end x of a removed edge, forget what is parked
            # there, then park the edge there if an inserted edge covers
            # x: matching[x] exists here iff one does, as every old edge
            # at x was removed.  A parked edge sits in at most two slots,
            # one per end, and stops counting when its last one is
            # cleared; the end of (u, v) that is not x is u + v - x.
            slots = self.shadow_slots
            # Each removed edge shares a vertex with an inserted one, so
            # it is parked in one slot or two.
            parked = self.parked_edge_count + len(removed)
            for d in removed:
                x, y, _ = d
                shadow = slots.pop(x, None)
                if shadow and slots.get(shadow.u + shadow.v - x) is not shadow:
                    parked -= 1
                shadow = slots.pop(y, None)
                if shadow and slots.get(shadow.u + shadow.v - y) is not shadow:
                    parked -= 1
                if x in matching:
                    slots[x] = d
                if y in matching:
                    slots[y] = d
            self.parked_edge_count = parked
        self.matched_edge_count += len(chosen) - len(removed)
        self.insertions += 1


def _rank(t: float, e: Edge, a: Edge | None, b: Edge | None,
          s1: Edge | None, c1: Edge | None, s2: Edge | None,
          c2: Edge | None):
    """Score every disjoint subset of a view's candidate edges at
    threshold t and pick the one a step inserts if its score is above
    zero: the ranking behind a step that cannot score its view inline
    (two candidates meet, or a score lies within rounding of zero; see
    `_steps`), and behind `process_edge`'s decision of a settled step.

    The view is a step's: input edge `e`, the matching edges `a` and
    `b` at its ends, the shadows `s1` behind `a` and `s2` behind `b`,
    and the matching edges `c1` and `c2` at the shadows' far ends, None
    where a role is empty.  Their conflicts are known from it: `e`
    removes a and b, `s1` a and c1, `s2` b and c2, and a set the union
    of its edges', so no set reads the matching.  The best set under
    `_better` is settled against its own subsets when it would be
    inserted (`_settle_near_ties`).  Reads nothing but its arguments.

    Returns (sets, chosen, removed, r, inserted), where `inserted`
    says whether the chosen set's ranking key is above zero.
    """
    # The two shadows coincide on a 4-cycle, with the same conflicts.
    conflicts = {e: (a, b), s1: (a, c1), s2: (b, c2)}
    cands = _candidates(e, s1, s2)
    cands.sort()
    sets = _disjoint_subsets(cands)
    scores = []
    chosen = None
    for subset in sets:
        w_chosen = 0.0
        held = set()
        for f in subset:
            w_chosen += f.w
            held.update(conflicts[f])
        held.discard(None)
        score = _score(subset, w_chosen, tuple(sorted(held)), t)
        scores.append(score)
        key = score[2]
        if (chosen is None or key > best_key or key == best_key
                and _better(key, subset, best_key, chosen)):
            chosen, best_key, best = subset, key, score

    r, removed, _, _ = best
    inserted = best_key > 0
    if inserted and len(chosen) > 1:
        r, chosen, removed = _settle_near_ties(t, chosen, best, sets, scores)
    return sets, chosen, removed, r, inserted


def _settle_near_ties(t: float, chosen: tuple[Edge, ...], score: tuple,
                      sets: list, scores: list):
    """Rank the winning multi-edge set `chosen`, scored `score` at
    threshold t, exactly against its own subsets.

    When a proper subset scores within both sets' rounding bounds of
    the winner, floats cannot tell them apart, and the superset may
    win on an extra edge whose exact marginal is negative: that edge
    then cannot pay for what it removes, and the insertion fails the
    exact certificate.  Such subsets are compared in Fraction, and
    the best of those that is exactly higher replaces the winner.
    `sets` and `scores` are every scored set and its `_score`
    record, or one built the same way by a step that scores its view
    inline, the proper subsets of `chosen` among them, so each set's
    rounding bound is read, not summed again.  Returns (r, chosen,
    removed) of the set to insert.
    """
    r, removed, _, bound = score
    bound += _UNDERFLOW
    exact = best = None
    for sub, (r_sub, removed_sub, _, bound_sub) in zip(sets, scores):
        if abs(r_sub - r) > bound + bound_sub:
            continue
        if len(sub) >= len(chosen) or not all(f in chosen for f in sub):
            continue
        if exact is None:
            exact = _exact_score(chosen, removed, t)
        q = _exact_score(sub, removed_sub, t)
        if q > exact and (best is None or _better(q, sub, best[0], best[2])):
            best = (q, r_sub, sub, removed_sub)
    if best is None:
        return r, chosen, removed
    return best[1:]


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


InsertHook = Callable[[InsertionDecision], None]
TraceSink = Callable[[TraceEvent], None]


def drive(matcher, stream: EdgeStream | Iterable[Edge], *,
          trace: TraceSink | None = None,
          on_insert: InsertHook | None = None) -> RunResult:
    """Feed a whole stream through `matcher`: the package's one per-edge
    loop, behind run_stream, run_baseline, the harness and the CLI.

    The loop is the matcher's own step loop, traced or not: it keeps
    the run's maxima in locals, builds the Neighborhood and TraceEvent
    only for `trace` and a decision only for a scored traced step or an
    insertion `on_insert` reads;
    `process_edge_traced` is that loop over one edge, and one step's
    work counts are the metrics of `drive(matcher, [e])`.  The counters
    `matched_edge_count` and `parked_edge_count` keep the stored-edge
    count O(1).  `trace` and `on_insert` are as in run_stream; a step
    that provably inserts nothing is rejected unscored, with the same
    result.

    The result's weight is the `fsum` of the final matching, so a
    matching whose weight leaves the float range raises OverflowError
    after the whole pass, and the run's metrics are not returned.  The
    CLI maps that error to its input-error exit code, 2.
    """
    steps, max_sets, max_touched, max_stored = matcher._steps(
        stream, on_insert, trace)
    metrics = RunMetrics(steps, matcher.insertions, max_stored, max_sets,
                         max_touched)
    matching = matcher.matching_edges()
    return RunResult(matching, math.fsum(e.w for e in matching), metrics)


def run_stream(stream: EdgeStream | Iterable[Edge], k: float, *,
               trace: TraceSink | None = None,
               on_insert: InsertHook | None = None) -> RunResult:
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
    on_insert
        Optional hook called with the InsertionDecision of each step
        that inserted, after the state changed and after `trace` got
        the step's event.  Used to certify insertions without paying
        for a trace; rejected steps are read from `trace`.

    Raises OverflowError, as `drive` does, when the final matching's
    weight leaves the float range.
    """
    return drive(ShadowMatcher(k), stream, trace=trace, on_insert=on_insert)


_TRACE_VERSION = 4


def trace_header(matcher: ShadowMatcher) -> str:
    """The first line of a trace of `matcher`'s run, without the
    newline: the trace version, the threshold t the steps score at and
    whether removed edges are parked."""
    return json.dumps({"trace": _TRACE_VERSION, "threshold": matcher.threshold,
                       "parks": matcher.parks})


def trace_line(event: TraceEvent, feasible: bool | None = None) -> str:
    """Render one TraceEvent as its trace line, without the newline.

    The line is a JSON array of what a reader cannot derive from the
    header and the lines before it:

        [index, [u, v, w], chosen]

    The input edge is spelled whole.  `chosen` is the event's
    `position`: where the inserted set is among the candidate sets, in
    `enumerate_augmenting_sets` order, or null on a rejection.  No role
    and no score is spelled: :func:`read_trace` replays the step at the
    header's threshold.
    `feasible`, when not None, is the verifier's verdict on an
    insertion and is appended as a fourth item.
    """
    e = event.neighborhood[0]
    pos = event.position
    return (f"[{event.index},[{e.u},{e.v},{e.w!r}],"
            f"{'null' if pos is None else pos}"
            f"{'' if feasible is None else ',true' if feasible else ',false'}]")


def trace_to_dict(event: TraceEvent, feasible: bool | None = None) -> dict:
    """Render one TraceEvent as its JSON-ready record, the version 1
    trace line: edges as [u, v, w] lists, roles keyed by name, and
    `allocation_feasible` only with a verdict."""
    def enc(e):
        return None if e is None else [e.u, e.v, e.w]

    nb = event.neighborhood
    d = event.decision
    decision = {"A": [enc(f) for f in d.chosen], "inserted": d.inserted,
                "r": d.gain, "removed": [enc(f) for f in d.removed]}
    if feasible is not None:
        decision["allocation_feasible"] = feasible
    return {"S": {role: enc(f) for role, f in zip(nb._fields, nb)},
            "candidates": [{"edges": [enc(f) for f in subset], "r": score}
                           for subset, score in event.candidates],
            "decision": decision, "index": event.index, "input": enc(nb.y1y2)}


def read_trace(lines: Iterable[str]
               ) -> Iterator[tuple[TraceEvent, bool | None]]:
    """Read a trace, header first, by replaying the run: yield each
    step's TraceEvent and the line's verdict, or None without one.

    The header gives the threshold and whether removed edges are parked,
    and the reader builds one matcher that scores at exactly that
    threshold and parks as it says.  Each line's input edge is then fed
    to that matcher's step (`process_edge_traced`), numbered by the
    line's position after the header, and the line must be the one
    `trace_line` writes for the step's event and the line's verdict:
    its index, its input edge and its `chosen`.  Each event is the
    step's, so its roles come back, and its decision unless the step was
    settled.  So the reader holds what the run holds, at most
    3 * floor(n/2) edges.  ValueError names a line that is malformed or
    that the step does not write: an edited or reordered trace, a line
    cut short, or a trace another build wrote, or a verdict on a step
    that inserted nothing.  A trace cut at a line boundary is a whole
    trace of the stream's first steps, as a run that stops at a bad
    input line leaves it.
    """
    lines = iter(lines)
    try:
        header = json.loads(next(lines, "null"))
        if (not isinstance(header, dict)
                or header.get("trace") != _TRACE_VERSION
                or type(header.get("parks")) is not bool):
            raise ValueError(f"not a version {_TRACE_VERSION} trace header: "
                             f"{header!r}")
        t = real_parameter("threshold", header.get("threshold"), 1.0,
                           strict=False)
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"trace line 1: {exc}") from None
    matcher = ShadowMatcher.__new__(ShadowMatcher)
    matcher._start(t)
    matcher.parks = header["parks"]
    for i, line in enumerate(lines):
        line = line.rstrip("\r\n")
        try:
            items = json.loads(line)
            u, v, w = items[1]
            # `edge` only checks: it would make an int weight a float,
            # which the line spells otherwise.
            e = Edge(u, v, w)
            if edge(u, v, w) != e:
                raise ValueError(f"input edge {items[1]} is not canonical")
            feasible = items[3] if len(items) > 3 else None
            event = matcher.process_edge_traced(e, i)
            if feasible is not None and not event.inserted:
                raise ValueError("a step that inserts nothing has no verdict")
        except (LookupError, OverflowError, RecursionError, TypeError,
                ValueError) as exc:
            raise ValueError(f"trace line {i + 2}: {exc}") from None
        written = trace_line(event, feasible)
        if written != line:
            raise ValueError(f"trace line {i + 2}: the step on its input edge "
                             f"writes {written}")
        yield event, feasible
