"""The shadow matcher: local views, scoring, insertion, invariants."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (brute_force_disjoint, check_matcher_invariants,
                     random_edge_list, reference_conflict_score,
                     reference_event, reference_rank, reference_trace_record)
from shadowmatch.baseline import (GAMMA_RATIO_5_828, BaselineMatcher,
                                  run_baseline)
from shadowmatch import shadow as shadow_module
from shadowmatch.bound import K_STAR, optimal_k
from shadowmatch.graph import Edge, edge, open_stream
from shadowmatch.cli import main
from shadowmatch.shadow import (InsertionDecision, ShadowMatcher, TraceEvent,
                                _disjoint_subset_count, _disjoint_subsets,
                                conflict_score, drive,
                                enumerate_augmenting_sets, run_stream,
                                read_trace, trace_header, trace_line,
                                trace_to_dict)

# The two-sided gadget, by role.  Weights are chosen so the unique best
# step for the final input edge is to insert it together with the
# parked shadow on side 1.
A1C1 = edge(4, 6, 1.0)
G1Y1 = edge(0, 2, 2.0)
A1G1 = edge(2, 4, 6.0)
G2Y2 = edge(1, 3, 1.0)
A2G2 = edge(3, 5, 1.0)
A2C2 = edge(5, 7, 1.0)
Y1Y2 = edge(0, 1, 6.0)


def _candidates(nb) -> tuple[Edge, ...]:
    """The distinct non-matching edges in view, sorted: the input edge
    and the two shadows; the four other roles can only be removed."""
    return tuple(sorted({nb.y1y2, nb.a1g1, nb.a2g2} - {None}))


def gadget_state(k: float = 1.5) -> ShadowMatcher:
    """Matcher state with both sides of the input edge fully populated.

    This exact state is not reachable by streaming these seven edges
    in any order (the parked edge outweighs everything that could have
    displaced it), so the tests install it directly.
    """
    m = ShadowMatcher(k)
    for e in (G1Y1, G2Y2, A1C1, A2C2):
        m.matching[e.u] = e
        m.matching[e.v] = e
        m.matched_edge_count += 1
    m.shadow_slots[2] = A1G1  # parked at g1
    m.shadow_slots[3] = A2G2  # parked at g2
    return m


# -- construction ----------------------------------------------------------

@pytest.mark.parametrize("k", [1.0, 0.5, 0.0, -1.0, float("nan"), float("inf")])
def test_k_must_exceed_one(k):
    with pytest.raises(ValueError):
        ShadowMatcher(k)


def test_k_accepts_reasonable_values():
    assert ShadowMatcher(1.717).k == 1.717
    assert ShadowMatcher(2).k == 2.0


def test_fresh_state_is_empty():
    m = ShadowMatcher(2.0)
    assert m.matching_edges() == ()
    assert m.shadow_slots == {}
    assert m.stored_edge_count() == 0


# -- neighborhood ----------------------------------------------------------

def test_neighborhood_on_empty_state():
    m = ShadowMatcher(2.0)
    nb = m.neighborhood(edge(1, 2, 1.0))
    assert nb._asdict() == {"y1y2": edge(1, 2, 1.0), "g1y1": None,
                            "a1g1": None, "a1c1": None, "g2y2": None,
                            "a2g2": None, "a2c2": None}
    assert _candidates(nb) == (edge(1, 2, 1.0),)


def test_neighborhood_single_matched_side():
    m = ShadowMatcher(2.0)
    m.process_edge(edge(1, 2, 3.0))
    nb = m.neighborhood(edge(2, 3, 1.0))
    roles = nb._asdict()
    assert roles["g1y1"] == edge(1, 2, 3.0)
    assert roles["g2y2"] is None
    assert roles["a1g1"] is None
    # side 1 hangs off y1 = 2, whose matching edge leads to g1 = 1
    assert nb.y1y2.u == 2
    assert nb.g1y1.other(2) == 1


def test_neighborhood_gadget_has_seven_distinct_edges():
    nb = gadget_state().neighborhood(Y1Y2)
    assert nb._asdict() == {"y1y2": Y1Y2, "g1y1": G1Y1, "a1g1": A1G1,
                            "a1c1": A1C1, "g2y2": G2Y2, "a2g2": A2G2,
                            "a2c2": A2C2}
    assert nb == (Y1Y2, G1Y1, A1G1, A1C1, G2Y2, A2G2, A2C2)
    assert len(set(nb)) == 7
    assert _candidates(nb) == tuple(sorted([Y1Y2, A1G1, A2G2]))


def test_neighborhood_shadow_pulls_far_cover():
    # matching (1,2) and (3,4); shadow (2,3) parked at 3 next to (3,4):
    # from anchor 4 the far cover of the shadow is the edge at vertex 2
    m = ShadowMatcher(2.0)
    m.matching.update({1: edge(1, 2, 5.0), 2: edge(1, 2, 5.0),
                       3: edge(3, 4, 5.0), 4: edge(3, 4, 5.0)})
    m.matched_edge_count = 2
    m.shadow_slots[3] = edge(2, 3, 1.0)
    nb = m.neighborhood(edge(4, 5, 1.0))
    assert nb.a1g1 == edge(2, 3, 1.0)
    # g1 = 3 is the far end of (3, 4) from y1 = 4; a1 = 2 the shadow's
    assert nb.a1g1.other(nb.g1y1.other(4)) == 2
    assert nb.a1c1 == edge(1, 2, 5.0)


# -- candidate set enumeration ---------------------------------------------

def test_enumerate_single_candidate():
    m = ShadowMatcher(2.0)
    nb = m.neighborhood(edge(1, 2, 1.0))
    assert enumerate_augmenting_sets(nb) == [(edge(1, 2, 1.0),)]


def test_enumerate_gadget_gives_all_seven_subsets():
    nb = gadget_state().neighborhood(Y1Y2)
    sets = enumerate_augmenting_sets(nb)
    assert len(sets) == 7
    for s in sets:
        assert brute_force_disjoint(s)


def test_enumerate_excludes_adjacent_pairs():
    # triangle case: the shadow shares a vertex with the input edge
    m = ShadowMatcher(2.0)
    m.matching.update({2: edge(2, 3, 4.0), 3: edge(2, 3, 4.0)})
    m.matched_edge_count = 1
    m.shadow_slots[3] = edge(1, 3, 2.0)  # parked edge touching vertex 1
    nb = m.neighborhood(edge(1, 2, 5.0))
    assert nb.a2g2 == edge(1, 3, 2.0)
    sets = enumerate_augmenting_sets(nb)
    # both singletons, never the adjacent pair
    assert (edge(1, 2, 5.0),) in sets
    assert (edge(1, 3, 2.0),) in sets
    assert len(sets) == 2


def test_enumerate_dedups_shared_shadow():
    # 4-cycle: both sides see the same parked edge
    m = ShadowMatcher(2.0)
    m.matching.update({0: edge(0, 2, 3.0), 2: edge(0, 2, 3.0),
                       1: edge(1, 3, 3.0), 3: edge(1, 3, 3.0)})
    m.matched_edge_count = 2
    shared = edge(2, 3, 1.0)
    m.shadow_slots[2] = shared
    m.shadow_slots[3] = shared
    nb = m.neighborhood(edge(0, 1, 4.0))
    assert nb.a1g1 == shared
    assert nb.a2g2 == shared
    assert _candidates(nb) == tuple(sorted([edge(0, 1, 4.0), shared]))
    assert len(enumerate_augmenting_sets(nb)) == 3


def _untraced_step(m: ShadowMatcher, e: Edge):
    """Run `e` through the untraced step of `m`, as `drive` does with an
    insertion hook: (the decision if the step inserted, else None, its
    count of candidate sets, its count of touched edges)."""
    inserted = []
    metrics = drive(m, [e], on_insert=inserted.append).metrics
    assert len(inserted) <= 1
    return (inserted[0] if inserted else None, metrics.max_candidate_sets,
            metrics.max_touched_edges)


def _traced_step(m: ShadowMatcher, e: Edge):
    """Run `e` through the traced step of `m`, as `drive` does with a
    trace sink: (the step's TraceEvent, its count of candidate sets, its
    count of touched edges)."""
    events = []
    metrics = drive(m, [e], trace=events.append).metrics
    assert len(events) == 1
    return events[0], metrics.max_candidate_sets, metrics.max_touched_edges


def _if_inserted(d: InsertionDecision) -> InsertionDecision | None:
    """`d` if its step inserted, else None: what an insertion hook sees."""
    return d if d.inserted else None


@pytest.mark.parametrize("w", [4.0, 13.0])
def test_traced_step_scores_a_shared_shadow_once(w):
    """On a 4-cycle both sides hold the same parked edge: the traced step
    records the view neighborhood() reads and counts the subsets
    enumerate_augmenting_sets gives, which the reference scores,
    process_edge returns the reference's decision, and the untraced step
    decides and counts as it does, whether it rejects or inserts."""
    def four_cycle():
        m = ShadowMatcher(2.0)
        for e in (edge(0, 2, 3.0), edge(1, 3, 3.0)):
            m.matching[e.u] = m.matching[e.v] = e
        m.matched_edge_count = 2
        m.shadow_slots[2] = m.shadow_slots[3] = edge(2, 3, 1.0)
        m.parked_edge_count = 1
        return m

    traced, plain, lean = four_cycle(), four_cycle(), four_cycle()
    y = edge(0, 1, w)
    nb = traced.neighborhood(y)
    sets = enumerate_augmenting_sets(nb)
    event, traced_sets, traced_touched = _traced_step(traced, y)
    scored = reference_event(event, 2.0)
    assert event.neighborhood == nb
    assert [subset for subset, _ in scored.candidates] == sets
    assert plain.process_edge(y) == scored.decision
    assert scored.decision.inserted == (w > 12.0)
    assert traced_sets == len(scored.candidates) == 3
    assert traced_touched == 4
    assert _untraced_step(lean, y) == (_if_inserted(scored.decision), 3, 4)
    assert lean.matching == traced.matching
    assert lean.shadow_slots == traced.shadow_slots


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_enumerated_sets_are_disjoint_and_complete(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    edges = random_edge_list(rng, max_n=8)
    m = ShadowMatcher(1.717)
    for e in edges:
        nb = m.neighborhood(e)
        sets = enumerate_augmenting_sets(nb)
        assert 1 <= len(sets) <= 7
        for s in sets:
            assert brute_force_disjoint(s)
        # completeness: every disjoint subset of candidates shows up
        cands = _candidates(nb)
        expected = 0
        for mask in range(1, 1 << len(cands)):
            subset = tuple(c for i, c in enumerate(cands) if mask >> i & 1)
            if brute_force_disjoint(subset):
                expected += 1
        assert len(sets) == expected
        m.process_edge(e)


# -- gain ------------------------------------------------------------------

def test_gain_on_empty_state():
    m = ShadowMatcher(1.717)
    r, removed = m.gain_of((edge(1, 2, 1.0),))
    assert r == 1.0
    assert removed == ()


def test_gain_against_one_matching_edge():
    m = ShadowMatcher(1.717)
    m.process_edge(edge(1, 2, 3.0))
    r, removed = m.gain_of((edge(2, 3, 4.0),))
    assert r == 4 - 1.717 * 3
    assert removed == (edge(1, 2, 3.0),)


def test_gain_on_gadget_pair():
    m = gadget_state()
    r, removed = m.gain_of((Y1Y2, A1G1))
    assert r == 6.0
    assert removed == tuple(sorted([A1C1, G1Y1, G2Y2]))


def test_gain_counts_shared_removals_once():
    # both inserted edges touch the same matching edge
    m = ShadowMatcher(2.0)
    m.matching.update({2: edge(2, 3, 4.0), 3: edge(2, 3, 4.0)})
    m.matched_edge_count = 1
    r, removed = m.gain_of((edge(1, 2, 5.0), edge(3, 4, 5.0)))
    assert removed == (edge(2, 3, 4.0),)
    assert r == 10 - 2.0 * 4


def test_gadget_argmax_matches_brute_force():
    m = gadget_state()
    nb = m.neighborhood(Y1Y2)
    scored = [(m.gain_of(s)[0], s) for s in enumerate_augmenting_sets(nb)]
    best_r = max(r for r, _ in scored)
    best = [s for r, s in scored if r == best_r]
    assert best == [tuple(sorted([Y1Y2, A1G1]))]
    assert best_r == 6.0


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_lone_edge_score_matches_set_and_sort(data):
    """conflict_score scores sets of every size in one loop; on a lone
    edge and on two or three pairwise-disjoint edges it must return
    what collecting the conflicts in a set and sorting them does, exact
    Fraction keys included, also a few ulps from a zero score."""
    t = data.draw(st.sampled_from(
        [optimal_k()[0], 1.0 + 0.0, 1.0 + GAMMA_RATIO_5_828, 1.0 + 1.0]))
    size = data.draw(st.integers(1, 3))
    vs = data.draw(st.permutations(range(12)))
    pairs = [vs[2 * i:2 * i + 2] for i in range(size)]
    fresh = list(vs[2 * size:])
    side = {x: i for i, pair in enumerate(pairs) for x in pair}
    weights = st.floats(1e-3, 1e3)
    # Each end of the set is left free, matched to a fresh vertex, or
    # matched to an end of another edge of the set, so that one
    # matching edge can meet two edges of the set.
    matching = {}
    for x in side:
        if x in matching:
            continue
        how = data.draw(st.sampled_from(["free", "fresh", "shared"]))
        if how == "free":
            continue
        others = [y for y in side if y not in matching and side[y] != side[x]]
        y = (data.draw(st.sampled_from(others)) if how == "shared" and others
             else fresh.pop())
        m = edge(x, y, data.draw(weights))
        matching[m.u] = matching[m.v] = m
    ws = [data.draw(weights) for _ in pairs]
    covers = sorted({matching[x] for x in side if x in matching})
    if covers and data.draw(st.booleans()):
        # the last edge's weight a few ulps from a zero score
        w = t * sum(m.w for m in covers) - sum(ws[:-1])
        if w > 0:
            steps = data.draw(st.integers(-2, 2))
            for _ in range(abs(steps)):
                w = math.nextafter(w, math.inf if steps > 0 else 0.0)
            ws[-1] = w
    chosen = tuple(edge(u, v, w) for (u, v), w in zip(pairs, ws))
    if size == 1 and data.draw(st.integers(0, 4)) == 0:
        # the edge itself matched, as when gain_of scores a matching edge
        e = chosen[0]
        matching = {e.u: e, e.v: e}
    r, removed, key = conflict_score(matching, chosen, t)
    r_ref, removed_ref, key_ref = reference_conflict_score(matching, chosen, t)
    assert removed == removed_ref
    assert repr(r) == repr(r_ref)
    assert type(key) is type(key_ref) and key == key_ref


# -- process_edge ----------------------------------------------------------

def test_first_edge_is_always_inserted():
    m = ShadowMatcher(1.717)
    d = m.process_edge(edge(1, 2, 0.001))
    assert d == InsertionDecision((edge(1, 2, 0.001),), (), 0.001, True)
    assert m.matching_edges() == (edge(1, 2, 0.001),)


def test_rejection_leaves_state_untouched():
    m = ShadowMatcher(1.717)
    m.process_edge(edge(1, 2, 3.0))
    before = (dict(m.matching), dict(m.shadow_slots))
    d = m.process_edge(edge(2, 3, 4.0))
    assert not d.inserted
    assert d.gain == 4 - 1.717 * 3
    assert (m.matching, m.shadow_slots) == before


def test_zero_gain_is_rejected():
    # replacement at exactly k times the removed weight must not fire
    m = ShadowMatcher(2.0)
    m.process_edge(edge(1, 2, 3.0))
    d = m.process_edge(edge(2, 3, 6.0))
    assert d.gain == 0.0
    assert not d.inserted
    assert m.matching_edges() == (edge(1, 2, 3.0),)


def test_replacement_parks_removed_edge():
    m = ShadowMatcher(1.717)
    m.process_edge(edge(1, 2, 1.0))
    d = m.process_edge(edge(2, 3, 10.0))
    assert d.inserted
    assert d.removed == (edge(1, 2, 1.0),)
    assert m.shadow_slots == {2: edge(1, 2, 1.0)}
    assert m.matching_edges() == (edge(2, 3, 10.0),)


def test_three_edge_path_keeps_heavy_middle():
    res = run_stream([edge(1, 2, 1.0), edge(2, 3, 10.0), edge(3, 4, 1.0)],
                     1.717)
    assert res.weight == 10.0
    assert res.matching == (edge(2, 3, 10.0),)
    assert res.metrics.insertions == 2


def test_duplicate_of_matched_edge_rejected():
    m = ShadowMatcher(2.0)
    m.process_edge(edge(1, 2, 1.0))
    with pytest.raises(ValueError):
        m.process_edge(edge(2, 1, 5.0))


def test_bad_weight_rejected():
    m = ShadowMatcher(2.0)
    with pytest.raises(ValueError):
        m.process_edge(edge(1, 2, 1.0)._replace(w=-1.0))


def test_gadget_golden_step():
    m = gadget_state(k=1.5)
    d = m.process_edge(Y1Y2)
    assert d.inserted
    assert d.gain == 6.0
    assert d.chosen == tuple(sorted([Y1Y2, A1G1]))
    assert d.removed == tuple(sorted([A1C1, G1Y1, G2Y2]))
    # the replaced edges are parked next to their replacements, the
    # slot at g2 vanished with its matching edge, nothing else remains
    assert m.shadow_slots == {0: G1Y1, 2: G1Y1, 1: G2Y2, 4: A1C1}
    assert m.matching_edges() == tuple(sorted([Y1Y2, A1G1, A2C2]))


def test_gadget_insertion_weight_and_storage():
    m = gadget_state(k=1.5)
    before = m.matching_weight()
    m.process_edge(Y1Y2)
    assert m.matching_weight() > before
    assert m.stored_edge_count() == 3 + 3  # 3 matched + 3 distinct parked
    check_matcher_invariants(m, n=8)


# -- streamed runs ---------------------------------------------------------

def test_run_metrics_bounds():
    rng = random.Random(7)
    edges = random_edge_list(rng, max_n=12)
    res = run_stream(edges, 1.717)
    n = len({x for e in edges for x in e.key})
    assert res.metrics.edges_processed == len(edges)
    assert res.metrics.max_candidate_sets <= 7
    assert res.metrics.max_touched_edges <= 7
    assert res.metrics.max_stored_edges <= 3 * (n // 2)


def test_run_is_deterministic():
    rng = random.Random(21)
    edges = random_edge_list(rng, max_n=10)
    a_events, b_events = [], []
    a = run_stream(list(edges), 1.717, trace=a_events.append)
    b = run_stream(list(edges), 1.717, trace=b_events.append)
    assert a.matching == b.matching
    assert a.weight == b.weight
    assert a_events == b_events


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_invariants_hold_after_every_step(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    integer_weights = data.draw(st.booleans())
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717, 2.0, 3.0]))
    edges = random_edge_list(rng, max_n=10, integer_weights=integer_weights)
    n = len({x for e in edges for x in e.key})
    m = ShadowMatcher(k)
    last_weight = 0.0
    for e in edges:
        d = m.process_edge(e)
        check_matcher_invariants(m, n)
        weight = m.matching_weight()
        if d.inserted:
            assert d.gain > 0
            assert weight > last_weight
        else:
            assert weight == last_weight
        last_weight = weight
        # decision internal consistency
        assert brute_force_disjoint(d.chosen)
        for removed in d.removed:
            assert any(removed.shares_vertex(c) for c in d.chosen)


def test_run_stream_raises_when_the_matching_weight_leaves_the_float_range():
    """Two finite weights near 1.7e308 both insert, and the pass runs
    to its end; the final weight, an `fsum` of the matching, overflows,
    so `drive` and `run_stream` raise OverflowError and return no
    metrics.  The CLI's exit 2 on such a stream rests on this."""
    edges = [edge(1, 2, 1.7e308), edge(3, 4, 1.7e308)]
    inserted = []
    with pytest.raises(OverflowError):
        run_stream(edges, K_STAR, on_insert=inserted.append)
    assert [d.chosen for d in inserted] == [(e,) for e in edges]
    matcher = ShadowMatcher(K_STAR)
    with pytest.raises(OverflowError):
        drive(matcher, iter(edges))
    assert matcher.matching_edges() == tuple(edges)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_driver_counters_match_recounts(data):
    """The O(1) counters the driver reads agree with full recounts, for
    the shadow matcher and for the baseline policy of the same step;
    only the shadow ever parks."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    # A first step that displaces an edge, so a parking policy parks.
    edges = [edge(100, 101, 1.0), edge(101, 102, 10.0)] + random_edge_list(
        rng, max_n=12, integer_weights=data.draw(st.booleans()))
    if data.draw(st.booleans()):
        edges.sort(key=lambda e: e.w)  # ascending: most edges insert
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717, 2.0, 3.0]))
    gamma = data.draw(st.sampled_from([0.0, 0.7071067811865476, 1.0]))

    for m, run in ((ShadowMatcher(k), lambda: run_stream(edges, k)),
                   (BaselineMatcher(gamma), lambda: run_baseline(edges, gamma))):
        peak = 0
        parked = False
        for e in edges:
            m.process_edge(e)
            assert m.matched_edge_count == len(set(m.matching.values()))
            assert m.parked_edge_count == len(set(m.shadow_slots.values()))
            assert m.matched_edge_count + m.parked_edge_count == m.stored_edge_count()
            parked |= m.parked_edge_count > 0
            peak = max(peak, m.stored_edge_count())
        assert parked == m.parks
        assert run().metrics.max_stored_edges == peak



@given(st.data())
@settings(max_examples=150, deadline=None)
def test_untraced_step_matches_traced_step(data):
    """The one step loop, run untraced with an insertion hook and
    traced, where a trace sink makes it build the Neighborhood and list
    every scored set: twin matchers fed one stream must decide alike
    and report the same work per step, so tracing never changes a
    decision, and the view a traced step records from its own reads is
    the one neighborhood() reads.  The reference scores that view as the
    step decided it and counts its sets as the step does."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    weights = data.draw(st.sampled_from(["uniform", "integer", "nextafter"]))
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    n = data.draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    lean, traced = ShadowMatcher(k), ShadowMatcher(k)
    for u, v in pairs:
        if weights == "uniform":
            w = rng.uniform(0.05, 20.0)
        elif weights == "integer":
            w = float(rng.randint(1, 6))
        else:
            # a few ulps from k times the weight the edge alone displaces
            conflicts = {lean.matching.get(u), lean.matching.get(v)} - {None}
            w = k * sum(x.w for x in conflicts) or rng.uniform(0.5, 4.0)
            steps = rng.randint(-3, 3)
            for _ in range(abs(steps)):
                w = math.nextafter(w, math.inf if steps > 0 else 0.0)
        e = edge(u, v, w)
        touched = len(set(lean.neighborhood(e)) - {None})
        nb = traced.neighborhood(e)
        decision, sets, lean_touched = _untraced_step(lean, e)
        event, traced_sets, traced_touched = _traced_step(traced, e)
        scored = reference_event(event, k)
        assert event.neighborhood == nb
        assert decision == _if_inserted(scored.decision)
        assert lean_touched == traced_touched == touched
        assert sets == traced_sets == len(scored.candidates)
    assert lean.matching == traced.matching
    assert lean.shadow_slots == traced.shadow_slots


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_baseline_untraced_step_matches_traced_step(data):
    """The baseline never parks, so its every step, traced or not, takes
    the lone candidate path: twin matchers, one untraced with an
    insertion hook, must decide alike, count alike, and the traced step
    must record the view neighborhood() reads and list the one scored
    set it decided on."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    gamma = data.draw(st.sampled_from([0.0, GAMMA_RATIO_5_828, 1.0]))
    n = data.draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    lean, traced = BaselineMatcher(gamma), BaselineMatcher(gamma)
    for u, v in pairs:
        if data.draw(st.booleans()):
            w = rng.uniform(0.05, 20.0)
        else:
            # at the threshold, a few ulps either side
            conflicts = {lean.matching.get(u), lean.matching.get(v)} - {None}
            w = (1.0 + gamma) * sum(x.w for x in conflicts) or 1.0
            steps = rng.randint(-3, 3)
            for _ in range(abs(steps)):
                w = math.nextafter(w, math.inf if steps > 0 else 0.0)
        e = edge(u, v, w)
        nb = traced.neighborhood(e)
        decision, sets, touched = _untraced_step(lean, e)
        event, traced_sets, traced_touched = _traced_step(traced, e)
        assert event.neighborhood == nb
        assert decision == _if_inserted(event.decision)
        assert reference_event(event, traced.threshold).candidates == (
            (event.decision.chosen, event.decision.gain),)
        assert touched == traced_touched
        assert sets == traced_sets == 1
        assert lean.matched_edge_count == traced.matched_edge_count
    assert lean.insertions == traced.insertions
    assert lean.matching == traced.matching
    assert lean.shadow_slots == traced.shadow_slots == {}


def _nudge(w: float, rng: random.Random) -> float:
    """`w` moved by up to 12 ulps either way."""
    steps = rng.randint(-12, 12)
    for _ in range(abs(steps)):
        w = math.nextafter(w, math.inf if steps > 0 else 0.0)
    return w


# How _draw_weight draws the weight of each edge of a stream.
_WEIGHTS = ["uniform", "integer", "nextafter", "bound"]


def _draw_weight(weights: str, matcher: ShadowMatcher, u: int, v: int,
                 rng: random.Random) -> float:
    """A weight for the next edge (u, v) fed to `matcher`, drawn as
    `weights` says: uniform, a small integer, or a few ulps from where
    a score of the step crosses zero."""
    t = matcher.threshold
    if weights == "uniform":
        return rng.uniform(0.05, 20.0)
    if weights == "integer":
        return float(rng.randint(1, 6))
    if weights == "nextafter":
        # a few ulps from t times the weight the edge alone displaces,
        # some inside the rounding bound of its score and some past it
        conflicts = {matcher.matching.get(u), matcher.matching.get(v)} - {None}
        return _nudge(t * sum(x.w for x in conflicts)
                      or rng.uniform(0.5, 4.0), rng)
    # With a shadow in view, a few ulps from where the bound an untraced
    # step rejects by, W - t*(w(a) + w(b)), crosses zero.
    nb = matcher.neighborhood(edge(u, v, 1.0))
    shadows = {nb.a1g1, nb.a2g2} - {None}
    w = (t * sum(g.w for g in (nb.g1y1, nb.g2y2) if g is not None)
         - sum(s.w for s in shadows))
    return _nudge(w, rng) if shadows and w > 0 else rng.uniform(0.05, 20.0)


def _decision_bits(d: InsertionDecision):
    """A decision with its score as text, so that two scores compare
    bit for bit."""
    return d.chosen, d.removed, repr(d.gain), d.inserted


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_hooked_run_matches_unhooked_run_and_traced_steps(data):
    """The step loop builds a decision only for a trace, or for an
    insertion hook when the step inserted: for either matcher, a run
    with an on_insert hook, one without, and one with both a trace sink
    and a hook give the same RunResult; the hook sees the traced step's
    decision at every inserting step, after the sink saw the event
    holding it, and at no other step; and a rejected lone step carries
    conflict_score's score and removed order."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    weights = data.draw(st.sampled_from(_WEIGHTS))
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
        make = lambda: ShadowMatcher(k)
    else:
        gamma = data.draw(st.sampled_from([0.0, GAMMA_RATIO_5_828, 1.0]))
        make = lambda: BaselineMatcher(gamma)
    n = data.draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    traced = make()
    t = traced.threshold
    edges, events = [], []
    for i, (u, v) in enumerate(pairs):
        edges.append(edge(u, v, _draw_weight(weights, traced, u, v, rng)))
        events.append(traced.process_edge_traced(edges[-1], i))

    seen = []
    hooked = drive(make(), edges, on_insert=lambda decision:
                   seen.append(_decision_bits(decision)))
    bare = drive(make(), edges)
    assert hooked.matching == bare.matching
    assert repr(hooked.weight) == repr(bare.weight)
    assert hooked.metrics == bare.metrics
    assert hooked.metrics == drive(make(), edges, trace=lambda ev: None).metrics
    assert seen == [_decision_bits(ev.decision) for ev in events
                    if ev.inserted]

    calls, sunk, lone_rejects = [], [], []
    matcher = make()

    def sink(ev):
        calls.append(("trace", ev.index))
        sunk.append(ev)
        scored = reference_event(ev, t)
        d = scored.decision
        if len(scored.candidates) == 1 and not d.inserted:
            # A rejection left the matching as the step scored it.
            r, removed, _ = conflict_score(matcher.matching, d.chosen, t)
            lone_rejects.append(((d.removed, repr(d.gain)),
                                 (removed, repr(r))))

    def traced_hook(decision):
        calls.append(("hook", sunk[-1].index))
        assert decision is sunk[-1].decision

    both = drive(matcher, edges, trace=sink, on_insert=traced_hook)
    assert calls == [(kind, i) for i, ev in enumerate(events)
                     for kind in ("trace", "hook")[:1 + ev.inserted]]
    assert both.matching == bare.matching
    assert repr(both.weight) == repr(bare.weight)
    assert both.metrics == bare.metrics
    assert ([_record_text(trace_to_dict(reference_event(ev, t))) for ev in sunk]
            == [_record_text(trace_to_dict(reference_event(ev, t)))
                for ev in events])
    for got, want in lone_rejects:
        assert got == want


def test_unhooked_run_rejects_without_scoring(monkeypatch, tmp_path):
    """A step the reject bound settles is not scored.  On gnp.txt an
    unhooked run, a hooked one, a traced one whose sink reads each
    event's index, neighborhood and inserted, one that writes each
    event's trace line, one whose sink reads every event's decision,
    and `run --verify --trace` all rank the views of the same 4 steps:
    a settled event's decision is None, and reading it ranks nothing.
    One spy is on `_rank`, the ranking behind a step that does not
    score its view inline.  The other is on `_no_set_wins`, whose False
    sends a step to be ranked, inline when its one shadow is disjoint
    from the input edge.  A view counts once, however many of them see
    it.  Every run ends the same."""
    golden = Path(__file__).parent / "golden" / "gnp.txt"
    steps = set()
    rank = shadow_module._rank
    no_set_wins = shadow_module._no_set_wins

    def counted(t, e, a, b, s1, c1, s2, c2):
        steps.add((e.w, a, b, s1, s2))
        return rank(t, e, a, b, s1, c1, s2, c2)

    def bound(t, w, a, b, s1, s2):
        settled = no_set_wins(t, w, a, b, s1, s2)
        if not settled:
            steps.add((w, a, b, s1, s2))
        return settled

    monkeypatch.setattr(shadow_module, "_rank", counted)
    monkeypatch.setattr(shadow_module, "_no_set_wins", bound)
    k = optimal_k()[0]

    def scored_steps(**hooks):
        steps.clear()
        return run_stream(open_stream(golden), k, **hooks), len(steps)

    def light(event):
        event.index, event.neighborhood, event.inserted

    bare, unhooked = scored_steps()
    hooked, hooked_steps = scored_steps(on_insert=lambda decision: None)
    lean, lean_steps = scored_steps(trace=light)
    written, written_steps = scored_steps(trace=trace_line)
    read, read_steps = scored_steps(trace=lambda event: event.decision)
    assert hooked == bare == lean == written == read
    assert unhooked == hooked_steps == lean_steps == written_steps == 4
    assert read_steps == 4
    steps.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(golden), "--verify", "--trace",
                     str(tmp_path / "trace.jsonl")]) == 0
    assert len(steps) == 4


def _settled(k: float, event: TraceEvent) -> bool:
    """Whether the untraced step of `event` is one `_no_set_wins`
    settles: a shadow is in view and the bound rejects every set."""
    nb = event.neighborhood
    return ((nb.a1g1 is not None or nb.a2g2 is not None)
            and shadow_module._no_set_wins(k, nb.y1y2.w, nb.g1y1, nb.g2y2,
                                           nb.a1g1, nb.a2g2))


def _spy_on_set_counts(monkeypatch) -> list[Edge]:
    """Wrap `_disjoint_subset_count`, by which a settled step counts its
    sets, and return the list it appends each counted input edge to."""
    counted = []
    count = shadow_module._disjoint_subset_count
    monkeypatch.setattr(shadow_module, "_disjoint_subset_count",
                        lambda cands: counted.append(cands[0]) or count(cands))
    return counted


def _shadow_pair(x: int, far_cover: bool) -> list[Edge]:
    """A stream that leaves (x, x+2) and (x+1, x+3) matched, the light
    shadows (x+2, x+4) and (x+3, x+5) parked behind them and (x+5, x+7)
    matched, and with `far_cover` (x+4, x+6) matched too.  The three
    candidates of an input edge (x, x+1) are then pairwise disjoint:
    seven sets, over seven touched edges with the far cover and over
    six without."""
    edges = [edge(x + 2, x + 4, 1.0), edge(x, x + 2, 10.0),
             edge(x + 3, x + 5, 1.0), edge(x + 1, x + 3, 10.0),
             edge(x + 5, x + 7, 10.0)]
    return edges + [edge(x + 4, x + 6, 10.0)] if far_cover else edges


def test_settled_steps_count_until_seven_edges_are_touched(monkeypatch):
    """A settled step stops counting once a step has touched seven
    edges, not once one has counted seven sets.  The step on (0, 1)
    counts seven sets over six touched edges; the step on (10, 11) is
    the first to touch seven and is settled, so it must still be
    counted; the settled step on (20, 21) after it need not be.  The
    untraced, hooked and traced runs give the same result."""
    k = 1.5
    inputs = [edge(0, 1, 0.5), edge(10, 11, 0.5), edge(20, 21, 0.5)]
    edges = (_shadow_pair(0, False) + _shadow_pair(10, True)
             + _shadow_pair(20, True) + inputs)
    events = []
    traced = drive(ShadowMatcher(k), edges, trace=events.append)
    work = [(len(set(ev.neighborhood) - {None}),
             len(reference_event(ev, k).candidates)) for ev in events]
    assert all(sets == 1 for _, sets in work[:-3])
    assert work[-3:] == [(6, 7), (7, 7), (7, 7)]
    for ev in events[-3:]:
        assert _settled(k, ev) and ev.decision is None and not ev.inserted

    counted = _spy_on_set_counts(monkeypatch)
    bare = drive(ShadowMatcher(k), edges)
    hooked = drive(ShadowMatcher(k), edges, on_insert=lambda decision: None)
    assert bare == hooked == traced
    assert traced.metrics.max_candidate_sets == 7
    assert traced.metrics.max_touched_edges == 7
    assert counted == inputs[:2] * 2


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_seven_touched_edges_mean_seven_candidate_sets(data):
    """Why a settled step may stop counting once a step has touched
    seven edges: seven distinct edges in view make the three candidates
    pairwise disjoint, as a shadow meeting the input edge or the other
    shadow makes its far cover a, b or the other far cover.  So that
    step counted seven sets too, the most there are, and no later count
    can raise either maximum.  Sorted weights insert more edges, so
    more steps see two shadows."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    n = data.draw(st.integers(10, 16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    weights = [rng.uniform(0.05, 20.0) for _ in pairs]
    if data.draw(st.booleans()):
        weights.sort()
    m = ShadowMatcher(k)
    for (u, v), w in zip(pairs, weights):
        event, sets, touched = _traced_step(m, edge(u, v, w))
        if touched == 7:
            assert sets == 7 == len(reference_event(event, k).candidates)


def test_golden_run_counts_settled_steps_until_seven_are_touched(
        monkeypatch):
    """An untraced run of gnp.txt counts the sets of exactly the settled
    steps up to the first that touches seven edges (step 199, itself
    settled): 40 counts, where counting every settled step made 339.
    Its result is the traced run's."""
    golden = Path(__file__).parent / "golden" / "gnp.txt"
    k = optimal_k()[0]
    events = []
    traced = run_stream(open_stream(golden), k, trace=events.append)
    first_seven = next(ev.index for ev in events
                       if len(set(ev.neighborhood) - {None}) == 7)
    settled = [ev.index for ev in events if _settled(k, ev)]
    assert first_seven == 199
    assert len(settled) == 339

    index = {ev.neighborhood.y1y2: ev.index for ev in events}
    counted = _spy_on_set_counts(monkeypatch)
    assert run_stream(open_stream(golden), k) == traced
    assert [index[e] for e in counted] == [i for i in settled
                                           if i <= first_seven]
    assert len(counted) == 40


def _shadows_behind(k: float, wa: float, wb: float, ws1: float | None,
                    ws2: float | None) -> ShadowMatcher:
    """A matcher with (0, 2) and (1, 3) matched and (2, 4) and (3, 5)
    parked behind them, either shadow left out for None.  Vertices 4
    and 5 are free, so the input edge (0, 1) and both shadows are
    disjoint and remove exactly the two matching edges."""
    m = ShadowMatcher(k)
    for e in (edge(0, 2, wa), edge(1, 3, wb)):
        m.matching[e.u] = m.matching[e.v] = e
    m.matched_edge_count = 2
    for slot, ws in ((2, ws1), (3, ws2)):
        if ws is not None:
            m.shadow_slots[slot] = edge(slot, slot + 2, ws)
            m.parked_edge_count += 1
    return m


@pytest.mark.parametrize("weights", [
    (1.0, 20.0, 10.0, None),   # s1 alone wins, W - t*(w(a) + w(b)) < 0
    (20.0, 1.0, None, 10.0),   # s2 alone wins
    (1.0, 20.0, 10.0, 1.0),    # s1 alone wins beside a light s2
    (0.8, 0.6, 0.9, 0.4),      # W - t*(w(a) + w(b)) within rounding of 0
])
def test_reject_bound_never_changes_a_step(weights):
    """An untraced step, hooked or not, ends in the state a traced step
    ends in, and the hook sees the traced step's decision, which is the
    reference's, when it inserts: when a lone shadow wins though the
    input edge's bound is negative, and when the input weight is a few
    ulps either side of where the bound over all candidates crosses
    zero."""
    k = 1.5
    wa, wb, ws1, ws2 = weights
    w0 = k * (wa + wb) - (ws1 or 0.0) - (ws2 or 0.0)
    if w0 > 1.0:
        inputs = [0.5]
    else:
        inputs = [w0]
        for _ in range(12):
            inputs = ([math.nextafter(inputs[0], 0.0)] + inputs
                      + [math.nextafter(inputs[-1], math.inf)])
    outcomes = set()
    for w in inputs:
        bare = _shadows_behind(k, *weights)
        hooked = _shadows_behind(k, *weights)
        scored = _shadows_behind(k, *weights)
        inserted, events = [], []
        drive(bare, [edge(0, 1, w)])
        drive(hooked, [edge(0, 1, w)], on_insert=inserted.append)
        drive(scored, [edge(0, 1, w)], trace=events.append)
        assert bare.matching == hooked.matching == scored.matching
        assert bare.shadow_slots == hooked.shadow_slots == scored.shadow_slots
        assert inserted == [reference_event(ev, k).decision for ev in events
                            if ev.inserted]
        outcomes.add(bare.insertions)
    # a lone shadow wins; at the margin some inputs win and some do not
    assert outcomes == ({1} if w0 > 1.0 else {0, 1})


def test_lone_shadow_wins_without_the_input_edge():
    """On the pinned lone-shadow stream, step 6 inserts the parked
    shadow (2, 3) alone and removes (1, 2), never its input edge
    (1, 3): a candidate set without the input edge can win, which is
    why `_no_set_wins` bounds each lone shadow on its own.  The trace
    sink and the untraced run's insertion hook see the same decision."""
    golden = Path(__file__).parent / "golden" / "lone_shadow.txt"
    k = optimal_k()[0]
    events, inserted = [], []
    traced = run_stream(open_stream(golden), k, trace=events.append)
    hooked = run_stream(open_stream(golden), k, on_insert=inserted.append)
    assert traced == hooked
    assert inserted == [ev.decision for ev in events if ev.inserted]
    last = events[6]
    assert last.index == 6
    assert last.neighborhood.y1y2 == edge(1, 3, 5.0)
    for d in (last.decision, inserted[-1]):
        assert d.inserted and d.gain > 0
        assert d.chosen == (edge(2, 3, 10.0),)
        assert d.removed == (edge(1, 2, 1.0),)
        assert edge(1, 3, 5.0) not in d.chosen


@pytest.mark.parametrize("cands", [
    (edge(0, 1, 1.0), edge(2, 4, 1.0)),                    # disjoint
    (edge(0, 1, 1.0), edge(1, 2, 1.0)),                    # at the far end
    (edge(0, 1, 1.0), edge(2, 3, 1.0)),                    # shared shadow
    (edge(0, 1, 1.0), edge(2, 4, 1.0), edge(3, 5, 1.0)),   # all disjoint
    (edge(0, 1, 1.0), edge(1, 2, 1.0), edge(3, 5, 1.0)),   # s1 at the far end
    (edge(0, 1, 1.0), edge(2, 4, 1.0), edge(0, 3, 1.0)),   # s2 at the far end
    (edge(0, 1, 1.0), edge(2, 4, 1.0), edge(3, 4, 1.0)),   # shadows meet
    (edge(0, 1, 1.0), edge(1, 2, 1.0), edge(0, 3, 1.0)),   # both at e's ends
])
def test_disjoint_subset_count_matches_enumeration(cands):
    """A step the bound rejects counts its sets as _decide would."""
    want = len(_disjoint_subsets(tuple(sorted(cands))))
    for order in itertools.permutations(cands):
        assert _disjoint_subset_count(list(order)) == want


def _reference_sets(nb) -> list[tuple[Edge, ...]]:
    """The disjoint subsets of the view's candidates by brute force, in
    increasing subset bitmask over the sorted candidates."""
    cands = _candidates(nb)
    subsets = (tuple(c for i, c in enumerate(cands) if mask >> i & 1)
               for mask in range(1, 1 << len(cands)))
    return [subset for subset in subsets if brute_force_disjoint(subset)]


def _assert_step_scores_match_reference(m: ShadowMatcher, e: Edge) -> None:
    """Run `e` through a traced step of `m`, then have `_rank` rank the
    step's view, and check every set it scores against
    reference_conflict_score on the matching as it was before the step:
    the sets of the view in bitmask order, each with its `r` to the bit
    and its sorted `removed`, as a spy on `shadow._score` sees them.  A
    view with no shadow is never ranked, and its step scores no set
    through `_score`; its one set is the decision's.  `reference_event`
    scores the same sets from the view alone, and the step's decision,
    scored inline or ranked, or None when the step was settled, is the
    reference's, with its set's candidate score to the bit."""
    before = dict(m.matching)
    nb = m.neighborhood(e)
    seen = []
    score = shadow_module._score

    def spy(chosen, w_chosen, removed, t):
        record = score(chosen, w_chosen, removed, t)
        seen.append((chosen, removed, record[0]))
        return record

    with patch.object(shadow_module, "_score", spy):
        event = m.process_edge_traced(e, 0)
        if nb.a1g1 is None and nb.a2g2 is None:
            assert seen == []
            d = event.decision
            seen = [(d.chosen, d.removed, d.gain)]
        else:
            seen.clear()
            shadow_module._rank(m.threshold, nb.y1y2, nb.g1y1, nb.g2y2,
                                nb.a1g1, nb.a1c1, nb.a2g2, nb.a2c2)
    scored = reference_event(event, m.threshold)
    sets = _reference_sets(nb)
    assert [subset for subset, _ in scored.candidates] == sets
    assert [subset for subset, _, _ in seen] == sets
    for (subset, r), (_, removed, r_ranked) in zip(scored.candidates, seen):
        r_ref, removed_ref, _ = reference_conflict_score(before, subset,
                                                         m.threshold)
        assert repr(r) == repr(r_ranked) == repr(r_ref)
        assert removed == removed_ref
    d = scored.decision
    assert repr(d.gain) == repr(dict(scored.candidates)[d.chosen])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_step_scores_match_the_reference(data):
    """Every scored set of every traced step of a stream, read off the
    step's view, scores as reference_conflict_score does on the
    matching: weights uniform, small integers, a few ulps from a zero
    score, or ascending over a wide range, as on the ascending bench
    stream, where a third of the steps insert a shadow."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    weights = data.draw(st.sampled_from(_WEIGHTS + ["ascending"]))
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    n = data.draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rising = sorted(math.exp(rng.uniform(0.0, 150.0)) for _ in pairs)
    m = ShadowMatcher(k)
    for i, (u, v) in enumerate(pairs):
        w = (rising[i] if weights == "ascending"
             else _draw_weight(weights, m, u, v, rng))
        _assert_step_scores_match_reference(m, edge(u, v, w))


def _view_state(k: float, matched: list[Edge],
                parked: dict[int, Edge]) -> ShadowMatcher:
    """A matcher holding the `matched` edges and a shadow parked at each
    vertex of `parked`, for an input edge (0, 1)."""
    m = ShadowMatcher(k)
    for e in matched:
        m.matching[e.u] = m.matching[e.v] = e
    m.matched_edge_count = len(matched)
    m.shadow_slots.update(parked)
    m.parked_edge_count = len(set(parked.values()))
    return m


# Views of an input edge (0, 1) whose roles coincide, each as (matched
# pairs, {slot vertex: parked pair}) with (0, 2) and (1, 3) matched
# unless said otherwise.
_COINCIDENCES = {
    # one shadow behind both sides: a1g1 == a2g2, a1c1 == g2y2 and
    # a2c2 == g1y1
    "shared shadow": ([(0, 2), (1, 3)], {2: (2, 3), 3: (2, 3)}),
    # the far cover of s1 is the other side's matching edge, at y2 and
    # at g2
    "far cover at y2": ([(0, 2), (1, 3), (5, 7)], {2: (1, 2), 3: (3, 5)}),
    "far cover at g2": ([(0, 2), (1, 3), (5, 7)], {2: (2, 3), 3: (3, 5)}),
    # both shadows end on one matching edge: a1c1 == a2c2
    "equal far covers": ([(0, 2), (1, 3), (4, 5)], {2: (2, 4), 3: (3, 5)}),
    # a shadow whose far end is free: no a1c1, and then neither far cover
    "missing far cover": ([(0, 2), (1, 3), (5, 7)], {2: (2, 4), 3: (3, 5)}),
    "missing far covers": ([(0, 2), (1, 3)], {2: (2, 4), 3: (3, 5)}),
    # one side only: y2 free, or matched with nothing parked behind
    "free y2": ([(0, 2), (4, 6)], {2: (2, 4)}),
    "one shadow": ([(0, 2), (1, 3), (4, 6)], {2: (2, 4)}),
}


@pytest.mark.parametrize("view", sorted(_COINCIDENCES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_coinciding_roles_score_as_the_reference(view, data):
    """On hand-built views whose roles coincide or are missing, a step
    scores every set as reference_conflict_score does, for random
    weights and for input weights a few ulps from where some set's
    score crosses zero."""
    matched, parked = _COINCIDENCES[view]
    weight = st.floats(0.05, 20.0)
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 3.0]))
    pairs = matched + sorted(parked.values())
    ws = {pair: data.draw(weight) for pair in pairs}
    m = _view_state(k, [edge(*p, ws[p]) for p in matched],
                    {x: edge(*p, ws[p]) for x, p in parked.items()})
    nb = m.neighborhood(edge(0, 1, 1.0))
    assert (nb.a1g1 == nb.a2g2) == (view == "shared shadow")
    assert (nb.a1c1 is not None
            and nb.a1c1 == nb.a2c2) == (view == "equal far covers")
    assert (nb.a1c1 is not None
            and nb.a1c1 == nb.g2y2) == (view in ("shared shadow",
                                                 "far cover at y2",
                                                 "far cover at g2"))
    assert (nb.a1c1 is None) == view.startswith("missing")
    w = data.draw(weight)
    if data.draw(st.booleans()):
        # a few ulps from where a set holding the input edge scores zero
        subset = data.draw(st.sampled_from(
            [s for s in _reference_sets(nb) if nb.y1y2 in s]))
        _, removed, _ = reference_conflict_score(m.matching, subset, k)
        w = (k * sum(d.w for d in removed)
             - sum(f.w for f in subset if f != nb.y1y2))
        w = _nudge(w, random.Random(data.draw(st.integers(0, 10 ** 9))))
        assume(0.0 < w < math.inf)
    _assert_step_scores_match_reference(m, edge(0, 1, w))


# Views of an input edge (0, 1) that a step ranks, as in _COINCIDENCES:
# those, plus one shadow on either side, disjoint from the input edge
# or meeting it, and three pairwise disjoint candidates.
_RANKED_VIEWS = dict(_COINCIDENCES, **{
    "one shadow, far end free": ([(0, 2), (1, 3)], {2: (2, 4)}),
    "one shadow, far cover at y2": ([(0, 2), (1, 3)], {2: (2, 3)}),
    "one shadow meeting e": ([(0, 2), (1, 3)], {2: (1, 2)}),
    "side 2 shadow": ([(0, 2), (1, 3), (5, 7)], {3: (3, 5)}),
    "side 2 shadow, far cover at y1": ([(0, 2), (1, 3)], {3: (2, 3)}),
    "free y1": ([(1, 3), (5, 7)], {3: (3, 5)}),
    "three disjoint": ([(0, 2), (1, 3), (4, 6), (5, 7)],
                       {2: (2, 4), 3: (3, 5)}),
})
# The views above whose three candidates are pairwise disjoint.
_SEVEN_SET_VIEWS = {"three disjoint", "equal far covers", "missing far cover",
                    "missing far covers"}


# How a view's weights are drawn; see the ranked-step test.
_VIEW_WEIGHTS = ["uniform", "integer", "spread", "huge", "sweep", "one tiny",
                 "zero", "tie"]
_KS = [1.1, 1.5, 1.717191779457857, 2.0, 3.0]


def _assert_ranks_as_the_reference(view: str, rng: random.Random, family: str,
                                   k: float, relabel: bool,
                                   positions: list | None = None) -> bool:
    """Draw the weights of `view` as `family` says, feed its input edge
    to an untraced step, to `process_edge` and to a traced step, and
    check each against reference_rank; see the ranked-step test.
    Appends the traced step's position to `positions`.  Returns False,
    having checked nothing, when the drawn input weight is not a
    positive finite float."""
    matched, parked = _RANKED_VIEWS[view]
    shadows = set(parked.values())
    last = parked[max(parked)]
    tiny_side = {last} | {p for p in matched if sum(last) - max(parked) in p}
    big = math.exp(rng.uniform(100.0, 150.0))

    def weight(pair):
        if family == "integer":
            return float(rng.randint(1, 4))
        if family == "huge":
            return rng.choice([1e308, 1.7e308, rng.uniform(1e307, 1.7e308)])
        if family in ("sweep", "one tiny"):
            # the input edge and the matching edges at its ends are
            # heavy; each other edge is near an ulp of the input edge,
            # a far cover about what the shadow beside it can pay for.
            # Under "one tiny" that holds for the last shadow and its
            # far cover only; the other shadow outweighs its far cover.
            if pair not in shadows and (0 in pair or 1 in pair):
                return big / rng.uniform(2.0, 6.0)
            if family == "one tiny" and pair not in tiny_side:
                return big * (rng.uniform(0.3, 1.0) if pair in shadows
                              else rng.uniform(0.01, 0.1))
            tiny = math.ulp(big) * rng.uniform(0.5, 1.0)
            return (tiny if pair in shadows
                    else tiny / k * rng.uniform(0.99, 1.02))
        if family == "spread":
            return math.exp(rng.uniform(-3.0, 3.0))
        return rng.uniform(0.05, 20.0)

    ws = {pair: weight(pair) for pair in matched + sorted(shadows)}
    # Relabelled vertices let a far cover sort before the matching edges
    # at the ends of the input edge.
    label = list(range(8))
    if relabel:
        rng.shuffle(label)

    def relabelled(pair):
        x, y = pair
        return edge(label[x], label[y], ws[pair])

    def state():
        return _view_state(k, [relabelled(p) for p in matched],
                           {label[x]: relabelled(p) for x, p in parked.items()})

    m = state()
    nb = m.neighborhood(edge(label[0], label[1], 1.0))
    if family in ("sweep", "one tiny"):
        w = big
    elif family in ("zero", "tie"):
        # where a set holding the input edge scores zero, or scores what
        # a set without it scores, then a few ulps off
        sets = _reference_sets(nb)
        subset = rng.choice([x for x in sets if nb.y1y2 in x])
        _, removed, _ = reference_conflict_score(m.matching, subset, k)
        w = (k * sum(d.w for d in removed)
             - sum(f.w for f in subset if f != nb.y1y2))
        if family == "tie":
            other = rng.choice([x for x in sets if nb.y1y2 not in x])
            w += reference_conflict_score(m.matching, other, k)[0]
        if family == "zero" or rng.random() < 0.5:
            w = _nudge(w, rng)
    else:
        w = weight((0, 1))
    if not 0.0 < w < math.inf:
        return False
    e = edge(label[0], label[1], w)
    cands = {f for f in (e, nb.a1g1, nb.a2g2) if f is not None}
    sets, chosen, removed, r, inserted = reference_rank(m.matching, cands, k)
    # Every disjoint subset of the candidates is a set iff they are
    # pairwise disjoint; a ranking key is a Fraction only near zero.
    inline = (len(sets) == 2 ** len(cands) - 1 and all(
        isinstance(reference_conflict_score(m.matching, x, k)[2], float)
        for x in sets))
    assert (len(sets) == 7) == (view in _SEVEN_SET_VIEWS)
    hooked, ranked = [], []
    rank = shadow_module._rank

    def counted(*roles):
        ranked.append(roles)
        return rank(*roles)

    # the loop drive runs, without the matching's weight, which may
    # leave the float range here
    with patch.object(shadow_module, "_rank", counted):
        _, set_count, _, _ = m._steps([e], hooked.append)
    assert set_count == len(sets)
    assert not (inline and ranked)
    assert ([(d.chosen, d.removed, repr(d.gain)) for d in hooked]
            == ([(chosen, removed, repr(r))] if inserted else []))
    d = state().process_edge(e)
    assert ((d.chosen, d.removed, repr(d.gain), d.inserted)
            == (chosen, removed, repr(r), inserted))
    event = state().process_edge_traced(e, 0)
    assert (event.decision is None) == _settled(k, event)
    assert event.position == (enumerate_augmenting_sets(
        event.neighborhood).index(chosen) if inserted else None)
    if positions is not None:
        positions.append(event.position)
    return True


@pytest.mark.parametrize("view", sorted(_RANKED_VIEWS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_untraced_ranked_step_matches_the_reference_ranking(view, data):
    """An untraced step with a shadow in view, whether it scores one or
    two disjoint shadows inline or ranks its sets with `_rank`, does
    what the record-based reference_rank chooses: it inserts the same
    set with the same removed and r (by repr) and counts as many sets,
    or inserts nothing when that set would not insert.  A spy shows
    that `_rank` never sees a view of pairwise disjoint candidates
    whose scores are all clear of zero, seven-set views included, and
    a traced step that inserts passes its set's position in
    `enumerate_augmenting_sets` order.  Weights are uniform, small
    integers (exact float ties), log-uniform over e^-3..e^3, near
    1e308, a few ulps from a zero score or from a tie between two sets,
    or as on the sweep's ascending slices, whose weights are
    exp(U(0, 150)): shadows and far covers near an ulp of a huge input
    edge, or only the last shadow and its far cover, where a set and
    its subset often score within rounding of each other and the floats
    may rank them the wrong way round.  Half the time the vertices are
    relabelled, so that a removed set is not always summed in role
    order.  `process_edge` returns the reference's decision too,
    ranking a view itself when `_no_set_wins` settled it, which is
    exactly when the traced step hands over no decision."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    assume(_assert_ranks_as_the_reference(
        view, rng, data.draw(st.sampled_from(_VIEW_WEIGHTS)),
        data.draw(st.sampled_from(_KS)), data.draw(st.booleans())))


@pytest.mark.parametrize("view", sorted(_SEVEN_SET_VIEWS))
def test_seven_set_views_rank_as_the_reference(view):
    """The ranked-step test's checks on 1,500 seeded draws of each view
    whose three candidates are pairwise disjoint, every other one
    relabelled, and one in four more with small integer weights, whose
    scores tie exactly: the inline scorer sums every removed set in
    `_score`'s order and breaks every float tie as `_better` does.
    Three disjoint shadows with both far covers let each of the seven
    sets win, and each is inserted in some draw."""
    rng = random.Random(view)
    positions = []
    for i in range(1500):
        family = "integer" if i % 8 < 2 else rng.choice(_VIEW_WEIGHTS)
        _assert_ranks_as_the_reference(view, rng, family, rng.choice(_KS),
                                       i % 2 == 1, positions)
    if view == "three disjoint":
        assert set(range(7)) <= set(positions)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ascending_runs_end_alike_untraced_and_traced(data):
    """On ascending streams, where most steps rank a view, `drive` ends
    with the same matching, weight and metrics untraced, hooked and
    traced, and the hook sees each inserting traced step's decision."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    n = data.draw(st.integers(4, 16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    weights = sorted(math.exp(rng.uniform(0.0, 150.0)) for _ in pairs)
    stream = [edge(u, v, w) for (u, v), w in zip(pairs, weights)]
    events, hooked = [], []
    traced = drive(ShadowMatcher(k), stream, trace=events.append)
    assert (drive(ShadowMatcher(k), stream)
            == drive(ShadowMatcher(k), stream, on_insert=hooked.append)
            == traced)
    assert hooked == [ev.decision for ev in events if ev.inserted]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_steady_state_runs_count_alike_untraced_and_traced(data):
    """On uniform-weight streams of many edges over few vertices, where
    steps with shadows in view are often settled after a step has
    touched seven edges, `drive` ends with the same matching, weight
    and metrics untraced, hooked and traced: the traced step stops
    counting at the same cap as the untraced one, and not before."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    n = data.draw(st.integers(6, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    pairs = pairs[:data.draw(st.integers(n, len(pairs)))]
    stream = [edge(u, v, rng.uniform(0.1, 10.0)) for u, v in pairs]
    events, hooked = [], []
    traced = drive(ShadowMatcher(k), stream, trace=events.append)
    assert (drive(ShadowMatcher(k), stream)
            == drive(ShadowMatcher(k), stream, on_insert=hooked.append)
            == traced)
    assert hooked == [ev.decision for ev in events if ev.inserted]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_step_passes_the_inserted_sets_position(data):
    """Every inserting traced step passes, and its line writes, the
    position of its set in `enumerate_augmenting_sets` order, whether
    the step scored a lone edge, an inline pair (settled near a tie or
    not) or had `_rank` rank its view; a rejecting step passes none.
    Integer and ascending weights make ties and pair insertions."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    n = data.draw(st.integers(4, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    kind = data.draw(st.sampled_from(["uniform", "integer", "ascending"]))
    if kind == "uniform":
        weights = [rng.uniform(0.1, 10.0) for _ in pairs]
    elif kind == "integer":
        weights = [float(rng.randint(1, 6)) for _ in pairs]
    else:
        weights = sorted(math.exp(rng.uniform(0.0, 150.0)) for _ in pairs)
    events = []
    drive(ShadowMatcher(k), [edge(u, v, w) for (u, v), w in zip(pairs, weights)],
          trace=events.append)
    for ev in events:
        if not ev.inserted:
            assert ev.position is None
            continue
        pos = enumerate_augmenting_sets(ev.neighborhood).index(ev.decision.chosen)
        assert type(ev.position) is int and ev.position == pos
        assert trace_line(ev).endswith(f",{pos}]")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_replay_is_bit_identical(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    edges = random_edge_list(rng, max_n=9)
    first = [ShadowMatcher(1.717), []]
    second = [ShadowMatcher(1.717), []]
    for matcher, decisions in (first, second):
        for e in edges:
            decisions.append(matcher.process_edge(e))
    assert first[1] == second[1]
    assert first[0].matching == second[0].matching
    assert first[0].shadow_slots == second[0].shadow_slots


# -- tracing ---------------------------------------------------------------

def test_trace_event_contents():
    events = []
    run_stream([edge(1, 2, 1.0), edge(2, 3, 10.0)], 1.717, trace=events.append)
    assert len(events) == 2
    ev = events[1]
    assert ev.index == 1
    assert ev.neighborhood.y1y2 == edge(2, 3, 10.0)
    assert ev.candidates is None
    assert len(reference_event(ev, 1.717).candidates) >= 1
    assert ev.decision.inserted
    assert ShadowMatcher(1.717).process_edge_traced(edge(1, 2, 1.0), 7).index == 7


def test_trace_sink_is_fed_as_the_stream_is_read():
    rng = random.Random(3)
    edges = random_edge_list(rng, max_n=10)
    delivered = []

    def stream():
        for i, e in enumerate(edges):
            assert len(delivered) == i  # every earlier step already traced
            yield e

    run_stream(stream(), 1.717, trace=lambda ev: delivered.append(ev.index))
    assert delivered == list(range(len(edges)))


def test_trace_to_dict_schema():
    events = []
    run_stream([edge(1, 2, 1.0), edge(2, 3, 10.0)], 1.717, trace=events.append)
    rec = trace_to_dict(reference_event(events[1], 1.717))
    assert rec["index"] == 1
    assert rec["input"] == [2, 3, 10.0]
    assert set(rec["S"]) == {"y1y2", "g1y1", "a1g1", "a1c1",
                             "g2y2", "a2g2", "a2c2"}
    assert rec["S"]["g1y1"] == [1, 2, 1.0]
    assert rec["decision"]["A"] == [[2, 3, 10.0]]
    assert rec["decision"]["removed"] == [[1, 2, 1.0]]
    assert rec["decision"]["inserted"] is True
    assert len(rec["candidates"]) <= 7


def test_trace_candidate_scores_match_decisions():
    rng = random.Random(5)
    edges = random_edge_list(rng, max_n=10)
    events = []
    run_stream(edges, 1.717, trace=events.append)
    for ev in events:
        scored = reference_event(ev, 1.717)
        best = max(r for _, r in scored.candidates)
        assert scored.decision.gain == best
        assert scored.decision.inserted == (best > 0)


def _record_text(record: dict) -> str:
    """A record as json.dumps spells it: an int weight prints as 3 and
    a float one as 3.0, which dict equality would not tell apart."""
    return json.dumps(record, sort_keys=True)


def _assert_trace_reads_back(matcher, events, verdicts) -> list[str]:
    """Write `events` of a run of `matcher` as a trace, with the verdict
    of each, and assert that `read_trace` gives back every event, whose
    reference record and verdict are the written one's, and that
    `trace_to_dict` builds the same record.  Returns the trace lines."""
    t = matcher.threshold
    lines = [trace_header(matcher)]
    lines += [trace_line(ev, f) for ev, f in zip(events, verdicts)]
    scored = [reference_event(ev, t) for ev in events]
    want = [_record_text(reference_trace_record(ev, f))
            for ev, f in zip(scored, verdicts)]
    assert [_record_text(reference_trace_record(reference_event(ev, t), f))
            for ev, f in read_trace(lines)] == want
    assert [_record_text(trace_to_dict(ev, f))
            for ev, f in zip(scored, verdicts)] == want
    return lines


def _assert_scored_eagerly(before: dict[int, Edge], t: float,
                           event: TraceEvent,
                           decision: InsertionDecision) -> None:
    """A settled step's event carries no decision.  The `decision`
    process_edge returned for the step, and the candidates and decision
    `reference_event` scores from the event's view, are those of an
    eager scoring: conflict_score of every enumerated set against
    `before`, the matching before the step, r compared by repr, and the
    best set under `_better`, rejected."""
    want = []
    best = None
    for subset in enumerate_augmenting_sets(event.neighborhood):
        r, removed, key = conflict_score(before, subset, t)
        want.append((subset, repr(r)))
        if best is None or shadow_module._better(key, subset, best[0],
                                                 best[1]):
            best = (key, subset, removed, repr(r))
    scored = reference_event(event, t)
    assert [(subset, repr(r)) for subset, r in scored.candidates] == want
    for d in (scored.decision, decision):
        assert (d.chosen, d.removed, repr(d.gain), d.inserted) == (*best[1:],
                                                                   False)
    assert event.decision is None and not event.inserted


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_trace_line_matches_sorted_json_dumps(data):
    """Every step's trace line, read back by read_trace from the lines
    before it, dumps with sorted keys to the bytes of its reference
    record: for the shadow matcher and the baseline, with and without
    a verifier verdict, at float ties and with scores past the float
    range.  A step the reject bound settles hands over no decision; a
    twin matcher's process_edge, which ranks the view, and the
    reference both score each set of the view as conflict_score does
    eagerly against the matching before the step, and pick the best of
    those sets under `_better`."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    weights = data.draw(st.sampled_from(
        ["uniform", "integer", "nextafter", "huge"]))
    k = data.draw(st.sampled_from([1.1, 1.717191779457857, 3.0]))
    make = ((lambda: ShadowMatcher(k)) if data.draw(st.booleans())
            else (lambda: BaselineMatcher(k - 1.0)))
    matcher, twin = make(), make()
    n = data.draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    events = []
    for i, (u, v) in enumerate(pairs):
        if weights == "uniform":
            w = rng.uniform(0.05, 20.0)
        elif weights == "integer":
            w = float(rng.randint(1, 6))
        elif weights == "huge":
            # k times a matching weight near 1.7e308 overflows
            w = rng.choice([1.7e308, 1e308, rng.uniform(1e307, 1.7e308)])
        else:
            conflicts = {matcher.matching.get(u), matcher.matching.get(v)}
            w = k * sum(x.w for x in conflicts - {None}) or rng.uniform(0.5, 4.0)
            steps = rng.randint(-3, 3)
            for _ in range(abs(steps)):
                w = math.nextafter(w, math.inf if steps > 0 else 0.0)
        before = dict(matcher.matching)
        events.append(matcher.process_edge_traced(edge(u, v, w), i))
        decision = twin.process_edge(edge(u, v, w))
        if _settled(matcher.threshold, events[-1]):
            _assert_scored_eagerly(before, matcher.threshold, events[-1],
                                   decision)
    # A verdict judges an insertion, so only an inserting line has one.
    verdicts = [rng.choice([None, True, False]) if ev.inserted else None
                for ev in events]
    _assert_trace_reads_back(matcher, events, verdicts)


def test_trace_line_spells_no_scores():
    """A line spells no score, and the reader scores the view again: a
    step whose score leaves the float range, as k times a matching
    weight near 1.7e308 does, reads back with r == -inf in its
    candidates and its decision, and its line is byte-identical
    whatever the event's candidates hold."""
    m = ShadowMatcher(1.717191779457857)
    events = [m.process_edge_traced(edge(1, 2, 1.7e308), 0),
              m.process_edge_traced(edge(2, 3, 1e308), 1)]
    ev = events[1]
    assert ev.decision.gain == -math.inf
    lines = _assert_trace_reads_back(m, events, [None, None])
    read, _ = list(read_trace(lines))[1]
    scored = reference_event(read, m.threshold)
    assert [r for _, r in scored.candidates] == [-math.inf]
    assert read.decision.gain == -math.inf
    line = trace_line(ev)
    assert line == "[1,[2,3,1e+308],null]"
    for r in (math.inf, math.nan, 0.0, None):
        held = () if r is None else tuple(
            (subset, r) for subset, _ in scored.candidates)
        assert trace_line(TraceEvent(ev.index, ev.neighborhood, held,
                                     ev.decision, ev.inserted,
                                     ev.position)) == line


def test_trace_encoder_never_shares_text_between_equal_edges():
    """Edge(1, 2, 3) == edge(1, 2, 3.0), but they print differently:
    each input's own spelling must survive into its line and into the
    roles that name it on later lines."""
    first, second = Edge(1, 2, 3), edge(1, 2, 3.0)
    assert first == second
    for e, spelled in ((first, "[1,2,3]"), (second, "[1,2,3.0]"),
                       (first, "[1,2,3]")):
        matcher = ShadowMatcher(1.5)
        events = []
        drive(matcher, [e, edge(2, 3, 9.0), edge(3, 4, 1.0)],
              trace=events.append)
        lines = _assert_trace_reads_back(matcher, events, [None] * 3)
        assert lines[1].startswith(f"[0,{spelled},")
        read = [reference_trace_record(reference_event(ev, 1.5))
                for ev, _ in read_trace(lines)]
        # (2, 3) evicts (1, 2) and parks it; (3, 4) sees it as a shadow.
        assert read[2]["S"]["a1g1"] == json.loads(spelled)


def test_read_trace_names_a_pair_by_its_last_insertion():
    """A parallel edge fed straight to drive while its twin is parked:
    the one way a pair can name two edges.  Before the new edge inserts
    a role on the pair is the twin; after it, the new edge, since the
    insertion removed the twin from every slot.  The reader replays the
    run, so its matcher holds the same edge as the run's."""
    twin, parallel = edge(0, 1, 1.0), edge(0, 1, 50.0)
    stream = [twin, edge(1, 2, 10.0), edge(2, 3, 1.0), parallel,
              edge(0, 5, 1.0)]
    matcher = ShadowMatcher(1.5)
    events = []
    drive(matcher, stream, trace=events.append)
    assert [ev.inserted for ev in events] == [True, True, False, True,
                                               False]
    assert events[2].neighborhood.a1g1 is twin
    assert events[4].neighborhood.g1y1 is parallel
    assert twin not in matcher.shadow_slots.values()
    read = [ev for ev, _ in read_trace(_assert_trace_reads_back(
        matcher, events, [True, True, None, True, None]))]
    assert read[2].neighborhood.a1g1 == (0, 1, 1.0)
    assert read[4].neighborhood.g1y1 == (0, 1, 50.0)


_VALID_HEADER = '{"trace": 4, "threshold": 1.5, "parks": true}'


@pytest.mark.parametrize("header,line", [
    (_VALID_HEADER, "5"),
    (_VALID_HEADER, '[0,[1,2,"1.0"],0]'),
    (_VALID_HEADER, "not json"),
    (_VALID_HEADER, "[" * 100_000),
    (_VALID_HEADER, "[0,[2,1,1.0],0]"),
    (_VALID_HEADER, "[0,[1,1,1.0],0]"),
    (_VALID_HEADER, "[0,[1,2,-1.0],null]"),
    (_VALID_HEADER, "[7,[1,2,1.0],0]"),
    (_VALID_HEADER, '[0,[1,2,1.0],0,"yes"]'),
    ('{"trace": 4, "threshold": 1.5}', "[0,[1,2,1.0],0]"),
    ('{"trace": 4, "threshold": 1.5, "parks": "maybe"}', "[0,[1,2,1.0],0]"),
    ("[" * 100_000, "[0,[1,2,1.0],0]"),
    ('{"trace": 3, "threshold": 1.5, "parks": true}', "[0,[1,2,1.0],0]"),
    (_VALID_HEADER, "[0,[1,2,1.0]]"),
    (_VALID_HEADER, "[0,[1,2,1.0],null,null,null,null,null,null,0]"),
], ids=["int", "string-weight", "not-json", "nested", "not-canonical",
        "loop", "negative-weight", "index", "verdict", "no-parks",
        "parks-not-bool", "nested-header", "version-3-header", "no-chosen",
        "version-3-line"])
def test_read_trace_names_a_malformed_line(header, line):
    """A malformed header or step line raises ValueError naming its
    line, never another exception, where the well-formed line `good`
    under the valid header reads back: a version 3 header or line, and
    a line without its `chosen`, among them."""
    good = "[0,[1,2,1.0],0]"
    assert len(list(read_trace([_VALID_HEADER, good]))) == 1
    where = 1 if header != _VALID_HEADER else 2
    with pytest.raises(ValueError, match=rf"^trace line {where}: "):
        list(read_trace([header, line]))


@pytest.mark.parametrize("chosen", ["1.0", "true", "-1", "7", "rejection"])
def test_read_trace_refuses_a_chosen_the_step_does_not_write(chosen):
    """`chosen` is compared as the step spells it, not as the value it
    parses to.  The last step of lone_shadow.txt inserts set 1, the
    parked shadow alone: its line claiming 1.0 or true, which Python
    holds equal to 1, or -1 or 7, which name no set, is refused, naming
    line 8.  A rejection claiming set 0 is refused too, naming line 3."""
    if chosen == "rejection":
        lines = [_VALID_HEADER, "[0,[1,2,10.0],0]", "[1,[2,3,1.0],null]"]
        assert len(list(read_trace(lines))) == 2
        lines[2] = "[1,[2,3,1.0],0]"
        where = 3
    else:
        golden = Path(__file__).parent / "golden" / "lone_shadow.txt"
        matcher = ShadowMatcher(K_STAR)
        lines = [trace_header(matcher)]
        drive(matcher, open_stream(golden),
              trace=lambda ev: lines.append(trace_line(ev)))
        assert lines[7] == "[6,[1,3,5.0],1]"
        assert len(list(read_trace(lines))) == 7
        lines[7] = f"[6,[1,3,5.0],{chosen}]"
        where = 8
    with pytest.raises(ValueError, match=rf"^trace line {where}: "):
        list(read_trace(lines))


def test_read_trace_refuses_a_verdict_on_a_rejection():
    """The verifier judges insertions only, so a line whose step
    inserted nothing carries no verdict: step 1 rejects (2, 3) and its
    line with a fourth item is refused, naming the line, while the
    same line without it and an inserting line with one read back."""
    first = "[0,[1,2,10.0],0]"
    rejected = "[1,[2,3,1.0],null]"
    read = list(read_trace([_VALID_HEADER, first, rejected]))
    assert [(ev.inserted, f) for ev, f in read] == [(True, None),
                                                    (False, None)]
    assert [f for _, f in read_trace([_VALID_HEADER, first[:-1] + ",true]",
                                      rejected])] == [True, None]
    for verdict in ("true", "false"):
        with pytest.raises(ValueError, match=r"^trace line 3: "):
            list(read_trace([_VALID_HEADER, first,
                             rejected[:-1] + f",{verdict}]"]))


def test_read_trace_holds_what_the_run_holds():
    """Reading the trace of a 20k-edge ascending stream on 300 vertices,
    where about half the steps insert, holds one matcher's state and no
    record of every pair inserted: its peak traced heap stays under 512
    KiB (about 80 KiB here, where a reader that keeps one entry per
    inserted pair peaks near 1.7 MiB)."""
    rng = random.Random(0)
    pairs = rng.sample(list(itertools.combinations(range(300), 2)), 20_000)
    weights = sorted(math.exp(rng.uniform(0.0, 150.0)) for _ in pairs)
    stream = [edge(u, v, w) for (u, v), w in zip(pairs, weights)]
    matcher = ShadowMatcher(optimal_k()[0])
    lines = [trace_header(matcher)]
    drive(matcher, stream, trace=lambda ev: lines.append(trace_line(ev)))
    assert matcher.insertions > len(stream) // 3
    tracemalloc.start()
    try:
        steps = sum(1 for _ in read_trace(lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == len(stream)
    assert peak < 512 * 1024


def test_trace_encoder_memo_stays_within_its_bound(tmp_path):
    """Encoding keeps nothing between lines: a trace of more than 4,096
    disjoint inserting edges, each a new edge, leaves the encoder's
    memory where it started, and the CLI writes every line as the
    stateless trace_line does, after the header."""
    stream = [edge(2 * i, 2 * i + 1, 1.0 + i % 7) for i in range(4096 + 500)]
    events = []
    run_stream(stream, 1.5, trace=events.append)
    assert all(ev.decision.inserted for ev in events)
    tracemalloc.start()
    try:
        trace_line(events[0])
        before = tracemalloc.get_traced_memory()[0]
        for ev in events:
            trace_line(ev)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024
    path = tmp_path / "disjoint.txt"
    path.write_text("".join(f"{e.u} {e.v} {e.w!r}\n" for e in stream),
                    encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--k", "1.5", "--trace",
                     str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == trace_header(ShadowMatcher(1.5))
    assert lines[1:] == [trace_line(ev) for ev in events]
