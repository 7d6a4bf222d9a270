"""The shadow matcher: local views, scoring, insertion, invariants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_disjoint, check_matcher_invariants,
                     random_edge_list)
from shadowmatch.baseline import BaselineMatcher, run_baseline
from shadowmatch.graph import edge
from shadowmatch.shadow import (InsertionDecision, ShadowMatcher,
                                enumerate_augmenting_sets, run_stream,
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
    assert nb.roles() == {"y1y2": edge(1, 2, 1.0), "g1y1": None, "a1g1": None,
                          "a1c1": None, "g2y2": None, "a2g2": None,
                          "a2c2": None}
    assert nb.candidates() == (edge(1, 2, 1.0),)


def test_neighborhood_single_matched_side():
    m = ShadowMatcher(2.0)
    m.process_edge(edge(1, 2, 3.0))
    nb = m.neighborhood(edge(2, 3, 1.0))
    roles = nb.roles()
    assert roles["g1y1"] == edge(1, 2, 3.0)
    assert roles["g2y2"] is None
    assert roles["a1g1"] is None
    assert nb.side1.anchor == 2
    assert nb.side1.partner == 1


def test_neighborhood_gadget_has_seven_distinct_edges():
    nb = gadget_state().neighborhood(Y1Y2)
    assert nb.roles() == {"y1y2": Y1Y2, "g1y1": G1Y1, "a1g1": A1G1,
                          "a1c1": A1C1, "g2y2": G2Y2, "a2g2": A2G2,
                          "a2c2": A2C2}
    assert len(nb.distinct_edges()) == 7
    assert nb.candidates() == tuple(sorted([Y1Y2, A1G1, A2G2]))


def test_neighborhood_shadow_pulls_far_cover():
    # matching (1,2) and (3,4); shadow (2,3) parked at 3 next to (3,4):
    # from anchor 4 the far cover of the shadow is the edge at vertex 2
    m = ShadowMatcher(2.0)
    m.matching.update({1: edge(1, 2, 5.0), 2: edge(1, 2, 5.0),
                       3: edge(3, 4, 5.0), 4: edge(3, 4, 5.0)})
    m.matched_edge_count = 2
    m.shadow_slots[3] = edge(2, 3, 1.0)
    nb = m.neighborhood(edge(4, 5, 1.0))
    assert nb.side1.shadow == edge(2, 3, 1.0)
    assert nb.side1.shadow_far == 2
    assert nb.side1.far_cover == edge(1, 2, 5.0)


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
    assert nb.roles()["a2g2"] == edge(1, 3, 2.0)
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
    assert nb.side1.shadow == shared
    assert nb.side2.shadow == shared
    assert nb.candidates() == tuple(sorted([edge(0, 1, 4.0), shared]))
    assert len(enumerate_augmenting_sets(nb)) == 3


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
        cands = nb.candidates()
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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_driver_counters_match_recounts(data):
    """The O(1) counters the driver reads agree with full recounts."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    edges = random_edge_list(rng, max_n=12,
                             integer_weights=data.draw(st.booleans()))
    if data.draw(st.booleans()):
        edges.sort(key=lambda e: e.w)  # ascending: most edges insert
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717, 2.0, 3.0]))
    gamma = data.draw(st.sampled_from([0.0, 0.7071067811865476, 1.0]))

    m = ShadowMatcher(k)
    peak = 0
    for e in edges:
        m.process_edge(e)
        assert m.parked_edge_count == len(set(m.shadow_slots.values()))
        assert m.matched_edge_count + m.parked_edge_count == m.stored_edge_count()
        peak = max(peak, m.stored_edge_count())
    assert run_stream(edges, k).metrics.max_stored_edges == peak

    b = BaselineMatcher(gamma)
    peak = 0
    for e in edges:
        b.process_edge(e)
        peak = max(peak, len(set(b.matching.values())))
    assert run_baseline(edges, gamma).metrics.max_stored_edges == peak


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
    assert ev.neighborhood.input_edge == edge(2, 3, 10.0)
    assert len(ev.candidates) >= 1
    assert ev.decision.inserted


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
    rec = trace_to_dict(events[1])
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
        best = max(r for _, r in ev.candidates)
        assert ev.decision.gain == best
        assert ev.decision.inserted == (best > 0)
