"""The irrevocable (1 + gamma) replacement baseline."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_edge_list, reference_baseline
from shadowmatch.baseline import (GAMMA_RATIO_5_828, GAMMA_RATIO_SIX,
                                  BaselineMatcher, run_baseline)
from shadowmatch.graph import edge, is_matching
from shadowmatch.shadow import drive


def test_gamma_presets():
    assert GAMMA_RATIO_SIX == 1.0
    assert GAMMA_RATIO_5_828 == 0.7071067811865476


@pytest.mark.parametrize("g", [-0.1, float("nan"), float("inf")])
def test_gamma_validation(g):
    with pytest.raises(ValueError):
        BaselineMatcher(g)


def test_first_edge_inserted():
    m = BaselineMatcher(1.0)
    d = m.process_edge(edge(1, 2, 3.0))
    assert d.inserted
    assert m.matching_edges() == (edge(1, 2, 3.0),)


def test_not_heavy_enough_is_rejected():
    m = BaselineMatcher(1.0)
    m.process_edge(edge(1, 2, 3.0))
    d = m.process_edge(edge(2, 3, 6.0))
    assert not d.inserted  # 6 > 2 * 3 fails, the rule is strict
    assert m.matching_edges() == (edge(1, 2, 3.0),)


def test_barely_heavy_enough_replaces():
    m = BaselineMatcher(1.0)
    m.process_edge(edge(1, 2, 3.0))
    d = m.process_edge(edge(2, 3, 6.1))
    assert d.inserted
    assert d.removed == (edge(1, 2, 3.0),)
    assert m.matching_edges() == (edge(2, 3, 6.1),)


def test_replacement_is_irrevocable():
    m = BaselineMatcher(1.0)
    m.process_edge(edge(1, 2, 3.0))
    m.process_edge(edge(2, 3, 6.1))
    # nothing remembers (1,2): a later cheap edge at 1 starts fresh
    d = m.process_edge(edge(1, 4, 0.5))
    assert d.inserted
    assert d.removed == ()


def test_gamma_zero_means_strictly_heavier():
    # exact threshold: equal weight loses, anything above wins
    m = BaselineMatcher(0.0)
    m.process_edge(edge(1, 2, 3.0))
    assert not m.process_edge(edge(2, 3, 3.0)).inserted
    assert m.process_edge(edge(2, 4, 3.0000000001)).inserted
    assert m.matching_edges() == (edge(2, 4, 3.0000000001),)


def test_two_conflicting_edges_summed():
    m = BaselineMatcher(1.0)
    m.process_edge(edge(1, 2, 2.0))
    m.process_edge(edge(3, 4, 3.0))
    d = m.process_edge(edge(2, 3, 10.0))
    assert not d.inserted  # needs > 2 * (2 + 3)
    d = m.process_edge(edge(1, 4, 10.5))
    assert d.inserted
    assert d.removed == (edge(1, 2, 2.0), edge(3, 4, 3.0))


def test_duplicate_matched_edge_rejected():
    m = BaselineMatcher(1.0)
    m.process_edge(edge(1, 2, 3.0))
    with pytest.raises(ValueError):
        m.process_edge(edge(2, 1, 9.0))


def test_run_baseline_memory_and_validity():
    rng = random.Random(11)
    for _ in range(25):
        edges = random_edge_list(rng, max_n=12)
        n = len({x for e in edges for x in e.key})
        res = run_baseline(list(edges), GAMMA_RATIO_SIX)
        assert is_matching(res.matching)
        assert res.metrics.max_stored_edges <= max(n // 2, 0)
        assert all(e in set(edges) for e in res.matching)


def test_run_baseline_deterministic():
    rng = random.Random(3)
    edges = random_edge_list(rng, max_n=10)
    a = run_baseline(list(edges), GAMMA_RATIO_5_828)
    b = run_baseline(list(edges), GAMMA_RATIO_5_828)
    assert a.matching == b.matching and a.weight == b.weight


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_admission_is_exact_at_float_ties(data):
    """Weights a few ulps from (1 + gamma) * w(conflicts) are admitted
    exactly when the rational inequality holds."""
    gamma = data.draw(st.sampled_from([0.0, GAMMA_RATIO_5_828, GAMMA_RATIO_SIX]))
    m = BaselineMatcher(gamma)
    a = data.draw(st.floats(0.1, 10.0))
    b = data.draw(st.floats(0.1, 10.0))
    m.process_edge(edge(1, 2, a))
    m.process_edge(edge(3, 4, b))
    w = m.threshold * (a + b)
    steps = data.draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        w = math.nextafter(w, math.inf if steps > 0 else 0.0)
    d = m.process_edge(edge(2, 3, w))
    exact = Fraction(w) - Fraction(m.threshold) * (Fraction(a) + Fraction(b))
    assert d.inserted == (exact > 0)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matches_the_reference_rule(data):
    """Every step, and the run's result, equal the (1 + gamma) rule
    written out on a plain dict matching; nothing is ever parked."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    gamma = data.draw(st.sampled_from([0.0, GAMMA_RATIO_5_828, GAMMA_RATIO_SIX]))
    weights = data.draw(st.sampled_from(
        ["uniform", "integer", "nextafter", "ascending"]))
    n = data.draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = BaselineMatcher(gamma)
    edges = []
    for u, v in pairs:
        if weights in ("uniform", "ascending"):
            w = rng.uniform(0.05, 20.0)
        elif weights == "integer":
            w = float(rng.randint(1, 6))
        else:
            # a few ulps from (1 + gamma) times the weight e displaces
            conflicts = {m.matching.get(u), m.matching.get(v)} - {None}
            w = (1.0 + gamma) * sum(x.w for x in conflicts) or rng.uniform(0.5, 4.0)
            steps = rng.randint(-3, 3)
            for _ in range(abs(steps)):
                w = math.nextafter(w, math.inf if steps > 0 else 0.0)
            m.process_edge(edge(u, v, w))
        edges.append(edge(u, v, w))
    if weights == "ascending":
        edges.sort(key=lambda e: e.w)

    ref = reference_baseline(edges, gamma)
    m = BaselineMatcher(gamma)
    for e, (inserted, removed) in zip(edges, ref["steps"]):
        events = []
        sets = drive(m, [e], trace=events.append).metrics.max_candidate_sets
        d = events[0].decision
        assert (d.inserted, d.removed) == (inserted, removed)
        assert not m.shadow_slots
        assert m.parked_edge_count == 0 and sets == 1
    res = run_baseline(list(edges), gamma)
    assert res.matching == m.matching_edges() == ref["matching"]
    assert res.weight == ref["weight"]
    assert res.metrics.insertions == m.insertions == ref["insertions"]
    assert res.metrics.max_stored_edges == ref["max_stored_edges"]
