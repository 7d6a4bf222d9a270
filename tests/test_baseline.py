"""The irrevocable (1 + gamma) replacement baseline."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_edge_list
from shadowmatch.baseline import (GAMMA_RATIO_5_828, GAMMA_RATIO_SIX,
                                  BaselineMatcher, run_baseline)
from shadowmatch.graph import edge, is_matching


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
