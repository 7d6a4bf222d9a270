"""Exact-rational certificates for shadow matcher insertions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_edge_list
from shadowmatch.graph import edge
from shadowmatch.shadow import InsertionDecision, ShadowMatcher
from shadowmatch.verify import (AllocationCheck, _fourier_motzkin,
                                check_locally_k_exceeding)

A1C1 = edge(4, 6, 1.0)
G1Y1 = edge(0, 2, 2.0)
A1G1 = edge(2, 4, 6.0)
G2Y2 = edge(1, 3, 1.0)
A2G2 = edge(3, 5, 1.0)
A2C2 = edge(5, 7, 1.0)
Y1Y2 = edge(0, 1, 6.0)


def _assert_witness_ok(check: AllocationCheck) -> None:
    """Replay the allocation constraints against the returned witness."""
    assert check.feasible and check.witness is not None
    f = {x: Fraction(v) for x, v in check.witness.items()}
    covered = set(check.covered)
    for x, v in f.items():
        assert 0 <= v <= 1
    removed_at = {}
    for d in check.removed:
        for x in (d.u, d.v):
            if x in covered:
                removed_at[x] = Fraction(d.w)
    for e in check.chosen:
        lhs = sum(f[x] * removed_at.get(x, Fraction(0)) for x in (e.u, e.v))
        assert lhs <= Fraction(e.w) / check.k
    for d in check.removed:
        lhs = sum(f.get(x, Fraction(0)) for x in (d.u, d.v))
        assert lhs >= 1


def _run_and_check(edges, k):
    matcher = ShadowMatcher(k)
    checks = []
    for e in edges:
        decision = matcher.process_edge(e)
        if decision.inserted:
            checks.append(check_locally_k_exceeding(decision, k))
    return checks


def test_rejected_decision_raises():
    decision = InsertionDecision(chosen=(edge(1, 2, 1.0),), removed=(),
                                 gain=-1.0, inserted=False)
    with pytest.raises(ValueError):
        check_locally_k_exceeding(decision, 2.0)


def test_bad_k_raises():
    decision = InsertionDecision(chosen=(edge(1, 2, 1.0),), removed=(),
                                 gain=1.0, inserted=True)
    with pytest.raises(ValueError):
        check_locally_k_exceeding(decision, 1.0)


def test_single_edge_no_removal():
    decision = InsertionDecision(chosen=(edge(1, 2, 10.0),), removed=(),
                                 gain=10.0, inserted=True)
    check = check_locally_k_exceeding(decision, 2.0)
    assert check.feasible
    assert check.covered == (1, 2)
    assert check.witness == {1: Fraction(1), 2: Fraction(1)}


def test_single_edge_two_removals():
    # 10 > 2 * (3 + 1), and the allocation f == 1 certifies it:
    # 1*3 + 1*1 = 4 <= 10/2
    decision = InsertionDecision(
        chosen=(edge(1, 2, 10.0),),
        removed=(edge(1, 3, 3.0), edge(2, 4, 1.0)),
        gain=2.0, inserted=True)
    check = check_locally_k_exceeding(decision, 2.0)
    _assert_witness_ok(check)
    assert check.witness == {1: Fraction(1), 2: Fraction(1)}


def test_single_edge_infeasible_when_constructed_by_hand():
    # the matcher never emits this (gain would be negative), but the
    # checker must still reject it: f(1) >= 1 forces 1*3 > 4/2
    decision = InsertionDecision(
        chosen=(edge(1, 2, 4.0),),
        removed=(edge(1, 3, 3.0),),
        gain=1.0, inserted=True)
    check = check_locally_k_exceeding(decision, 2.0)
    assert not check.feasible
    assert check.witness is None


def test_pair_infeasible_when_constructed_by_hand():
    # f(1) >= 1 from the removed edge, but 3*f(1) <= 2/2 caps it at 1/3
    decision = InsertionDecision(
        chosen=(edge(1, 2, 2.0), edge(3, 4, 2.0)),
        removed=(edge(1, 5, 3.0),),
        gain=1.0, inserted=True)
    check = check_locally_k_exceeding(decision, 2.0)
    assert not check.feasible


def test_gadget_pair_insertion():
    matcher = ShadowMatcher(1.5)
    for m in (G1Y1, G2Y2, A1C1, A2C2):
        matcher.matching[m.u] = m
        matcher.matching[m.v] = m
    matcher.matched_edge_count = 4
    matcher.shadow_slots[2] = A1G1
    matcher.shadow_slots[3] = A2G2

    decision = matcher.process_edge(Y1Y2)
    assert decision.inserted
    assert decision.chosen == (Y1Y2, A1G1)
    check = check_locally_k_exceeding(decision, 1.5)
    _assert_witness_ok(check)
    # constraints, written out: 2*f0 + f1 <= 4, 2*f2 + f4 <= 4,
    # f0 + f2 >= 1, f1 >= 1, f4 >= 1
    f = check.witness
    assert f[1] == 1 and f[4] == 1
    assert f[0] + f[2] >= 1
    assert 2 * f[0] + f[1] <= 4


def test_every_real_insertion_is_feasible():
    rng = random.Random(41)
    for trial in range(60):
        edges = random_edge_list(rng, max_n=10,
                                 integer_weights=trial % 4 == 0)
        for k in (1.3, 1.717191779457857, 2.0, 3.0):
            for check in _run_and_check(edges, k):
                _assert_witness_ok(check)


def test_scaling_weights_preserves_feasibility():
    # powers of two are exact in binary floats, so the scaled system
    # is the original one multiplied through; feasibility must agree
    rng = random.Random(43)
    edges = random_edge_list(rng, max_n=8)
    for scale in (0.25, 1.0, 4.0, 1024.0):
        scaled = [edge(e.u, e.v, e.w * scale) for e in edges]
        checks = _run_and_check(scaled, 2.0)
        assert checks, "expected at least one insertion"
        for check in checks:
            _assert_witness_ok(check)


def test_fast_path_matches_general_path_semantics():
    # same system posed two ways: once as the |A| = 1 fast path, once
    # padded with a disjoint removal-free edge to force the general code
    rng = random.Random(47)
    for _ in range(40):
        w_in = round(rng.uniform(1.0, 12.0), 3)
        removed = []
        if rng.random() < 0.8:
            removed.append(edge(1, 3, round(rng.uniform(0.1, 4.0), 3)))
        if rng.random() < 0.8:
            removed.append(edge(2, 4, round(rng.uniform(0.1, 4.0), 3)))
        single = InsertionDecision(
            chosen=(edge(1, 2, w_in),), removed=tuple(removed),
            gain=0.0, inserted=True)
        padded = InsertionDecision(
            chosen=(edge(1, 2, w_in), edge(8, 9, 5.0)),
            removed=tuple(removed), gain=0.0, inserted=True)
        fast = check_locally_k_exceeding(single, 2.0)
        general = check_locally_k_exceeding(padded, 2.0)
        assert fast.feasible == general.feasible
        if fast.feasible:
            _assert_witness_ok(fast)
            _assert_witness_ok(general)


def test_fourier_motzkin_feasible_interval():
    one = Fraction(1)
    # x0 <= 1 and -x0 <= 0, midpoint witness 1/2
    values = _fourier_motzkin([((one,), Fraction(1)),
                               ((-one,), Fraction(0))], 1)
    assert values == [Fraction(1, 2)]


def test_fourier_motzkin_infeasible():
    one = Fraction(1)
    # x0 <= 1 and x0 >= 2
    values = _fourier_motzkin([((one,), Fraction(1)),
                               ((-one,), Fraction(-2))], 1)
    assert values is None


def test_fourier_motzkin_two_vars():
    one = Fraction(1)
    zero = Fraction(0)
    # x0 + x1 <= 4, x0 >= 1, x1 >= 2 is feasible
    cons = [((one, one), Fraction(4)),
            ((-one, zero), Fraction(-1)),
            ((zero, -one), Fraction(-2))]
    values = _fourier_motzkin(cons, 2)
    assert values is not None
    x0, x1 = values
    assert x0 + x1 <= 4 and x0 >= 1 and x1 >= 2
    # tightening the budget below 3 flips it
    cons[0] = ((one, one), Fraction(5, 2))
    assert _fourier_motzkin(cons, 2) is None


def test_unconstrained_variable_defaults_to_zero():
    zero = Fraction(0)
    one = Fraction(1)
    # x1 never appears; x0 pinned to [1, 1]
    cons = [((one, zero), Fraction(1)), ((-one, zero), Fraction(-1))]
    values = _fourier_motzkin(cons, 2)
    assert values == [Fraction(1), Fraction(0)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_insertions_certify_at_float_ties(data):
    """Input weights a few ulps from k * w(M(e)) are where float scoring
    and the exact certificate can disagree; every insertion must still
    certify."""
    k = data.draw(st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    m = ShadowMatcher(k)
    seen = set()
    for _ in range(40):
        u, v = sorted(rng.sample(range(8), 2))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        conflicts = {x for x in (m.matching.get(u), m.matching.get(v)) if x}
        w = k * sum(x.w for x in conflicts)
        if w == 0:
            w = rng.uniform(0.5, 4.0)
        steps = data.draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            w = math.nextafter(w, math.inf if steps > 0 else 0.0)
        d = m.process_edge(edge(u, v, w))
        if d.inserted:
            assert check_locally_k_exceeding(d, k).feasible
