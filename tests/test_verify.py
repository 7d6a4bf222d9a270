"""Exact-rational certificates for shadow matcher insertions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _fourier_motzkin, random_edge_list, reference_feasible
from shadowmatch.graph import edge
from shadowmatch.shadow import InsertionDecision, ShadowMatcher
from shadowmatch.verify import AllocationCheck, check_locally_k_exceeding

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


@pytest.mark.parametrize("chosen, removed", [
    ((edge(1, 2, 5.0), edge(2, 3, 5.0)), ()),
    ((edge(1, 2, 5.0),), (edge(1, 3, 1.0), edge(1, 4, 1.0))),
    ((edge(1, 2, 5.0),), (edge(1, 2, 1.0),)),
], ids=["inserted-overlap", "removed-overlap", "removed-is-inserted"])
def test_malformed_decision_raises(chosen, removed):
    # the allocation system is only defined for a matching replacing
    # matching edges; no matcher emits anything else
    decision = InsertionDecision(chosen, removed, 1.0, True)
    with pytest.raises(ValueError):
        check_locally_k_exceeding(decision, 2.0)


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
    # same system posed two ways: once as the |A| = 1 closed form, once
    # padded with a disjoint removal-free edge to force the general code
    def pose(w_in, removed):
        return (InsertionDecision((edge(1, 2, w_in),), tuple(removed),
                                  0.0, True),
                InsertionDecision((edge(1, 2, w_in), edge(8, 9, 5.0)),
                                  tuple(removed), 0.0, True))

    rng = random.Random(47)
    for _ in range(60):
        w_in = round(rng.uniform(1.0, 12.0), 3)
        removed = []
        if rng.random() < 0.8:
            removed.append(edge(1, 3, round(rng.uniform(0.1, 4.0), 3)))
        if rng.random() < 0.8:
            removed.append(edge(2, 4, round(rng.uniform(0.1, 4.0), 3)))
        misses = rng.random() < 0.2
        if misses:
            removed.insert(rng.randrange(len(removed) + 1),
                           edge(5, 6, round(rng.uniform(0.1, 4.0), 3)))
        single, padded = pose(w_in, removed)
        fast = check_locally_k_exceeding(single, 2.0)
        general = check_locally_k_exceeding(padded, 2.0)
        assert fast.feasible == general.feasible
        assert fast.feasible == (not misses and 2 * sum(d.w for d in removed) <= w_in)
        if fast.feasible:
            assert fast.witness == {1: 1, 2: 1}
            _assert_witness_ok(fast)
            _assert_witness_ok(general)
        else:
            assert fast.witness is None

    # malformed decisions raise the same error on both paths; two
    # removed edges at one end is reported first, in either order
    twice_at_1 = (edge(1, 3, 1.0), edge(1, 4, 1.0))
    is_inserted = (edge(1, 2, 1.0),)
    both = (edge(1, 2, 1.0), edge(1, 3, 1.0))
    for removed, message in [
            (twice_at_1, "at most one removed edge"),
            (is_inserted, "is also inserted"),
            (both, "at most one removed edge"),
            (both[::-1], "at most one removed edge")]:
        for decision in pose(5.0, removed):
            with pytest.raises(ValueError, match=message):
                check_locally_k_exceeding(decision, 2.0)


def test_k_conversion_is_per_value():
    # k * 1.5 <= 3 holds at k = 1.5 and fails at k = 3; each verdict and
    # its exact k must come from the k of that call
    decision = InsertionDecision((edge(1, 2, 3.0),), (edge(1, 3, 1.5),),
                                 0.0, True)
    for k, feasible in [(1.5, True), (3.0, False), (1.5, True)]:
        check = check_locally_k_exceeding(decision, k)
        assert (check.feasible, check.k) == (feasible, Fraction(k))
    with pytest.raises(ValueError, match="k must be > 1"):
        check_locally_k_exceeding(decision, 1.0)
    with pytest.raises(ValueError, match="k must be > 1"):
        check_locally_k_exceeding(decision, 1.0)


def test_single_edge_with_removed_edge_off_the_cover_is_infeasible():
    # f is 0 off the covered set, so a removed edge that misses the
    # inserted edge can never reach f(c) + f(d) >= 1, with or without a
    # disjoint removal-free edge padding the decision
    single = InsertionDecision((edge(1, 2, 10.0),), (edge(5, 6, 1.0),),
                               1.0, True)
    padded = InsertionDecision((edge(1, 2, 10.0), edge(8, 9, 5.0)),
                               (edge(5, 6, 1.0),), 1.0, True)
    assert not check_locally_k_exceeding(single, 2.0).feasible
    assert not check_locally_k_exceeding(padded, 2.0).feasible


def test_six_cycle_splits_every_shared_edge():
    # three removed edges, each joining two inserted edges; the total
    # load 3 exactly fills the total capacity 6 / 2
    chosen = (edge(0, 1, 2.0), edge(2, 3, 2.0), edge(4, 5, 2.0))
    removed = (edge(1, 2, 1.0), edge(3, 4, 1.0), edge(0, 5, 1.0))
    check = check_locally_k_exceeding(
        InsertionDecision(chosen, removed, 0.0, True), 2.0)
    _assert_witness_ok(check)
    assert all(0 < check.witness[x] < 1 for d in removed for x in (d.u, d.v))
    # one ulp less capacity, and the cycle no longer fits
    short = (edge(0, 1, math.nextafter(2.0, 0.0)),) + chosen[1:]
    decision = InsertionDecision(short, removed, 0.0, True)
    assert not check_locally_k_exceeding(decision, 2.0).feasible
    assert not reference_feasible(decision, 2.0)


def test_infeasible_only_for_all_three_inserted_edges():
    # capacity 2 each at k = 2: each inserted edge fits its pinned load
    # (1, 0 and 1) and each pair fits its load (at most 3.5 <= 4), but
    # the total load 7 exceeds the total capacity 6
    chosen = (edge(0, 1, 4.0), edge(2, 3, 4.0), edge(4, 5, 4.0))
    pinned = ((edge(0, 10, 1.0),), (), (edge(5, 11, 1.0),))
    decision = InsertionDecision(
        chosen, pinned[0] + (edge(1, 2, 2.5), edge(3, 4, 2.5)) + pinned[2],
        0.0, True)
    assert not check_locally_k_exceeding(decision, 2.0).feasible
    assert not reference_feasible(decision, 2.0)
    for e, load in zip(chosen, pinned):
        alone = InsertionDecision((e,), load, 0.0, True)
        _assert_witness_ok(check_locally_k_exceeding(alone, 2.0))


@pytest.mark.parametrize("pinned, feasible", [(None, True), (5e-324, False)])
def test_subnormal_and_huge_weights_are_exact(pinned, feasible):
    # the shared edge exactly fills the huge edge's capacity 1e308 / 2,
    # and the subnormal edge's capacity 5e-324 / 2 takes a sliver of it
    # unless a pinned 5e-324 already overfills it
    removed = (edge(1, 2, 5e307),)
    if pinned is not None:
        removed += (edge(3, 10, pinned),)
    decision = InsertionDecision((edge(0, 1, 1e308), edge(2, 3, 5e-324)),
                                 removed, 0.0, True)
    check = check_locally_k_exceeding(decision, 2.0)
    assert check.feasible == feasible == reference_feasible(decision, 2.0)
    if feasible:
        _assert_witness_ok(check)
        assert 0 < check.witness[1] < 1


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


@st.composite
def hand_built_decisions(draw):
    """Well-formed decisions on 1-3 inserted edges (2i, 2i+1): each
    covered vertex gets no removed edge, a private one to a fresh
    vertex, or one shared with another inserted edge; n = 3 may be a
    6-cycle of shared edges, and a removed edge may miss the cover."""
    n = draw(st.integers(1, 3))
    weight = draw(st.sampled_from([
        st.floats(0.05, 20.0),
        st.integers(1, 10).map(float),
        st.floats(-40.0, 60.0).map(math.exp)]))
    chosen = tuple(edge(2 * i, 2 * i + 1, draw(weight)) for i in range(n))
    fresh = 2 * n
    if n == 3 and draw(st.booleans()):
        pairs = [(1, 2), (3, 4), (5, 0)]
    else:
        pairs = []
        order = draw(st.permutations(range(2 * n)))
        used: set[int] = set()
        for x in order:
            if x in used:
                continue
            kind = draw(st.sampled_from(["none", "private", "shared"]))
            others = [y for y in order if y not in used and y // 2 != x // 2]
            if kind == "shared" and others:
                y = draw(st.sampled_from(others))
                used |= {x, y}
                pairs.append((x, y))
            elif kind != "none":
                used.add(x)
                pairs.append((x, fresh))
                fresh += 1
    if draw(st.integers(0, 9)) == 0:
        pairs.append((fresh, fresh + 1))
    removed = [edge(u, v, draw(weight)) for u, v in pairs]
    removed = tuple(draw(st.permutations(removed)))
    return InsertionDecision(chosen, removed, 0.0, True)


@given(hand_built_decisions(),
       st.sampled_from([1.1, 1.5, 1.717191779457857, 2.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_verdict_matches_fourier_motzkin(decision, k):
    check = check_locally_k_exceeding(decision, k)
    assert check.feasible == reference_feasible(decision, k)
    if check.feasible:
        _assert_witness_ok(check)


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


# Streams whose last step scores a three-edge set and one of its pairs
# within float rounding of each other, while the third edge's exact
# marginal is negative: ranked in floats, the triple wins and fails its
# certificate.  At k = 1.1 the two float scores are equal; at k* they
# are 1.4e-14 apart, with the triple ahead.
NEAR_TIE_STREAMS = {
    1.1: """5 7 2.7157557414463853 / 1 3 2.7065935157763845
        / 0 7 2.987331315591024 / 4 5 3.272207380926885
        / 4 7 6.885492566169701 / 2 4 3.599428119019574
        / 0 6 3.286064447150127 / 2 5 6.946702246512555
        / 2 3 6.936623798275555 / 1 5 3.599428119019574
        / 0 5 7.574041822786672 / 2 6 7.630286178103111
        / 4 6 8.393314795913422 / 0 4 17.564092280570105""",
    1.717191779457857: """6 7 2.297820044260798 / 0 3 1.5131127824481598
        / 3 4 2.5983048314125843 / 0 7 6.544102522090716
        / 1 3 2.5983048314125847 / 2 3 2.598304831412584
        / 1 7 3.945797690678131 / 2 7 3.945797690678132
        / 0 4 2.598304831412584 / 0 2 9.373996189248864
        / 1 2 16.096949196847426 / 3 5 2.5983048314125834
        / 3 7 6.544102522090718 / 1 6 27.641548835177154
        / 2 4 16.096949196847433 / 4 7 38.87902789004076
        / 4 6 114.22858751733983""",
}


@pytest.mark.parametrize("k", sorted(NEAR_TIE_STREAMS))
def test_near_tie_subset_is_inserted_and_certifies(k):
    edges = [edge(int(u), int(v), float(w)) for u, v, w in
             (part.split() for part in NEAR_TIE_STREAMS[k].split("/"))]
    matcher = ShadowMatcher(k)
    for e in edges:
        decision = matcher.process_edge(e)
        if decision.inserted:
            _assert_witness_ok(check_locally_k_exceeding(decision, k))
    # the last step inserts the exactly better pair, not the triple
    assert decision.inserted and len(decision.chosen) == 2
