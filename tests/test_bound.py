"""The worst-case ratio bound and its minimizer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from shadowmatch.bound import K_STAR, approx_bound, optimal_k, ratio_table


def test_value_at_two_is_exact():
    # 2 + 2 + 7/4, checked both in floats and in exact rationals
    assert approx_bound(2.0) == 5.75
    assert approx_bound(Fraction(2)) == Fraction(23, 4)


def test_value_near_known_minimum():
    assert abs(approx_bound(1.717) - 5.585) < 1e-3


def test_blows_up_near_one():
    assert approx_bound(1.001) > 100.0


@pytest.mark.parametrize("k", [1.0, 0.5, 0.0, -2.0])
def test_domain_error(k):
    with pytest.raises(ValueError):
        approx_bound(k)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        approx_bound(float("nan"))
    with pytest.raises(ValueError):
        approx_bound(float("inf"))


def test_minimizer_location_and_value():
    k_star, value = optimal_k()
    assert 1.70 <= k_star <= 1.73
    assert 5.584 <= value <= 5.586
    assert value <= 5.75


def test_minimizer_is_locally_minimal():
    k_star, value = optimal_k()
    for delta in (1e-4, 1e-3, 1e-2, 0.1):
        assert approx_bound(k_star - delta) >= value
        assert approx_bound(k_star + delta) >= value


def test_minimizer_is_deterministic():
    assert optimal_k() == optimal_k()


def _p(k: Fraction) -> Fraction:
    """R'(k) times k**3 (k-1)**2, a factor positive on k > 1, so P has
    the sign of R' there and its root is the minimiser of R."""
    return 2 * k ** 3 * (k - 1) ** 2 - k ** 3 + k * (k - 1) ** 2 - 2 * (k - 1) ** 2


def test_k_star_lies_within_1_5e_8_above_the_minimiser():
    k = Fraction(K_STAR)
    assert _p(k) > 0
    assert _p(k - Fraction(15, 10 ** 9)) < 0


def test_k_star_ratio_lies_within_1e_15_of_the_minimum():
    """Bisect the root of P to a bracket [lo, hi]; R is convex, so its
    tangent at hi lies below it there, and R(root) >= R(hi) - R'(hi) *
    (hi - lo)."""
    lo, hi = Fraction(3, 2), Fraction(2)
    assert _p(lo) < 0 < _p(hi)
    for _ in range(64):
        mid = (lo + hi) / 2
        if _p(mid) < 0:
            lo = mid
        else:
            hi = mid
    slope = _p(hi) / (hi ** 3 * (hi - 1) ** 2)
    floor = approx_bound(hi) - slope * (hi - lo)
    assert approx_bound(Fraction(K_STAR)) - floor < Fraction(1, 10 ** 15)


def test_k_star_beats_three_plus_two_root_two():
    """R(K_STAR) < 3 + 2*sqrt(2), the best earlier one-pass ratio."""
    assert (approx_bound(Fraction(K_STAR)) - 3) ** 2 < 8


def test_slope_changes_sign_once():
    # convexity: the forward differences go negative then positive
    ks = [1.2 + i * 0.01 for i in range(200)]
    diffs = [approx_bound(b) - approx_bound(a) for a, b in zip(ks, ks[1:])]
    sign_changes = sum(1 for a, b in zip(diffs, diffs[1:])
                       if (a < 0) != (b < 0))
    assert sign_changes == 1


def test_ratio_table():
    rows = ratio_table([1.5, 2.0])
    assert rows[1] == (2.0, 5.75)
    assert len(rows) == 2
