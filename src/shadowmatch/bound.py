"""Worst-case approximation ratio of the shadow matcher as a function of k.

The matcher only replaces edges when the new weight exceeds k times
the removed weight, and the guarantee that falls out of the analysis
is the ratio

    R(k) = k + k / (k - 1) + (k**3 - k + 1) / k**2          for k > 1.

R is strictly convex on (1, oo), so a ternary search pins its minimum.
The arithmetic below is generic: pass a float and get a float, pass a
fractions.Fraction and the result stays exact.
"""

from __future__ import annotations

import math


def approx_bound(k):
    """Evaluate the worst-case ratio bound R(k).

    Parameters
    ----------
    k : float or Fraction
        Replacement threshold factor, must be > 1.

    Raises
    ------
    ValueError
        If k <= 1 or k is not finite.
    """
    if isinstance(k, float) and not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    if k <= 1:
        raise ValueError(f"bound is defined for k > 1, got {k!r}")
    return k + k / (k - 1) + (k ** 3 - k + 1) / k ** 2


def optimal_k() -> tuple[float, float]:
    """Minimize approx_bound over (1, 10] by ternary search.

    Returns (k_star, approx_bound(k_star)).  The search starts on
    [1 + 1e-9, 10] and stops once the window is 1e-9 wide; convexity of
    the bound makes ternary search exact up to that tolerance.
    """
    lo, hi = 1.0 + 1e-9, 10.0
    while hi - lo > 1e-9:
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if approx_bound(m1) < approx_bound(m2):
            hi = m2
        else:
            lo = m1
    k = (lo + hi) / 2.0
    return k, approx_bound(k)


def ratio_table(ks) -> list[tuple[float, float]]:
    """Tabulate (k, approx_bound(k)) rows for plotting or printing."""
    return [(float(k), approx_bound(float(k))) for k in ks]
