"""Worst-case approximation ratio of the shadow matcher as a function of k.

The matcher only replaces edges when the new weight exceeds k times
the removed weight, and the guarantee that falls out of the analysis
is the ratio

    R(k) = k + k / (k - 1) + (k**3 - k + 1) / k**2          for k > 1.

R is strictly convex on (1, oo), since R''(k) = 2/(k-1)**3 - 2/k**3 +
6/k**4 and (k-1)**3 < k**3, so it has one minimiser: the root of R'(k)
times k**3 (k-1)**2, the polynomial

    P(k) = 2k**3 (k-1)**2 - k**3 + k (k-1)**2 - 2 (k-1)**2,

at about 1.717191765.  The arithmetic below is generic: pass a float
and get a float, pass a fractions.Fraction and the result stays exact.
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


# The default threshold: 1.41e-8 above the minimiser of R, where R is
# within 1e-15 of its minimum (tests/test_bound.py checks both exactly).
K_STAR = 1.717191779457857


def optimal_k() -> tuple[float, float]:
    """The default threshold K_STAR and its ratio bound R(K_STAR)."""
    return K_STAR, approx_bound(K_STAR)


def ratio_table(ks) -> list[tuple[float, float]]:
    """Tabulate (k, approx_bound(k)) rows for plotting or printing."""
    return [(float(k), approx_bound(float(k))) for k in ks]
