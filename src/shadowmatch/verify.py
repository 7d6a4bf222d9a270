"""Per-insertion certificate checks, in exact arithmetic.

Every insertion the shadow matcher performs is supposed to be "locally
k-exceeding": there must exist an allocation f mapping the vertices
covered by the inserted set A into [0, 1] such that

  * for every inserted edge ab:
        f(a) * w(M(a)) + f(b) * w(M(b)) <= w(ab) / k
    where M(x) is the removed matching edge covering x (weight 0 when
    x was uncovered), and
  * for every removed edge cd:
        f(c) + f(d) >= 1
    with f fixed to 0 outside the covered vertex set.

The system has a fixed shape, so it is decided in closed form rather
than by a general LP solver:

  * a removed edge with one covered end x forces f(x) = 1, so its whole
    weight loads the inserted edge through x;
  * a removed edge with both ends covered joins two different inserted
    edges, and its weight splits between them (f(c) + f(d) = 1 at the
    optimum, since overshooting only adds load);
  * a covered vertex with no removed edge is free, and a removed edge
    with no covered end makes the system infeasible.

That is a splittable transport problem from the removed edges to at
most three inserted edges of capacity w(e)/k.  By Gale's theorem it is
feasible iff, for every set S of inserted edges,

    k * w(removed edges whose covered ends all lie in S) <= w(S),

where a removed edge with no covered end lies in every S, the empty
one included.  With k = p/q and every weight an integer multiple of one
power of two (binary floats are), the at most eight comparisons are
exact in integers.  `_slack` builds that table of subset slacks in one
pass over the inserted and the removed edges, raising on a malformed
decision as it goes, and the verdict is that no slack is negative.

Nearly every insertion is a single edge e = uv, and for it the subset
condition has only S = {} and S = {e}.  So it is decided in closed
form, in one pass over the removed edges: feasible iff every removed
edge touches e at exactly one end and p * w(removed edges) <= q * w(e).
The exact k = p/q is converted once per k value, not once per check.

A check returns that verdict and computes nothing else; it builds no
allocation f.  An infeasible system (False) means the insertion
violated its own admission rule and something is broken.

Measured in process (2-core x86-64, CPython 3.11.7) on the 4,585
insertions of the ascending-n300 seed-0 benchmark stream at k*: 1.28
us per single-edge check and 4.63 us per two- or three-edge check (all
1,689 evict a shared edge), medians of 7 rounds, each the best of 5
passes.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Edge
from .shadow import InsertionDecision

# `_slack` marks a covered vertex's bit once a removed edge touches it.
_TOUCHED = 8


@lru_cache(maxsize=16)
def _exact_k(k: float) -> tuple[int, int]:
    """k as the exact fraction p/q of its float value, in lowest terms,
    checked > 1."""
    p, q = float(k).as_integer_ratio()
    if p <= q:
        raise ValueError(f"k must be > 1, got {k!r}")
    return p, q


def _check_one_edge(chosen: tuple[Edge], removed: tuple[Edge, ...],
                    p: int, q: int) -> bool:
    """The subset conditions for S = {} and S = {e}, for one inserted
    edge e = uv, with the general check's errors in its order."""
    (e,) = chosen
    u, v, w = e
    if u == v:
        raise ValueError("inserted edges must be pairwise disjoint")
    # S = {e}: k * w(removed) <= w(e), the weights as integers over a
    # common power-of-two denominator.  S = {} fails when a removed
    # edge misses e.
    num, den = w.as_integer_ratio()
    load = 0
    at_u = at_v = misses = False
    also = None
    for d in removed:
        a, b, x = d
        on_u = a == u or b == u
        on_v = a == v or b == v
        if on_u:
            if at_u:
                raise ValueError("at most one removed edge may touch a covered vertex")
            at_u = True
        if on_v:
            if at_v:
                raise ValueError("at most one removed edge may touch a covered vertex")
            at_v = True
            if on_u and also is None:
                also = d
        elif not on_u:
            misses = True
        x, r = x.as_integer_ratio()
        if r > den:
            num *= r // den
            load *= r // den
            den = r
        load += x * (den // r)
    if also is not None:
        raise ValueError(f"removed edge {also} is also inserted")
    return not misses and p * load <= q * num


def check_locally_k_exceeding(decision: InsertionDecision, k: float) -> bool:
    """Decide feasibility of the allocation system for one insertion.

    Parameters
    ----------
    decision
        Must have `inserted` set; rejected steps have nothing to
        certify and raise ValueError.  At most three edges may be
        inserted, pairwise disjoint; at most one removed edge may touch
        each covered vertex, and no removed edge may be an inserted one
        (ValueError otherwise, in that order).  Every matcher decision
        is of that shape.
    k
        The threshold the matcher ran with (> 1).

    Returns
    -------
    True iff the system is feasible, decided exactly.
    """
    if not decision.inserted:
        raise ValueError("only inserted decisions carry an allocation certificate")
    p, q = _exact_k(k)
    chosen = decision.chosen
    removed = decision.removed
    if len(chosen) == 1:
        return _check_one_edge(chosen, removed, p, q)
    return min(_slack(chosen, removed, p, q)[0]) >= 0


def _slack(chosen: tuple[Edge, ...], removed: tuple[Edge, ...], p: int, q: int
           ) -> tuple[list[int], int, dict[int, int]]:
    """Gale's subset slacks for at most three inserted edges, in one pass.

    Returns (slack, den, bit): slack[S] = q * w(S) - p * (weight of the
    removed edges whose covered ends all lie in S), for every set S of
    inserted edges as a bitmask, with every weight an integer over the
    power-of-two denominator den; and bit[x], the bit of the inserted
    edge covering x (or'ed with _TOUCHED once a removed edge touches x).
    Raises ValueError on a malformed decision, in the documented order.
    """
    if len(chosen) > 3:
        raise ValueError("at most three edges are inserted at once")
    bit: dict[int, int] = {}
    slack = [0]
    den = 1
    for a, b, w in chosen:
        bit[a] = bit[b] = len(slack)
        num, r = w.as_integer_ratio()
        if r > den:
            slack = [s * (r // den) for s in slack]
            den = r
        w = q * num * (den // r)
        slack += [s + w for s in slack]
    if len(bit) != 2 * len(chosen):
        raise ValueError("inserted edges must be pairwise disjoint")
    size = len(slack)
    also = None
    for d in removed:
        a, b, w = d
        mask = bit.get(a, 0)
        if mask:
            if mask & _TOUCHED:
                raise ValueError("at most one removed edge may touch a covered vertex")
            bit[a] = mask | _TOUCHED
        mb = bit.get(b, 0)
        if mb:
            if mb & _TOUCHED:
                raise ValueError("at most one removed edge may touch a covered vertex")
            bit[b] = mb | _TOUCHED
            if mb == mask and also is None:
                also = d
            mask |= mb
        num, r = w.as_integer_ratio()
        if r > den:
            slack = [s * (r // den) for s in slack]
            den = r
        w = p * num * (den // r)
        s = mask
        while s < size:  # every superset of mask
            slack[s] -= w
            s = (s + 1) | mask
    if also is not None:
        raise ValueError(f"removed edge {also} is also inserted")
    return slack, den, bit

