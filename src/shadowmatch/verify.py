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

The callers read only the verdict, so a check builds no witness.  A
feasible check's `witness` is built on its first read and kept on the
record: `_slack` is run again, and the shared removed edges (a single
edge has none) are fixed one at a time, each at the midpoint of the
shares its first end c can take while every subset condition stays
true, with f(c) = share / w(cd), f(d) = 1 - f(c), and f = 1
elsewhere.  The midpoint leaves room for the edges fixed after it, so
a cycle of shared edges splits each one strictly when it can.  An
infeasible system (witness None) means the insertion violated its own
admission rule and something is broken.

Measured in process (2-core x86-64, CPython 3.11.7, best of nine
passes) on the 4,585 insertions of the ascending-n300 seed-0 benchmark
stream at k*, against the earlier check that built the witness every
time: 2.99 -> 1.68 us per single-edge check, and 17.6 -> 6.05 us per
two- or three-edge check (all 1,689 evict a shared edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .graph import Edge
from .shadow import InsertionDecision

_ONE = Fraction(1)

# `_slack` marks a covered vertex's bit once a removed edge touches it.
_TOUCHED = 8


@dataclass(slots=True)
class AllocationCheck:
    """Result of checking one insertion.

    `covered` lists the vertices of the inserted edges (the only ones
    allowed a nonzero allocation); `witness` maps them to an exact
    feasible allocation when one exists, else None.  The witness is
    built on its first read, by `_witness`, and then kept.
    """

    feasible: bool
    covered: tuple[int, ...]
    witness: dict[int, Fraction] | None = field(init=False)
    chosen: tuple[Edge, ...]
    removed: tuple[Edge, ...]
    k: Fraction

    def __getattr__(self, name: str):
        # Only an attribute that is not set reaches here, and the one
        # slot left unset on purpose is `witness`, until its first read.
        if name != "witness":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.witness = witness = _witness(self)
        return witness


@lru_cache(maxsize=16)
def _exact_k(k: float) -> tuple[Fraction, int, int]:
    """k as the exact fraction p/q of its float value, checked > 1."""
    kq = Fraction(float(k))
    p, q = kq.numerator, kq.denominator
    if p <= q:
        raise ValueError(f"k must be > 1, got {k!r}")
    return kq, p, q


def _check_one_edge(chosen: tuple[Edge], removed: tuple[Edge, ...],
                    kq: Fraction, p: int, q: int) -> AllocationCheck:
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
    return AllocationCheck(not misses and p * load <= q * num,
                           (u, v) if u < v else (v, u), chosen, removed, kq)


def check_locally_k_exceeding(decision: InsertionDecision, k: float) -> AllocationCheck:
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
    AllocationCheck; its exact witness, when feasible, is built on the
    first read of `witness`.
    """
    if not decision.inserted:
        raise ValueError("only inserted decisions carry an allocation certificate")
    kq, p, q = _exact_k(k)
    chosen = decision.chosen
    removed = decision.removed
    if len(chosen) == 1:
        return _check_one_edge(chosen, removed, kq, p, q)
    slack, _, bit = _slack(chosen, removed, p, q)
    return AllocationCheck(min(slack) >= 0, tuple(sorted(bit)),
                           chosen, removed, kq)


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


def _witness(check: AllocationCheck) -> dict[int, Fraction] | None:
    """The exact allocation of a feasible check (None if infeasible):
    f = 1, but for the shared removed edges, each fixed at the midpoint
    of the shares its first end can take with every subset condition
    kept true."""
    if not check.feasible:
        return None
    witness = dict.fromkeys(check.covered, _ONE)
    p, q = check.k.numerator, check.k.denominator
    slack, den, bit = _slack(check.chosen, check.removed, p, q)
    shared = [d for d in check.removed if d.u in bit and d.v in bit]
    # Scaled by 2**len(shared), so that the halvings below stay integral.
    slack = [s << len(shared) for s in slack]
    p <<= len(shared)
    size = len(slack)
    for c, d, w in shared:
        num, r = w.as_integer_ratio()
        w = p * num * (den // r)
        bc = bit[c] & ~_TOUCHED
        bd = bit[d] & ~_TOUCHED
        # The sets holding c's inserted edge and not d's are {c} and,
        # with a third inserted edge, {c, third}; likewise for d.
        third = size - 1 - bc - bd
        hi = min(w, slack[bc], slack[bc | third])
        lo = w - min(w, slack[bd], slack[bd | third])
        share = (lo + hi) // 2
        slack[bc] -= share
        slack[bd] -= w - share
        if third:
            slack[bc | third] -= share
            slack[bd | third] -= w - share
        witness[c] = Fraction(share, w)
        witness[d] = _ONE - witness[c]
    return witness
