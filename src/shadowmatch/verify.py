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
exact in integers.  A feasible system gets a concrete witness: the
shared removed edges are fixed one at a time, each at the midpoint of
the shares its first end c can take while every subset condition stays
true, with f(c) = share / w(cd), f(d) = 1 - f(c), and f = 1 elsewhere.
The midpoint leaves room for the edges fixed after it, so a cycle of
shared edges splits each one strictly when it can.  An infeasible
system means the insertion violated its own admission rule and
something is broken.

Nearly every insertion is a single edge e = uv, and for it the subset
condition has only S = {} and S = {e}.  So it is decided in closed
form: feasible iff every removed edge touches e at exactly one end and
p * w(removed edges) <= q * w(e), with witness f(u) = f(v) = 1.  The
exact k = p/q is converted once per k value, not once per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graph import Edge
from .shadow import InsertionDecision

_ONE = Fraction(1)


@dataclass(slots=True)
class AllocationCheck:
    """Result of checking one insertion.

    `covered` lists the vertices of the inserted edges (the only ones
    allowed a nonzero allocation); `witness` maps them to an exact
    feasible allocation when one exists, else None.
    """

    feasible: bool
    covered: tuple[int, ...]
    witness: dict[int, Fraction] | None
    chosen: tuple[Edge, ...]
    removed: tuple[Edge, ...]
    k: Fraction


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
    u, v = e.u, e.v
    if u == v:
        raise ValueError("inserted edges must be pairwise disjoint")
    covered = (u, v) if u < v else (v, u)
    if removed:
        hit = [x for d in removed for x in (d.u, d.v) if x == u or x == v]
        if len(set(hit)) != len(hit):
            raise ValueError("at most one removed edge may touch a covered vertex")
        for d in removed:
            if (d.u == u or d.u == v) and (d.v == u or d.v == v):
                raise ValueError(f"removed edge {d} is also inserted")
        # No removed edge touches both ends, so fewer hits than removed
        # edges means one misses e: S = {} fails.
        if len(hit) < len(removed):
            return AllocationCheck(False, covered, None, chosen, removed, kq)
    # S = {e}: k * w(removed) <= w(e), the weights as integers over a
    # common power-of-two denominator.
    num, den = e.w.as_integer_ratio()
    load = 0
    for d in removed:
        a, b = d.w.as_integer_ratio()
        if b > den:
            num *= b // den
            load *= b // den
            den = b
        load += a * (den // b)
    if p * load > q * num:
        return AllocationCheck(False, covered, None, chosen, removed, kq)
    return AllocationCheck(True, covered, dict.fromkeys(covered, _ONE),
                           chosen, removed, kq)


def check_locally_k_exceeding(decision: InsertionDecision, k: float) -> AllocationCheck:
    """Decide feasibility of the allocation system for one insertion.

    Parameters
    ----------
    decision
        Must have `inserted` set; rejected steps have nothing to
        certify and raise ValueError.  At most three edges may be
        inserted, pairwise disjoint; at most one removed edge may touch
        each covered vertex, and no removed edge may be an inserted one
        (ValueError otherwise).  Every matcher decision is of that shape.
    k
        The threshold the matcher ran with (> 1).

    Returns
    -------
    AllocationCheck with an exact witness when feasible.
    """
    if not decision.inserted:
        raise ValueError("only inserted decisions carry an allocation certificate")
    kq, p, q = _exact_k(k)
    chosen = decision.chosen
    removed = decision.removed
    if len(chosen) == 1:
        return _check_one_edge(chosen, removed, kq, p, q)
    return _check_edges(chosen, removed, kq, p, q)


def _check_edges(chosen: tuple[Edge, ...], removed: tuple[Edge, ...],
                 kq: Fraction, p: int, q: int) -> AllocationCheck:
    """Gale's subset conditions for two or three inserted edges, and the
    witness when they hold."""
    n = len(chosen)
    if n > 3:
        raise ValueError("at most three edges are inserted at once")
    # ends[2i] and ends[2i + 1] are the ends of chosen[i].
    ends = [x for e in chosen for x in (e.u, e.v)]
    if len(set(ends)) != 2 * n:
        raise ValueError("inserted edges must be pairwise disjoint")
    hit = [x for d in removed for x in (d.u, d.v) if x in ends]
    if len(set(hit)) != len(hit):
        raise ValueError("at most one removed edge may touch a covered vertex")

    # Every weight as an integer over one power-of-two denominator, so
    # k * load <= w becomes p * load <= q * w with k = p/q.
    ratios = [e.w.as_integer_ratio() for e in chosen + removed]
    den = max(d for _, d in ratios)
    ints = [num * (den // d) for num, d in ratios]

    # slack[S] = q * w(S) - p * (weight of the removed edges whose
    # covered ends all lie in S), for every set S of inserted edges as a
    # bitmask, all scaled by 2**len(shared) so that the witness's
    # halvings below stay integral.
    shared = [(d, w) for d, w in zip(removed, ints[n:])
              if d.u in ends and d.v in ends]
    scale = 1 << len(shared)
    p *= scale
    q *= scale
    size = 1 << n
    slack = [0]
    for w in ints[:n]:
        w *= q
        slack += [c + w for c in slack]
    for d, w in zip(removed, ints[n:]):
        mask = 0
        for x in (d.u, d.v):
            if x in ends:
                mask |= 1 << (ends.index(x) >> 1)
        if d.u in ends and d.v in ends and mask & (mask - 1) == 0:
            raise ValueError(f"removed edge {d} is also inserted")
        w *= p
        s = mask
        while s < size:  # every superset of mask
            slack[s] -= w
            s = (s + 1) | mask
    covered = tuple(sorted(ends))
    if min(slack) < 0:
        return AllocationCheck(False, covered, None, chosen, removed, kq)

    # Witness: fix the shared edges one at a time, each at the midpoint
    # of the shares its first end can take with every subset condition
    # kept true.
    witness = dict.fromkeys(covered, _ONE)
    for cd, w in shared:
        w *= p
        c, d = cd.u, cd.v
        bc = 1 << (ends.index(c) >> 1)
        bd = 1 << (ends.index(d) >> 1)
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
    return AllocationCheck(True, covered, witness, chosen, removed, kq)
