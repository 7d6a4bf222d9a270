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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def check_locally_k_exceeding(decision: InsertionDecision, k: float) -> AllocationCheck:
    """Decide feasibility of the allocation system for one insertion.

    Parameters
    ----------
    decision
        Must have `inserted` set; rejected steps have nothing to
        certify and raise ValueError.  The inserted edges must be
        pairwise disjoint, at most one removed edge may touch each
        covered vertex, and no removed edge may be an inserted one
        (ValueError otherwise); every matcher decision is of that shape.
    k
        The threshold the matcher ran with (> 1).

    Returns
    -------
    AllocationCheck with an exact witness when feasible.
    """
    if not decision.inserted:
        raise ValueError("only inserted decisions carry an allocation certificate")
    kq = Fraction(float(k))
    p, q = kq.numerator, kq.denominator
    if p <= q:
        raise ValueError(f"k must be > 1, got {k!r}")
    chosen = decision.chosen
    removed = decision.removed
    n = len(chosen)
    owner = {x: i for i, e in enumerate(chosen) for x in (e.u, e.v)}
    covered = tuple(sorted(owner))
    if len(covered) != 2 * n:
        raise ValueError("inserted edges must be pairwise disjoint")
    hit = [x for d in removed for x in (d.u, d.v) if x in owner]
    if len(set(hit)) != len(hit):
        raise ValueError("at most one removed edge may touch a covered vertex")

    # Every weight as an integer over one power-of-two denominator, so
    # k * load <= w becomes p * load <= q * w with k = p/q.
    ratios = [e.w.as_integer_ratio() for e in chosen + removed]
    den = max(d for _, d in ratios)
    ints = [num * (den // d) for num, d in ratios]

    # load[S]: p * weight of the removed edges whose covered ends all lie
    # in the inserted-edge set S (a bitmask); cap[S]: q * w(S).
    size = 1 << n
    load = [0] * size
    cap = [0] * size
    for i in range(n):
        cap[1 << i] = q * ints[i]
    shared = []
    for d, w in zip(removed, ints[n:]):
        ends = [x for x in (d.u, d.v) if x in owner]
        mask = 0
        for x in ends:
            mask |= 1 << owner[x]
        if len(ends) == 2:
            if mask & (mask - 1) == 0:
                raise ValueError(f"removed edge {d} is also inserted")
            shared.append((ends, p * w))
        load[mask] += p * w
    for i in range(n):
        bit = 1 << i
        for s in range(size):
            if s & bit:
                load[s] += load[s ^ bit]
                cap[s] += cap[s ^ bit]
    if any(load[s] > cap[s] for s in range(size)):
        return AllocationCheck(False, covered, None, chosen, removed, kq)

    # Witness: fix the shared edges one at a time, each at the midpoint
    # of the shares its first end can take with every subset condition
    # kept true.  Scaling by 2**len(shared) keeps the halvings integral.
    scale = 1 << len(shared)
    load = [v * scale for v in load]
    cap = [v * scale for v in cap]
    witness = dict.fromkeys(covered, _ONE)
    for (c, d), w in shared:
        w *= scale
        bc, bd = 1 << owner[c], 1 << owner[d]
        to_c = [s for s in range(size) if s & bc and not s & bd]
        to_d = [s for s in range(size) if s & bd and not s & bc]
        hi = min([w] + [cap[s] - load[s] for s in to_c])
        lo = w - min([w] + [cap[s] - load[s] for s in to_d])
        share = (lo + hi) // 2
        for s in to_c:
            load[s] += share
        for s in to_d:
            load[s] += w - share
        witness[c] = Fraction(share, w)
        witness[d] = Fraction(w - share, w)
    return AllocationCheck(True, covered, witness, chosen, removed, kq)
