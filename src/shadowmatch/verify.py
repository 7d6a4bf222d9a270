"""Per-insertion certificate checks, in exact rational arithmetic.

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

This is a tiny linear feasibility problem (at most six variables), so
it is decided exactly: weights and k are converted to fractions.Fraction
(binary floats convert exactly) and the system is run through
Fourier-Motzkin elimination.  When feasible, back-substitution produces
a concrete witness allocation; when not, the insertion violated its
own admission rule and something is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Edge
from .shadow import InsertionDecision

# One linear constraint: sum(coeffs[i] * x[i]) <= rhs.
_Constraint = tuple[tuple[Fraction, ...], Fraction]


@dataclass(frozen=True)
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
        certify and raise ValueError.
    k
        The threshold the matcher ran with (> 1).

    Returns
    -------
    AllocationCheck with an exact witness when feasible.
    """
    if not decision.inserted:
        raise ValueError("only inserted decisions carry an allocation certificate")
    kq = Fraction(float(k))
    if kq <= 1:
        raise ValueError(f"k must be > 1, got {k!r}")
    chosen = decision.chosen
    removed = decision.removed

    covered = sorted({x for e in chosen for x in (e.u, e.v)})
    index = {x: i for i, x in enumerate(covered)}
    # Removed edges form a matching, so each covered vertex has at
    # most one removed edge sitting on it.
    removed_weight = {}
    for d in removed:
        for x in (d.u, d.v):
            if x in index:
                removed_weight[x] = Fraction(d.w)

    if len(chosen) == 1:
        # Single inserted edge ab: every removed edge meets {a, b} in
        # exactly one vertex and pins f there to 1, so the system is
        # feasible iff the total removed weight fits under w(ab)/k.
        e = chosen[0]
        total = sum(removed_weight.values(), Fraction(0))
        feasible = total <= Fraction(e.w) / kq
        witness = {x: Fraction(1) for x in covered} if feasible else None
        return AllocationCheck(feasible, tuple(covered), witness,
                               chosen, removed, kq)

    nvars = len(covered)
    zero = Fraction(0)
    constraints: list[_Constraint] = []

    def row(entries: dict[int, Fraction], rhs: Fraction) -> _Constraint:
        coeffs = [zero] * nvars
        for x, c in entries.items():
            coeffs[index[x]] += c
        return tuple(coeffs), rhs

    for e in chosen:
        entries = {}
        for x in (e.u, e.v):
            wx = removed_weight.get(x)
            if wx is not None:
                entries[x] = wx
        constraints.append(row(entries, Fraction(e.w) / kq))
    for d in removed:
        entries = {x: Fraction(-1) for x in (d.u, d.v) if x in index}
        # f is zero off the covered set, so missing endpoints drop out.
        constraints.append(row(entries, Fraction(-1)))
    one = Fraction(1)
    for x in covered:
        constraints.append(row({x: one}, one))
        constraints.append(row({x: -one}, zero))

    values = _fourier_motzkin(constraints, nvars)
    if values is None:
        return AllocationCheck(False, tuple(covered), None, chosen, removed, kq)
    witness = {x: values[index[x]] for x in covered}
    return AllocationCheck(True, tuple(covered), witness, chosen, removed, kq)


def _dedup(constraints: list[_Constraint]) -> list[_Constraint]:
    # Keep only the tightest rhs per coefficient vector.
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for coeffs, rhs in constraints:
        cur = best.get(coeffs)
        if cur is None or rhs < cur:
            best[coeffs] = rhs
    return [(c, b) for c, b in best.items()]


def _fourier_motzkin(constraints: list[_Constraint], nvars: int
                     ) -> list[Fraction] | None:
    """Decide `Ax <= b` over the rationals; return a witness or None.

    Variables are eliminated in index order.  The constraint sets seen
    just before each elimination are kept so a satisfying point can be
    rebuilt by walking them backwards, picking the midpoint of each
    variable's residual interval.
    """
    stages: list[tuple[int, list[_Constraint], list[_Constraint]]] = []
    cons = _dedup(constraints)
    for j in range(nvars):
        pos: list[_Constraint] = []
        neg: list[_Constraint] = []
        rest: list[_Constraint] = []
        for coeffs, rhs in cons:
            cj = coeffs[j]
            if cj > 0:
                pos.append((coeffs, rhs))
            elif cj < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        stages.append((j, pos, neg))
        combined = rest
        for cp, bp in pos:
            ap = cp[j]
            for cn, bn in neg:
                an = -cn[j]
                coeffs = tuple(cp[t] / ap + cn[t] / an for t in range(nvars))
                combined.append((coeffs, bp / ap + bn / an))
        cons = _dedup(combined)

    if any(rhs < 0 for _, rhs in cons):
        return None

    values = [Fraction(0)] * nvars

    def bound(j: int, coeffs: tuple[Fraction, ...], rhs: Fraction) -> Fraction:
        residual = rhs - sum(
            (coeffs[t] * values[t] for t in range(j + 1, nvars)), Fraction(0))
        return residual / coeffs[j]  # coeffs[j] < 0 flips to a lower bound

    for j, pos, neg in reversed(stages):
        upper = min((bound(j, *c) for c in pos), default=None)
        lower = max((bound(j, *c) for c in neg), default=None)
        if upper is None and lower is None:
            values[j] = Fraction(0)
        elif upper is None:
            values[j] = lower  # type: ignore[assignment]
        elif lower is None:
            values[j] = upper
        else:
            values[j] = (lower + upper) / 2
    return values
