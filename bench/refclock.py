"""Timings scaled to a fixed reference speed.

The shared hosts this benchmark runs on change speed by up to 2x, from
one second to the next and over minutes, for every process alike, so a
raw wall time says as much about the host as about the program.  Short
bursts of a fixed reference routine, which imports nothing from the
program, are therefore run every SEGMENT_S inside the measured work,
and the work that follows each burst is scaled by

    REFERENCE_UNIT_S / (measured seconds per reference unit)

The result is the time the work would have taken on a host where one
reference unit takes REFERENCE_UNIT_S; a change to the program moves
it in the same proportion as the raw time.  The reference routine mixes the
interpreter work the matchers do: dict and set lookups, small objects
with slots, tuples, float arithmetic and short sorts.
"""

from __future__ import annotations

import random
from time import perf_counter

# Median seconds per reference unit on the host the trajectory in
# README.md was first measured on (CPython 3.11).  Only the ratio
# between two runs matters; this constant keeps the figures near the
# raw times of that host.
REFERENCE_UNIT_S = 0.75e-3
# Measured work between two reference bursts, and the burst's length
# as a share of that work.
SEGMENT_S = 0.03
SHARE = 0.15
MIN_UNITS = 2


class _Slot:
    __slots__ = ("mate", "weight")

    def __init__(self):
        self.mate = -1
        self.weight = 0.0


def _edges():
    rng = random.Random(20070925)
    return [(rng.randrange(160), rng.randrange(160), rng.random())
            for _ in range(500)]


_EDGES = _edges()


def _unit() -> float:
    """One reference unit: a greedy swap matching over fixed edges."""
    slots: dict[int, _Slot] = {}
    seen: set[tuple[int, int]] = set()
    total = 0.0
    for u, v, w in _EDGES:
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        a = slots.get(u) or slots.setdefault(u, _Slot())
        b = slots.get(v) or slots.setdefault(v, _Slot())
        if w > 2.0 * (a.weight + b.weight):
            for s in (a, b):
                if s.mate >= 0:
                    other = slots[s.mate]
                    other.mate = -1
                    other.weight = 0.0
            a.mate, b.mate = v, u
            a.weight = b.weight = w
        total += sum(sorted((a.weight, b.weight, w)))
    return total


class RefClock:
    """A clock that runs at the reference speed.

    ``now()`` reads seconds of measured work scaled to the reference
    speed; the reference bursts themselves are left out.  ``tick()``,
    called often from inside the measured work, closes the current
    segment once it has run for SEGMENT_S and runs a burst, whose speed
    scales the next segment.  ``refresh()`` runs a burst at once; call
    it before a measurement that follows unmeasured work.  Only
    differences of ``now()`` mean anything.
    """

    def __init__(self):
        self._scaled = 0.0
        self._factor = 1.0
        self._start = perf_counter()
        self.refresh()

    def now(self) -> float:
        return self._scaled + (perf_counter() - self._start) * self._factor

    def tick(self) -> None:
        if perf_counter() - self._start >= SEGMENT_S:
            self.refresh()

    def refresh(self) -> None:
        t0 = perf_counter()
        self._scaled += (t0 - self._start) * self._factor
        units = max(MIN_UNITS, round(
            min(t0 - self._start, SEGMENT_S) * SHARE / REFERENCE_UNIT_S))
        for _ in range(units):
            _unit()
        self._start = perf_counter()
        self._factor = REFERENCE_UNIT_S * units / (self._start - t0)


class RawClock:
    """RefClock's interface over the host's own clock."""

    now = staticmethod(perf_counter)

    def tick(self) -> None:
        pass

    def refresh(self) -> None:
        pass
