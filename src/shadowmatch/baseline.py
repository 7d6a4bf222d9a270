"""Irrevocable one-pass matcher used as a comparison point.

The rule is the classic one: keep a matching, and when an input edge
weighs more than (1 + gamma) times the total weight of the matching
edges it conflicts with, swap it in.  Evicted edges are gone for good;
there are no shadow slots.

The two stock thresholds are reconstructions of the usual analysis:
gamma = 1 gives a worst-case ratio of 6, and gamma = 1/sqrt(2) tightens
it to 3 + 2*sqrt(2) (about 5.828).
"""

from __future__ import annotations

import math
from typing import Iterable

from .graph import Edge, EdgeStream
from .shadow import (DecisionHook, InsertionDecision, RunResult,
                     ShadowMatcher, check_input, conflict_score, drive)

GAMMA_RATIO_SIX = 1.0
GAMMA_RATIO_5_828 = 0.7071067811865476  # 1/sqrt(2)


class BaselineMatcher:
    """Matching-only state for the (1 + gamma) replacement rule."""

    # The driver's per-step counters: one candidate set, no slots.
    last_candidate_sets = 1
    parked_edge_count = 0

    def __init__(self, gamma: float):
        if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
            raise ValueError(f"gamma must be a real number, got {gamma!r}")
        gamma = float(gamma)
        if not math.isfinite(gamma) or gamma < 0.0:
            raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
        self.gamma = gamma
        self.threshold = 1.0 + gamma
        self.matching: dict[int, Edge] = {}
        self.matched_edge_count = 0
        self.insertions = 0
        self.last_touched_edges = 0

    matching_edges = ShadowMatcher.matching_edges
    matching_weight = ShadowMatcher.matching_weight

    def process_edge(self, e: Edge) -> InsertionDecision:
        """Insert `e` iff it is (1 + gamma)-heavier than what it displaces.

        With gamma = 0 this degenerates to "strictly heavier wins".
        """
        check_input(self.matching, e)
        margin, removed, key = conflict_score(self.matching, (e,),
                                              self.threshold)
        self.last_touched_edges = 1 + len(removed)
        decision = InsertionDecision((e,), removed, margin, key > 0)
        if decision.inserted:
            for d in removed:
                del self.matching[d.u]
                del self.matching[d.v]
            self.matching[e.u] = e
            self.matching[e.v] = e
            self.matched_edge_count += 1 - len(removed)
            self.insertions += 1
        return decision


def run_baseline(stream: EdgeStream | Iterable[Edge], gamma: float, *,
                 on_decision: DecisionHook | None = None) -> RunResult:
    """Feed a whole stream through a fresh baseline matcher."""
    return drive(BaselineMatcher(gamma), stream, on_decision=on_decision)
