"""The one-pass (1 + gamma) replacement rule, as a policy of the shadow step.

Keep a matching, and swap an input edge in when it weighs more than
(1 + gamma) times the matching edges it conflicts with.  That is the
step of shadow.py at threshold t = 1 + gamma with parking off: no slot
ever fills, so the input edge is the only candidate, and evicted edges
are gone for good.  gamma = 1 gives a worst-case ratio of 6 (Feigenbaum,
Kannan, McGregor, Suri and Zhang 2005), and gamma = 1/sqrt(2) gives
3 + 2*sqrt(2), about 5.828 (McGregor 2005).
"""

from __future__ import annotations

from typing import Iterable

from .graph import Edge, EdgeStream
from .shadow import (InsertHook, RunResult, ShadowMatcher, drive,
                     real_parameter)

GAMMA_RATIO_SIX = 1.0
GAMMA_RATIO_5_828 = 0.7071067811865476  # 1/sqrt(2)


class BaselineMatcher(ShadowMatcher):
    """The shadow step at threshold 1 + gamma, with parking off; gamma
    must be finite and >= 0 (0 means "strictly heavier wins")."""

    parks = False

    def __init__(self, gamma: float):
        self.gamma = real_parameter("gamma", gamma, 0.0, strict=False)
        self._start(1.0 + self.gamma)

    # The traced benchmark wraps these by name in this class's own dict.
    process_edge = ShadowMatcher.process_edge
    matching_weight = ShadowMatcher.matching_weight


def run_baseline(stream: EdgeStream | Iterable[Edge], gamma: float, *,
                 on_insert: InsertHook | None = None) -> RunResult:
    """Feed a whole stream through a fresh baseline matcher, calling
    `on_insert` with the decision of each step that inserted."""
    return drive(BaselineMatcher(gamma), stream, on_insert=on_insert)
