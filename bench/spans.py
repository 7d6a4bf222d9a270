"""In-memory call spans for the traced benchmark run.

A span is one call into a module's public function, timed from outside
the program: name (``<layer>.<function>``), start, end and the span
that was open when it began.  Spans live in flat arrays while the run
goes and are written out once it ends.  Self time is a span's duration
minus the time its child spans cover; since one thread records them,
children never overlap, so that is the sum of the child durations.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open: list[int] = []
        self._roots: list[int] | None = None

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self) -> int:
        """End the innermost open span; returns its duration in ns."""
        t = perf_counter_ns()
        idx = self._open.pop()
        self.end[idx] = t
        return t - self.start[idx]

    def call(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def iterate(self, name: str, iterable):
        """Yield from `iterable`, with one span around each `next`."""
        it = iter(iterable)
        while True:
            self.open(name)
            try:
                item = next(it)
            except StopIteration:
                self.close()
                return
            except BaseException:
                self.close()
                raise
            self.close()
            yield item

    @contextmanager
    def patched(self, *targets):
        """Replace `owner.attr` by a spanning wrapper for the duration.

        Each target is ``(owner, attr, span_name)``; owner is a module
        or a class, so calls the program makes through that attribute
        are recorded without changing the program.
        """
        saved = []
        try:
            for owner, attr, span_name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, span_name: str, fn):
        def wrapper(*args, **kwargs):
            self.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ------------------------------------------------------

    def durations_us(self, name: str, root: str | None = None) -> list[float]:
        """Durations of the spans called `name`, optionally only those
        under a top-level span called `root`."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        rid = self._ids.get(root, -2) if root is not None else None
        roots = self.root_of() if root is not None else None
        return [(self.end[i] - self.start[i]) / 1e3
                for i in range(len(self)) if self.name[i] == nid
                and (rid is None or self.name[roots[i]] == rid)]

    def self_ns(self) -> list[int]:
        out = [self.end[i] - self.start[i] for i in range(len(self))]
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def nesting_errors(self) -> int:
        """Spans left open, or not inside their parent's interval."""
        bad = len(self._open)
        for i in range(len(self)):
            p = self.parent[i]
            if self.end[i] < self.start[i]:
                bad += 1
            elif p >= 0 and not (self.start[p] <= self.start[i]
                                 and self.end[i] <= self.end[p]):
                bad += 1
        return bad

    def root_of(self) -> list[int]:
        """Index of each span's top-level ancestor (itself if top-level)."""
        if self._roots is None or len(self._roots) != len(self):
            # A child opens after its parent, so parents come first.
            roots: list[int] = []
            for i in range(len(self)):
                p = self.parent[i]
                roots.append(i if p < 0 else roots[p])
            self._roots = roots
        return self._roots

    def layer_shares(self, root_name: str) -> dict[str, float]:
        """Self time per layer under the spans named `root_name`, as a
        share of those spans' total duration."""
        rid = self._ids.get(root_name)
        if rid is None:
            return {}
        selfs = self.self_ns()
        roots = self.root_of()
        total = 0
        by_layer: dict[str, int] = defaultdict(int)
        for i in range(len(self)):
            r = roots[i]
            if self.name[r] != rid:
                continue
            if i == r:
                total += self.end[i] - self.start[i]
            by_layer[self.names[self.name[i]].split(".")[0]] += selfs[i]
        return {layer: ns / total for layer, ns in by_layer.items()} if total else {}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i],
                                     self.end[i], self.parent[i]]))
                fh.write("\n")
