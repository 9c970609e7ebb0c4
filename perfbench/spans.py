"""In-memory spans and counters for the traced benchmark run.

A span records one call the benchmark makes into spspec: its name, start
and end (time.perf_counter, which is system-wide monotonic, so spans from a
forked child line up with the parent's), the index of the enclosing span,
and the sweep it belongs to ("setup" before the first timed operation).

Coefficient lookups run tens of thousands of times per sweep, so they are
folded: one record per (parent span, name) whose `calls` counts the calls
and whose `busy` sums their durations.  Every other span is one record per
call.  Self time is `busy - child`, where `child` sums the durations of the
spans opened directly inside it; spans of one process never overlap, so
that sum is the time the children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

SETUP = "setup"


class Tracer:
    on = True

    def __init__(self) -> None:
        # each record: [name, start, end, parent, sweep, calls, busy, child]
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.sweep = SETUP
        self._stack: list[int] = []
        self._folded: dict[tuple[int, str], int] = {}

    def begin_sweep(self, sweep) -> None:
        self.sweep = sweep
        self.counts[sweep]  # a sweep that counts nothing still reports zeros

    def count(self, name: str, n) -> None:
        self.counts[self.sweep][name] += n

    def open(self, name: str, fold: bool = False) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else -1
        idx = self._folded.get((parent, name)) if fold else None
        if idx is None:
            idx = len(self.spans)
            self.spans.append([name, None, None, parent, self.sweep, 0, 0.0, 0.0])
            if fold:
                self._folded[(parent, name)] = idx
        self._stack.append(idx)
        t0 = time.perf_counter()
        if self.spans[idx][1] is None:
            self.spans[idx][1] = t0
        return idx, t0

    def close(self, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        rec = self.spans[idx]
        rec[2] = t1
        rec[5] += 1
        rec[6] += t1 - t0
        if self._stack:
            self.spans[self._stack[-1]][7] += t1 - t0

    def call(self, name: str, fn, *args, **kwargs):
        idx, t0 = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx, t0)

    def merge(self, spans: list[list], counts: dict) -> None:
        """Append the spans and counts a forked child recorded."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            if rec[3] >= 0:
                rec[3] += base
            self.spans.append(rec)
        for sweep, table in counts.items():
            for name, n in table.items():
                self.counts[int(sweep) if sweep != SETUP else SETUP][name] += n

    def totals(self, sweep) -> tuple[dict, dict, dict]:
        """Self time, inclusive time and call count per span name in one sweep."""
        self_s: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, _, _, _, sw, n, dur, child in self.spans:
            if sw == sweep:
                self_s[name] += dur - child
                busy[name] += dur
                calls[name] += n
        return self_s, busy, calls


class NullTracer:
    """Stand-in used with tracing off: calls straight through, records nothing."""

    on = False

    def begin_sweep(self, sweep) -> None:
        pass

    def count(self, name: str, n) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
