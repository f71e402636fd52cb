"""In-memory span recording and self-time analysis.

A span is a dict with `id`, `name`, `start`, `end`, `parent` (the id of the
enclosing span or None), `run` (the run id shared by every span of one
traced run) and optional `counts`, a dict of work counters recorded at the
same boundary.  Spans stay in memory until the caller writes them out.
"""

import functools
import time
from collections import defaultdict


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []

    def _open(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": self.clock(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec):
        rec["end"] = self.clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; returns (result, span)."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs), rec
        finally:
            self._close(rec)

    def wrap(self, fn, name, count=None):
        """fn wrapped in a span; count(result, *args, **kwargs) -> counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, rec = self.call(name, fn, *args, **kwargs)
            if count is not None:
                rec["counts"] = count(result, *args, **kwargs)
            return result

        return traced


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def children_of(spans):
    """Map span id -> list of its direct child spans."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def self_times(spans):
    """Map span id -> duration minus the time its direct children cover."""
    kids = children_of(spans)
    return {s["id"]: (s["end"] - s["start"])
            - _covered([(c["start"], c["end"]) for c in kids[s["id"]]])
            for s in spans}


def descendants(span, kids):
    """Every span below `span`, depth first."""
    out, todo = [], list(kids[span["id"]])
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids[s["id"]])
    return out


def by_name(spans):
    """Aggregate per span name: inclusive seconds, self seconds, calls, counters.

    Inclusive time counts only the outermost span of a name, so a recursive
    or re-entrant call is not counted twice.
    """
    selfs = self_times(spans)
    ids = {s["id"]: s for s in spans}
    agg = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                               "counts": defaultdict(float)})
    for s in spans:
        a = agg[s["name"]]
        a["self_s"] += selfs[s["id"]]
        a["calls"] += 1
        for key, value in s.get("counts", {}).items():
            a["counts"][key] += value
        parent = s["parent"]
        while parent is not None and ids[parent]["name"] != s["name"]:
            parent = ids[parent]["parent"]
        if parent is None:
            a["s"] += s["end"] - s["start"]
    return agg


def covered_share(spans, keep, start, end):
    """Share of [start, end] covered by the spans for which keep(span) holds."""
    if end <= start:
        return 0.0
    return _covered([(s["start"], s["end"]) for s in spans if keep(s)]) / (end - start)
